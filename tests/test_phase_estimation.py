"""Phase register kernels: amplitudes, windows, and the estimate circuit."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import eigensearch as es
import frames
import oracles
from eigensearch.numerics import ResourceCapExceeded, make_rng
from eigensearch.phase_estimation import (
    RegisterLayout,
    StateVector,
    SubspaceMask,
    apply_register_flip,
    embed_mainspace,
    estimate_window_mass,
    hadamard_block,
    raw_estimate_forward,
    raw_estimate_inverse,
)


def qr_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_estimate_amplitudes_match_the_brute_force_sum():
    rng = make_rng(3)
    for lam in rng.uniform(-np.pi, np.pi, size=40):
        fast = es.estimate_amplitudes(10, float(lam))
        slow = oracles.brute_estimate_amplitudes(10, float(lam))
        assert np.max(np.abs(fast - slow)) <= 1e-10
        assert np.sum(np.abs(fast) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_hadamard_block_matches_scipy():
    for bits in range(5):
        want = scipy.linalg.hadamard(1 << bits) / np.sqrt(1 << bits)
        assert np.array_equal(hadamard_block(bits), want)


def test_estimate_amplitudes_are_one_hot_on_the_register_grid():
    m = 64
    for k in (0, 1, 31, 63):
        amps = es.estimate_amplitudes(6, 2.0 * np.pi * k / m)
        expected = np.zeros(m)
        expected[k] = 1.0
        assert np.max(np.abs(amps - expected)) <= 1e-12
    # a perturbation of one ulp off the grid must stay finite and close
    amps = es.estimate_amplitudes(6, 2.0 * np.pi * 5 / m + 1e-15)
    assert abs(amps[5]) == pytest.approx(1.0, abs=1e-9)


def test_k_nearest_wraps_on_the_register_circle():
    assert es.k_nearest(6, 0.29) == 3
    assert es.k_nearest(6, -0.29) == 61
    assert es.k_nearest(6, np.pi) == 32
    assert es.k_nearest(10, 2.0 * np.pi - 0.001) == 0
    assert es.k_nearest(10, 0.0) == 0


def test_window_mask_indices_wrap_and_reject_oversized_windows():
    assert sorted(es.window_mask(6, 63, 2).indices) == [0, 1, 61, 62, 63]
    assert sorted(es.window_mask(2, 0, 1).indices) == [0, 1, 3]
    # covering the register exactly is allowed
    assert len(es.window_mask(2, 1, 1).indices) == 3
    assert len(es.window_mask(3, 4, 3).indices) == 7
    with pytest.raises(ValueError):
        es.window_mask(2, 0, 2)
    with pytest.raises(ValueError):
        es.window_mask(6, 0, -1)


def test_subspace_mask_vectors_are_consistent():
    mask = es.window_mask(3, 0, 1)
    ind = mask.indicator()
    sign = mask.sign_vector()
    assert_allclose(sign, 1.0 - 2.0 * ind, atol=0)
    assert sorted(mask.complement().indices) == [2, 3, 4, 5, 6]
    assert set(mask.complement().indices) | set(mask.indices) == set(range(8))


def test_peak_window_mass_respects_the_guaranteed_bound():
    rng = make_rng(9)
    for _ in range(300):
        lam = float(rng.uniform(-np.pi, np.pi))
        half = int(rng.integers(2, 17))
        mass = es.peak_window_mass(9, lam, half)
        assert mass >= es.peak_mass_bound(half)
    assert es.peak_mass_bound(2) == 0.5
    assert es.peak_mass_bound(3) == 0.75
    with pytest.raises(ValueError):
        es.peak_mass_bound(1)


def test_gap_window_reaches_almost_to_the_gap():
    half = es.gap_window_halfwidth(6, np.pi, es.GUARD_FRACTION)
    assert half == 30
    mask = es.gap_window_mask(6, np.pi, es.GUARD_FRACTION)
    expected = set(range(0, 31)) | set(range(34, 64))
    assert set(int(i) for i in mask.indices) == expected
    margin = es.gap_guard_margin(6, np.pi, es.GUARD_FRACTION)
    assert margin == pytest.approx(64 * es.GUARD_FRACTION * 0.5, rel=1e-12)


def test_gap_window_rejects_a_register_too_coarse_for_the_gap():
    with pytest.raises(ValueError):
        es.gap_window_mask(2, np.pi, es.GUARD_FRACTION)


def test_estimate_window_mass_checks_register_dimension():
    mask = es.window_mask(5, 0, 2)
    with pytest.raises(ValueError):
        estimate_window_mass(6, 0.1, mask)


def test_embed_mainspace_places_the_state_in_the_joint_register():
    lay = RegisterLayout(3, 2, 1, es.DENSE_CAP)
    sv = embed_mainspace(lay, [0.0, 1.0, 0.0], phase_value=2, vote_value=1)
    assert sv.reshaped().shape == (3, 4, 2)
    assert int(np.flatnonzero(sv.amps)[0]) == (1 * 4 + 2) * 2 + 1
    assert_allclose(sv.marginal("main"), [0.0, 1.0, 0.0], atol=1e-15)
    assert_allclose(sv.marginal("phase"), [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    assert_allclose(sv.marginal("vote"), [0.0, 1.0], atol=1e-15)


def test_phase_estimate_matches_the_dense_oracle_and_inverts():
    # the estimate runs in the estimate frame; with the main axis taken back
    # out it is the dense circuit on the computational state
    u = qr_unitary(4, 7)
    dec = es.eig_unitary(u)
    lay = RegisterLayout(4, 5, 0, es.DENSE_CAP)
    rng = make_rng(5)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    sv = embed_mainspace(lay, vec)
    dense = oracles.dense_estimate_forward(u, 5)

    a = frames.to_frame(sv.reshaped(), dec)
    out = raw_estimate_forward(a, dec.phases)
    got = frames.from_frame(out, dec, axes=("main",)).reshape(-1)
    assert np.max(np.abs(got - dense @ sv.amps)) <= 1e-9
    assert np.max(np.abs(raw_estimate_inverse(out, dec.phases) - a)) <= 1e-12


def test_eigenstate_estimation_concentrates_at_the_nearest_register_value():
    spec = es.build_symmetric_spec(8, [0.9], 1, 0)
    inst = es.SearchInstance.build(spec, es.find_targets(spec, 0.5)[0])
    s = es.build_search_operator(inst)
    dec = es.eig_unitary(s)
    k = int(np.argmax(dec.phases))
    lam = float(dec.phases[k])
    lay = RegisterLayout(8, 7, 0, es.DENSE_CAP)
    sv = embed_mainspace(lay, dec.vectors[:, k], frame=dec)
    # the phase axis of the estimate is computational; the main axis is
    # summed over, so its basis does not matter
    out = raw_estimate_forward(sv.reshaped(), dec.phases)
    marginal = np.sum(np.abs(out) ** 2, axis=(0, 2))
    assert int(np.argmax(marginal)) == es.k_nearest(7, lam)
    profile = np.abs(es.estimate_amplitudes(7, lam)) ** 2
    assert np.max(np.abs(marginal - profile)) <= 1e-10


def test_register_layout_enforces_the_dense_cap():
    scheme = es.InversionScheme(kind="boosted", phase_bits=20, vote_bits=8,
                                phase_gap=0.3,
                                guard_fraction=es.GUARD_FRACTION)
    with pytest.raises(ResourceCapExceeded):
        es.InversionOperator.build(scheme, np.eye(32, dtype=complex))


def test_frame_states_refuse_what_their_frame_cannot_answer():
    # a state in an estimate frame is never answered for in another basis
    u = qr_unitary(3, 5)
    dec = es.eig_unitary(u)
    lay = RegisterLayout(3, 3, 2)
    sv = embed_mainspace(lay, [0.6, 0.0, 0.8], frame=dec)
    with pytest.raises(ValueError, match="phase marginal"):
        sv.marginal("phase")
    with pytest.raises(ValueError, match="not diagonal"):
        apply_register_flip(sv, SubspaceMask(8, [1]), "phase")
    with pytest.raises(ValueError, match="different frames"):
        sv.overlap(embed_mainspace(lay, [0.6, 0.0, 0.8]))
    with pytest.raises(ValueError, match="frame of dimension"):
        StateVector(sv.amps, RegisterLayout(6, 3, 1), dec)
    # a second diagonalization of u is an equal decomposition, but not the
    # frame this state was embedded in
    op = es.InversionOperator.build(es.InversionScheme("boosted", 3, 2, 0.6), u,
                                    decomposition=es.eig_unitary(u))
    with pytest.raises(ValueError, match="another operator"):
        op.apply(sv)
    with pytest.raises(ValueError, match="computational basis"):
        op.apply(embed_mainspace(lay, [0.6, 0.0, 0.8]))
    assert op.apply(embed_mainspace(lay, [0.6, 0.0, 0.8], frame=op.frame)) \
        .frame is op.frame
