"""Phase register kernels: amplitudes, windows, and the estimate circuit."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import eigensearch as es
import frames
import instances
import oracles
from eigensearch.numerics import ResourceCapExceeded, inside_gap, make_rng
from eigensearch.phase_estimation import (
    RegisterLayout,
    StateVector,
    embed_mainspace,
    estimate_amplitudes,
    gap_window_mask,
    power_table,
    raw_estimate_forward,
    raw_estimate_inverse,
    window_split,
)
from eigensearch.search_core import search_decomposition


def test_estimate_amplitudes_match_the_brute_force_sum():
    rng = make_rng(3)
    for lam in rng.uniform(-np.pi, np.pi, size=40):
        fast = estimate_amplitudes(10, float(lam))
        slow = oracles.brute_estimate_amplitudes(10, float(lam))
        assert np.max(np.abs(fast - slow)) <= 1e-10
        assert np.sum(np.abs(fast) ** 2) == pytest.approx(1.0, abs=1e-12)


# Entries of estimate profiles, and the wrong-side mass of ref12's two in-gap
# eigenphases +-lam_0 at mu 8/10/12 (the mass off the gap window), to 17
# digits of their 40-digit values at the exact binary value of each float
# lam; see the test below for how they were made.
REFERENCE_PROFILES = (
    (6, 0.49087385212440515, {
        5: complex(1.0, 3.1498700409969717e-11),
        4: complex(1.0177313911409143e-11, -4.999793712611603e-13),
        6: complex(-1.0177313911584801e-11, -4.9997937191248152e-13),
        0: complex(1.9960295386550918e-12, -4.999793715229506e-13),
        37: complex(1.5748700436778197e-23, -4.9997937158682091e-13),
    }),
    (6, 0.4908738521234052, {
        5: complex(1.0, -6.0275584645533789e-16),
        4: complex(-1.9475201775068859e-16, 9.5675531183388159e-18),
        6: complex(1.9475201775068852e-16, 9.5675531183385774e-18),
        0: complex(-3.8195813111515378e-17, 9.5675531183387201e-18),
        37: complex(5.7668985783506487e-33, 9.5675531183386967e-18),
    }),
    (8, -3.0, {
        134: complex(6.8580637569772508e-1, -6.0497955070949484e-1),
        133: complex(-2.0376234138175352e-1, 1.8424289184879682e-1),
        135: complex(1.3007967848336481e-1, -1.1194065112869545e-1),
        0: complex(1.8579875828856342e-3, 1.8172116856160992e-3),
        6: complex(1.7149709943707822e-3, 1.9440955329759891e-3),
    }),
    (10, 0.2270291566067749, {
        37: complex(1.0, -1.5345610113213547e-10),
        36: complex(-4.8894189064987144e-11, 1.5000597147147778e-13),
        38: complex(4.88941890602519e-11, 1.500059564505857e-13),
        549: complex(2.3019330376027556e-23, 1.5000596396103174e-13),
        1023: complex(-1.2808585752090864e-12, 1.5000596415777944e-13),
    }),
    (10, 1.234, {
        201: complex(9.2136505296594484e-1, 3.3375500473337808e-1),
        200: complex(9.1955726081083125e-2, 3.2991233034944931e-2),
        202: complex(-1.1460149888096466e-1, -4.1911385054098327e-2),
        713: complex(1.1338434593958412e-4, -3.1300916067337788e-4),
        0: complex(5.5467358571426871e-4, -1.5298706800767407e-4),
    }),
    (12, 0.0008592359564976824, {
        1: complex(1.3371757796118583e-1, -6.9808649635873358e-1),
        0: complex(-1.045858739859528e-1, 5.482770135654177e-1),
        2: complex(4.1013021086298781e-2, -2.1322748173490158e-1),
        273: complex(4.4789667227841838e-4, -1.0656752983609062e-3),
        274: complex(4.470969052295721e-4, -1.0614923943451354e-3),
        2048: complex(2.3554967658021486e-4, 4.4931974499622065e-5),
    }),
    (12, -0.0008592359564976824, {
        4095: complex(1.3371757796118583e-1, 6.9808649635873358e-1),
        0: complex(-1.045858739859528e-1, -5.482770135654177e-1),
        4094: complex(4.1013021086298781e-2, 2.1322748173490158e-1),
        3823: complex(4.4789667227841838e-4, 1.0656752983609062e-3),
        3822: complex(4.470969052295721e-4, 1.0614923943451354e-3),
        2048: complex(2.3554967658021486e-4, -4.4931974499622065e-5),
    }),
)
REF12_IN_GAP = 0.0008592359564976824
REF12_WRONG_SIDE_MASS = {
    8: 0.00013731489665308087,
    10: 0.00052861295454508812,
    12: 0.0007042787272861746,
}


def test_profiles_and_wrong_side_masses_match_a_40_digit_table(ref12):
    """The profiles hold within 1e-15 at a register grid point, 1e-12 away
    from one, at generic eigenphases and at ref12's in-gap ones, and the
    wrong-side masses within 1e-13 relative.  The table was made once with
    mpmath 1.3.0, which the package does not depend on and the ``test``
    extra declares, so the table can be made again:

        import mpmath as mp
        mp.mp.dps = 40
        def amp(mu, lam, k):
            m, x = 2 ** mu, mp.mpf(lam) - 2 * mp.pi * k / 2 ** mu
            return mp.expj((m - 1) * x / 2) * mp.sin(m * x / 2) / (m * mp.sin(x / 2))
        def wrong_side_mass(mu, lam, half):  # half: gap_window_mask's halfwidth
            return mp.fsum(abs(amp(mu, lam, k)) ** 2
                           for k in range(half + 1, 2 ** mu - half))
    """
    for mu, lam, entries in REFERENCE_PROFILES:
        profile = estimate_amplitudes(mu, lam)
        for k, want in entries.items():
            assert abs(profile[k] - want) <= 1e-15, (mu, lam, k)
    in_gap = search_decomposition(ref12).phases
    in_gap = np.sort(in_gap[inside_gap(in_gap, instances.REF12_GAP)])
    assert np.allclose(in_gap, [-REF12_IN_GAP, REF12_IN_GAP], rtol=0.0, atol=1e-12)
    for mu, want in REF12_WRONG_SIDE_MASS.items():
        mask = gap_window_mask(mu, instances.REF12_GAP, es.GUARD_FRACTION)
        norms = window_split(mu, [-REF12_IN_GAP, REF12_IN_GAP], mask)
        assert np.allclose(norms[:, 1] ** 2, want, rtol=1e-13, atol=0.0), mu


def test_dense_walsh_matches_scipy():
    # every dense frame change of the tests rests on this matrix.  Its
    # entries are products of normalized one-qubit factors, so they may sit
    # an ulp off scipy's scaled +-1 matrix
    for bits in range(5):
        want = scipy.linalg.hadamard(1 << bits) / np.sqrt(1 << bits)
        assert np.max(np.abs(oracles.dense_walsh(bits) - want)) <= np.spacing(1.0)


def test_estimate_amplitudes_are_one_hot_on_the_register_grid():
    m = 64
    for k in (0, 1, 31, 63):
        amps = estimate_amplitudes(6, 2.0 * np.pi * k / m)
        expected = np.zeros(m)
        expected[k] = 1.0
        assert np.max(np.abs(amps - expected)) <= 1e-12
    # a perturbation of one ulp off the grid must stay finite and close
    amps = estimate_amplitudes(6, 2.0 * np.pi * 5 / m + 1e-15)
    assert abs(amps[5]) == pytest.approx(1.0, abs=1e-9)


def test_k_nearest_wraps_on_the_register_circle():
    assert oracles.k_nearest(6, 0.29) == 3
    assert oracles.k_nearest(6, -0.29) == 61
    assert oracles.k_nearest(6, np.pi) == 32
    assert oracles.k_nearest(10, 2.0 * np.pi - 0.001) == 0
    assert oracles.k_nearest(10, 0.0) == 0


def test_peak_window_mass_respects_the_guaranteed_bound():
    rng = make_rng(9)
    for _ in range(300):
        lam = float(rng.uniform(-np.pi, np.pi))
        half = int(rng.integers(2, 17))
        mass = oracles.peak_window_mass(9, lam, half)
        assert mass >= 1.0 - 1.0 / (2.0 * (half - 1))


def test_gap_window_reaches_almost_to_the_gap():
    # halfwidth 30, the nearest integer to 64 (1 - guard) pi / 2 pi, wrapping
    mask = gap_window_mask(6, np.pi, es.GUARD_FRACTION)
    expected = set(range(0, 31)) | set(range(34, 64))
    assert set(np.flatnonzero(mask).tolist()) == expected
    assert set(np.flatnonzero(~mask).tolist()) == {31, 32, 33}


def test_gap_window_rejects_a_register_too_coarse_for_the_gap():
    with pytest.raises(es.GapGuessTooCoarse):
        gap_window_mask(2, np.pi, es.GUARD_FRACTION)
    with pytest.raises(ValueError, match="positive"):
        gap_window_mask(6, -0.5, es.GUARD_FRACTION)


def test_window_split_checks_register_dimension():
    mask = np.isin(np.arange(32), [0, 1, 2, 30, 31])
    with pytest.raises(ValueError):
        window_split(6, 0.1, mask)


def test_window_split_takes_only_a_boolean_mask():
    # an index array of the register's length would otherwise be read as
    # indices, not as a mask
    mask = np.isin(np.arange(32), [0, 1, 2, 30, 31])
    for bad in (mask.astype(int), mask.astype(float), np.flatnonzero(mask)):
        with pytest.raises(ValueError, match="boolean"):
            window_split(5, 0.1, bad)
    profile = estimate_amplitudes(5, 0.1)
    assert window_split(5, 0.1, mask)[0] ** 2 == pytest.approx(
        np.sum(np.abs(profile[[0, 1, 2, 30, 31]]) ** 2), rel=1e-15)


def test_embed_mainspace_places_the_state_in_the_joint_register():
    # in the frame of a diagonal unitary the main axis is computational, so
    # |e_1> |0> |0> is e_1 times the flat Walsh row on vote value 0
    dec = es.eig_unitary(np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0]))))
    lay = RegisterLayout(3, 2, 1, es.DENSE_CAP)
    sv = embed_mainspace(lay, dec.vectors[:, 1], dec)
    assert sv.amps.shape == (3 * 4 * 2,)
    assert sorted(np.flatnonzero(sv.amps)) == [(1 * 4 + w) * 2 for w in range(4)]
    assert_allclose(np.abs(sv.amps[np.flatnonzero(sv.amps)]), 0.5, atol=1e-15)
    branch, marginal = sv.readouts()
    assert_allclose(marginal, np.abs(dec.vectors[:, 1]) ** 2, atol=1e-15)
    assert_allclose(branch, dec.vectors[:, 1], atol=1e-15)


def test_phase_estimate_matches_the_dense_oracle_and_inverts():
    # the estimate runs in the estimate frame; with the main axis taken back
    # out it is the dense circuit on the computational state
    u = instances.haar_unitary(4, 7)
    dec = es.eig_unitary(u)
    lay = RegisterLayout(4, 5, 0, es.DENSE_CAP)
    rng = make_rng(5)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    plain = np.zeros(frames.oracle_shape(lay), dtype=complex)
    plain[:, 0, 0] = vec / np.linalg.norm(vec)
    dense = oracles.dense_estimate_forward(u, 5)

    # the kernels take the phase axis last
    a = frames.to_frame(plain, dec).swapaxes(1, 2)
    powers = power_table(dec.phases, lay.phase_dim)
    out = raw_estimate_forward(a, powers)
    got = frames.from_frame(out.swapaxes(1, 2), dec, axes=("main",)).reshape(-1)
    assert np.max(np.abs(got - dense @ plain.reshape(-1))) <= 1e-9
    assert np.max(np.abs(raw_estimate_inverse(out, powers) - a)) <= 1e-12


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
    out = raw_estimate_forward(sv.amps.reshape(frames.oracle_shape(lay)).swapaxes(1, 2),
                               power_table(dec.phases, lay.phase_dim))
    marginal = np.sum(np.abs(out) ** 2, axis=(0, 1))
    assert int(np.argmax(marginal)) == oracles.k_nearest(7, lam)
    profile = np.abs(estimate_amplitudes(7, lam)) ** 2
    assert np.max(np.abs(marginal - profile)) <= 1e-10


def test_register_layout_enforces_the_dense_cap():
    scheme = es.InversionScheme(kind="boosted", phase_bits=20, vote_bits=8,
                                phase_gap=0.3,
                                guard_fraction=es.GUARD_FRACTION)
    with pytest.raises(ResourceCapExceeded):
        es.InversionOperator.build(scheme, np.eye(32, dtype=complex))
    # the cap counts the stored main x (nu + 1) x phase values, 3 x 41 x 2
    # here, not the full layout's 3 x 2 x 2^40: a layout of exactly the cap
    # builds, and one value over it does not
    at_cap = RegisterLayout(3, 1, 40, 246)
    assert at_cap.shape == (3, 41, 2) and at_cap.dim == 246
    with pytest.raises(ResourceCapExceeded, match="246 stored values"):
        RegisterLayout(3, 1, 40, 245)
    # so only the writer of the full layout checks it against the cap
    big = RegisterLayout(2, 1, 21)
    state = embed_mainspace(big, [1.0, 0.0], es.eig_unitary(np.eye(2, dtype=complex)))
    with pytest.raises(ResourceCapExceeded, match="8388608 amplitudes"):
        state.amps


def test_frame_states_refuse_what_their_frame_cannot_answer():
    # a state exists only in an estimate frame, and only in its own
    u = instances.haar_unitary(3, 5)
    dec = es.eig_unitary(u)
    lay = RegisterLayout(3, 3, 2)
    sv = embed_mainspace(lay, [0.6, 0.0, 0.8], dec)
    # and it is made by one of its forms: there is no register constructor
    with pytest.raises(TypeError):
        StateVector(sv.amps, lay, dec)
    with pytest.raises(TypeError):
        StateVector.product(sv.main, lay)
    with pytest.raises(TypeError, match="eigendecomposition"):
        StateVector.product(sv.main, lay, None)
    with pytest.raises(ValueError, match="frame of dimension"):
        StateVector.from_slabs(np.zeros((6, 2, 8), dtype=complex), RegisterLayout(6, 3, 1), dec)
    # a second diagonalization of u is an equal decomposition, but not the
    # frame this state was embedded in
    op = es.InversionOperator.build(es.InversionScheme("boosted", 3, 2, 0.6), u,
                                    decomposition=es.eig_unitary(u))
    with pytest.raises(ValueError, match="another operator"):
        op.apply(sv)
    assert op.apply(embed_mainspace(lay, [0.6, 0.0, 0.8], op.frame)).frame is op.frame
