"""The approximate selective inverter, basic and vote-boosted."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import eigensearch as es
import frames
import instances
import oracles
from eigensearch import phase_estimation, selective_inversion
from eigensearch.numerics import inside_gap
from eigensearch.phase_estimation import (
    RegisterLayout,
    embed_mainspace,
    estimate_amplitudes,
    gap_window_mask,
    window_split,
)
from eigensearch.pipeline import target_flip
from eigensearch.search_core import search_decomposition, search_operator
from eigensearch.selective_inversion import (
    basic_error_bound,
    binomial_tail_wrong_half,
    measure_epsilon,
    predicted_epsilon,
)


def test_scheme_constructors_size_the_registers():
    basic = es.InversionScheme.basic(3.0, 0.5)
    assert basic.kind == "basic"
    assert basic.phase_bits == 12
    assert basic.vote_bits == 0
    boosted = es.InversionScheme.boosted(3.0, 0.5)
    assert boosted.phase_bits == 17
    assert boosted.vote_bits == 6
    assert es.InversionScheme.boosted(3.0, 0.5, offset_bits=8).phase_bits == 9
    # the vote count is the smallest even integer above 5 ln(boost)
    assert es.InversionScheme.boosted(2.0737, 0.9, 4).vote_bits == 4
    assert es.InversionScheme.boosted(5.6204, 0.3, 4).vote_bits == 10


def test_scheme_validation_rejects_malformed_parameters():
    good = dict(kind="basic", phase_bits=8, vote_bits=0, phase_gap=0.5,
                guard_fraction=es.GUARD_FRACTION)
    es.InversionScheme(**good)
    for bad in (
        dict(good, kind="fancy"),
        dict(good, phase_bits=0),
        dict(good, phase_gap=0.0),
        dict(good, phase_gap=4.0),
        dict(good, guard_fraction=0.0),
        dict(good, vote_bits=2),
        dict(good, kind="boosted", vote_bits=0),
        dict(good, kind="boosted", vote_bits=3),
    ):
        with pytest.raises(ValueError):
            es.InversionScheme(**bad)
    # the vote count is capped where its Krawtchouk matrix still builds fast
    with pytest.raises(ValueError, match="at most"):
        es.InversionScheme("boosted", 8, selective_inversion._MAX_VOTE_BITS + 2, 0.5)


def test_vote_majority_mask_selects_strict_majorities():
    assert np.flatnonzero(oracles.vote_majority_mask(2)).tolist() == [3]
    assert np.flatnonzero(oracles.vote_majority_mask(4)).tolist() == [7, 11, 13, 14, 15]
    six = np.flatnonzero(oracles.vote_majority_mask(6)).tolist()
    assert len(six) == 22
    assert all(bin(int(i)).count("1") >= 4 for i in six)
    with pytest.raises(ValueError):
        oracles.vote_majority_mask(3)


def test_the_vote_hadamard_is_its_dense_matrix_on_the_dicke_span():
    # the Krawtchouk matrix on the Dicke columns is <D_s| H^{(x) nu} |D_h>,
    # exactly symmetric and its own inverse, and the majority sign is -1 on
    # the weights above nu / 2, up to the largest vote count a scheme takes
    for nu in (*range(2, 21, 2), selective_inversion._MAX_VOTE_BITS):
        k, flip = selective_inversion._vote_basis(nu)
        assert np.array_equal(k, k.T)
        assert np.max(np.abs(k @ k - np.eye(nu + 1))) <= 1e-14
        assert flip.tolist() == [1.0] * (nu // 2 + 1) + [-1.0] * (nu // 2)
        if nu > 6:
            continue
        dicke = frames.dicke_isometry(nu)
        assert np.max(np.abs(k - dicke.T @ oracles.dense_walsh(nu) @ dicke)) <= 1e-14


def test_binomial_tail_matches_scipy():
    for nu in (2, 4, 6):
        for p in np.linspace(0.05, 0.95, 7):
            # a tie is no majority, so it counts against flipping
            wrong_when_flipping = binomial_tail_wrong_half(nu, p, 1.0 - p, True)
            wrong_when_keeping = binomial_tail_wrong_half(nu, p, 1.0 - p, False)
            assert wrong_when_flipping == pytest.approx(
                stats.binom.cdf(nu // 2, nu, p), abs=1e-12)
            assert wrong_when_keeping == pytest.approx(
                stats.binom.sf(nu // 2, nu, p), abs=1e-12)


def test_basic_error_bound_formula():
    scheme = es.InversionScheme(kind="basic", phase_bits=8, vote_bits=0,
                                phase_gap=0.44,
                                guard_fraction=es.GUARD_FRACTION)
    assert basic_error_bound(scheme) == pytest.approx(
        math.sqrt(1.0 / (2.0 ** 2 * 0.44)), rel=1e-12)
    boosted = es.InversionScheme.boosted(3.0, 0.5, 8)
    with pytest.raises(ValueError):
        basic_error_bound(boosted)


def test_on_grid_eigenphases_invert_exactly():
    m = 32
    phases = np.array([0.0, 2.0 * np.pi * 5 / m, np.pi])
    u = np.diag(np.exp(1j * phases))
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, u)
    report = measure_epsilon(op, phases, np.eye(3, dtype=complex),
                             [True, False, False])
    assert np.max(report.measured) <= 1e-12
    assert np.max(report.predicted) <= 1e-12


def test_measured_error_tracks_the_analytic_prediction(ref12,
                                                       ref12_operator):
    basic = es.InversionScheme(kind="basic", phase_bits=8, vote_bits=0,
                               phase_gap=instances.REF12_GAP,
                               guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(basic, ref12_operator)
    report = es.instance_epsilon_report(op, ref12, ref12_operator)
    assert np.max(np.abs(report.measured - report.predicted)) <= 1e-8
    assert int(report.inverted.sum()) == 2
    assert report.epsilon_max <= report.bound

    boosted = es.InversionScheme(kind="boosted", phase_bits=10, vote_bits=4,
                                 phase_gap=instances.REF12_GAP,
                                 guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(boosted, ref12_operator)
    report = es.instance_epsilon_report(op, ref12, ref12_operator)
    assert np.max(np.abs(report.measured - report.predicted)) <= 1e-6


def test_a_real_operator_is_kept_real_and_its_frame_solved_in_pairs(ref12_operator):
    # build casts nothing, so the unitarity check and the frame's eigensolve
    # take the real path, whose pairs are exact conjugates
    scheme = es.InversionScheme("basic", 6, 0, instances.REF12_GAP)
    op = es.InversionOperator.build(scheme, ref12_operator)
    assert op.unitary.dtype == np.float64
    phases, v = op.frame.phases, op.frame.vectors
    for lam in phases[(phases > 0.0) & (phases < np.pi)]:
        assert np.array_equal(v[:, phases == -lam], v[:, phases == lam].conj())


def test_an_operator_takes_states_of_its_shape_whatever_the_cap(ref12_operator):
    # the dense cap is checked where a layout is made and is no part of its
    # value, so an operator built under a raised cap takes a state embedded
    # in a layout of the same shape made under the default one
    scheme = es.InversionScheme("basic", 8, 0, instances.REF12_GAP)
    op = es.InversionOperator.build(scheme, ref12_operator, 1 << 23)
    layout = RegisterLayout(12, 8, 0)
    assert layout == op.layout and hash(layout) == hash(op.layout)
    got = op.apply(embed_mainspace(layout, np.eye(12)[3], op.frame))
    want = op.apply(embed_mainspace(op.layout, np.eye(12)[3], op.frame))
    assert np.array_equal(got.slabs, want.slabs)


def scalar_predicted_epsilon(scheme, lam, invert):
    """The prediction for one eigenphase in plain Python: the norms of its
    profile's parts on and off the window, then twice the wrong part's norm
    or the binomial tail of votes that come up one with the squared
    in-window norm and zero with the squared off-window norm, term by
    term."""
    mask = gap_window_mask(scheme.phase_bits, scheme.phase_gap, scheme.guard_fraction)
    profile = estimate_amplitudes(scheme.phase_bits, lam)
    norms = [math.sqrt(np.sum((part.conj() * part).real))
             for part in (np.where(mask, profile, 0.0), np.where(mask, 0.0, profile))]
    if scheme.kind == "basic":
        return 2.0 * norms[1 if invert else 0]
    p, q = norms[0] ** 2, norms[1] ** 2
    nu = scheme.vote_bits
    ks = range(nu // 2 + 1) if invert else range(nu // 2 + 1, nu + 1)
    return 2.0 * math.sqrt(sum(math.comb(nu, k) * p**k * q ** (nu - k) for k in ks))


def test_predicted_epsilon_of_an_array_repeats_the_scalar_arithmetic(ref12_operator):
    # an in-gap prediction is twice the norm of a small off-window part, so
    # a last-bit change would show; the batch, and an operator's kept
    # split of its own eigenphases, must add in the scalar order
    dec = es.eig_unitary(ref12_operator, es.TOL.system_unitarity)
    invert = inside_gap(dec.phases, instances.REF12_GAP)
    for scheme in (es.InversionScheme("basic", 10, 0, instances.REF12_GAP),
                   es.InversionScheme("boosted", 8, 4, instances.REF12_GAP),
                   es.InversionScheme("boosted", 7, 8, instances.REF12_GAP)):
        want = [scalar_predicted_epsilon(scheme, float(lam), bool(inside))
                for lam, inside in zip(dec.phases, invert)]
        assert np.array_equal(predicted_epsilon(scheme, dec.phases, invert), want)
        op = es.InversionOperator.build(scheme, ref12_operator, decomposition=dec)
        assert np.array_equal(op.predicted_epsilon(invert), want)


def test_inverter_matrix_is_unitary_and_involutive():
    u = instances.haar_unitary(4, 9)
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    r = frames.inverter_matrix(es.InversionOperator.build(scheme, u))
    eye = np.eye(r.shape[0])
    assert np.linalg.norm(r.conj().T @ r - eye) <= 1e-9
    assert np.linalg.norm(r @ r - eye) <= 1e-9


def test_basic_inverter_matches_the_dense_oracle():
    u = instances.haar_unitary(4, 11)
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    fast = frames.inverter_matrix(es.InversionOperator.build(scheme, u))
    mask = gap_window_mask(5, 0.6, es.GUARD_FRACTION)
    slow = oracles.dense_basic_inversion(u, 5, mask)
    assert np.max(np.abs(fast - slow)) <= 1e-9


def test_boosted_inverter_matches_the_dense_oracle():
    u = instances.haar_unitary(2, 13)
    scheme = es.InversionScheme(kind="boosted", phase_bits=5, vote_bits=2,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, u)
    gap_mask = gap_window_mask(5, 0.6, es.GUARD_FRACTION)
    vote_mask = oracles.vote_majority_mask(2)
    slow = oracles.dense_boosted_inversion(u, 5, 2, gap_mask, vote_mask)
    assert np.max(np.abs(frames.inverter_matrix(op) - frames.on_dicke_span(slow, op.layout))) \
        <= 1e-9


def test_vote_plane_split_keeps_an_empty_side_finite(monkeypatch):
    # a one-hot profile has an off-window part of norm exactly 0; its unit
    # part is written as zeros instead of 0/0, and the norms times the
    # parts rebuild the profile
    window = np.array([True, False, False, True])
    profiles = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8j, 0.0]])
    monkeypatch.setattr(phase_estimation, "estimate_amplitudes",
                        lambda phase_bits, lam: profiles[:len(lam)])
    parts = np.full((2, 2, 4), np.nan, dtype=complex)
    norms = window_split(2, [0.0, 0.0], window, out=parts)
    assert np.array_equal(parts[0, 1], np.zeros(4))
    assert np.array_equal(norms, [[1.0, 0.0], [0.6, 0.8]])
    assert np.allclose(np.einsum("kj,kjw->kw", norms, parts), profiles,
                       rtol=0.0, atol=1e-15)


def test_inverter_restores_the_ancilla_registers(ref12, ref12_operator):
    scheme = es.InversionScheme(kind="boosted", phase_bits=8, vote_bits=4,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, ref12_operator)
    dec = es.eig_unitary(ref12_operator)
    k = int(np.argmin(np.abs(dec.phases)))
    sv = embed_mainspace(op.layout, dec.vectors[:, k], op.frame)
    out = op.apply(sv)
    deviation = float(np.linalg.norm(out.amps + sv.amps))
    p = np.abs(frames.computational(out)) ** 2
    assert p.sum(axis=(0, 2))[0] >= 1.0 - 2.0 * deviation - 1e-12
    assert p.sum(axis=(0, 1))[0] >= 1.0 - 2.0 * deviation - 1e-12


def test_error_shrinks_with_register_size(ref12, ref12_operator):
    eps = []
    for mu in (8, 10):
        scheme = es.InversionScheme(kind="basic", phase_bits=mu, vote_bits=0,
                                    phase_gap=instances.REF12_GAP,
                                    guard_fraction=es.GUARD_FRACTION)
        op = es.InversionOperator.build(scheme, ref12_operator)
        eps.append(es.instance_epsilon_report(op, ref12,
                                              ref12_operator).epsilon_max)
    assert eps[1] < eps[0]


def _apply_peak_over_register(op, sv):
    """tracemalloc peak of one ``op.apply(sv)``, in stored registers of
    ``op.layout.dim`` complex values."""
    tracemalloc.start()
    try:
        op.apply(sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (op.layout.dim * 16)


def test_a_boosted_slab_apply_holds_a_few_times_its_columns(ref12, ref12_operator):
    # an apply of a Dicke slab state writes its output's nu + 1 columns
    # next to the working arrays of a few eigenvectors
    scheme = es.InversionScheme(kind="boosted", phase_bits=10, vote_bits=4,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, ref12_operator)
    sv = embed_mainspace(op.layout, es.evolve_to_halfway(ref12).state, frame=op.frame)
    # the vote plane is computed and kept on first use
    sv = frames.slab_twin(op.apply(sv))
    assert _apply_peak_over_register(op, sv) <= 1.5


def _two_vote_ref12_state(ref12):
    """A boosted (10, 2) operator on ref12, with its decomposition, and the
    embedded halfway state."""
    scheme = es.InversionScheme(kind="boosted", phase_bits=10, vote_bits=2,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, search_operator(ref12),
                                    decomposition=search_decomposition(ref12))
    return op, embed_mainspace(op.layout, es.evolve_to_halfway(ref12).state, frame=op.frame)


def test_a_boosted_operator_keeps_its_plane_and_no_power_table(ref12):
    # each apply computes the controlled powers of a few eigenvectors at a
    # time, as a basic apply does; what an operator keeps besides its masks
    # is the two plane columns and the two norms of every eigenvector
    op, sv = _two_vote_ref12_state(ref12)
    op.apply(target_flip(op.apply(sv), ref12.target_index))
    n, _, m = op.layout.shape
    table = phase_estimation.power_table(op.frame.phases, m)
    kept = [a for value in vars(op).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray) and a.ndim > 1 and a.shape[-1] == m]
    assert not [a for a in kept if a.shape == table.shape]
    plane, norms = op._window_split()
    assert len(kept) == 1 and kept[0] is plane
    assert plane.shape == (n, 2, m) and norms.shape == (n, 2)


def test_a_boosted_apply_of_an_embedded_state_transforms_nothing(ref12, call_counter):
    # an operator handed its decomposition unestimates its vote plane when
    # it is built, and the Dicke output of an embedded state is the plane
    # times its coefficients: no controlled power and no Fourier transform
    op, sv = _two_vote_ref12_state(ref12)
    calls = {name: call_counter(phase_estimation, name)
             for name in ("power_table", "raw_controlled_powers", "raw_qft",
                          "raw_inverse_qft")}
    out = op.apply(sv)
    assert {name: count[0] for name, count in calls.items()} == dict.fromkeys(calls, 0)
    assert out.slabs.shape == (ref12.spec.n, 3, op.layout.phase_dim)


def test_a_basic_split_writes_no_parts(ref12):
    # a basic operator keeps only the norms of its window split, and the
    # split writes no unit parts for it: building the operator and
    # predicting its errors at mu=12 holds the profiles of one eigenphase
    # at a time
    scheme = es.InversionScheme("basic", 12, 0, instances.REF12_GAP)
    u, dec = search_operator(ref12), search_decomposition(ref12)
    invert = inside_gap(dec.phases, scheme.phase_gap)
    tracemalloc.start()
    try:
        op = es.InversionOperator.build(scheme, u, decomposition=dec)
        op.predicted_epsilon(invert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._window_split()[0] is None
    assert peak / (op.layout.dim * 16) <= 0.75


def test_a_product_state_apply_writes_only_its_output_register(ref12):
    # an embedded state is n coefficients, and a boosted apply of it keeps
    # its output as coefficients along the kept vote plane
    op, sv = _two_vote_ref12_state(ref12)
    assert _apply_peak_over_register(op, sv) <= 1.73


def test_a_second_round_apply_writes_one_register(ref12):
    # the second round's input is the first apply's output with the target
    # flip pending; the apply reflects it into its output, 3 Dicke columns
    # of the 4 vote values, a few eigenvectors at a time and runs there in
    # place, keeping the reflection's projection (1/12 of the register)
    # through the estimate
    op, sv = _two_vote_ref12_state(ref12)
    flipped = target_flip(op.apply(sv), ref12.target_index)
    assert _apply_peak_over_register(op, flipped) <= 1.6


@pytest.mark.parametrize("kind, mu, nu", [("basic", 8, 0), ("boosted", 6, 4)])
def test_an_apply_does_not_depend_on_how_it_splits_the_eigenvectors(
        ref12, monkeypatch, kind, mu, nu):
    # an apply works a few eigenvectors at a time; one eigenvector per run
    # and all of them in one run give the same round, from an embedded
    # state, from its flipped Dicke output and from a register
    op = es.InversionOperator.build(es.InversionScheme(kind, mu, nu, instances.REF12_GAP),
                                    search_operator(ref12),
                                    decomposition=search_decomposition(ref12))
    sv = embed_mainspace(op.layout, es.evolve_to_halfway(ref12).state, op.frame)
    flipped = target_flip(op.apply(sv), ref12.target_index)
    inputs = (sv, flipped, frames.slab_twin(flipped))
    splits = {}
    for runs in (1, ref12.spec.n):
        monkeypatch.setattr(selective_inversion, "_chunks",
                            lambda n, width, runs=runs: [slice(k, k + n // runs)
                                                         for k in range(0, n, n // runs)])
        splits[runs] = [op.apply(state).amps for state in inputs]
    for one, many in zip(splits[1], splits[ref12.spec.n]):
        assert np.max(np.abs(one - many)) <= 1e-14
