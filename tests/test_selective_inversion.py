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
from eigensearch.phase_estimation import embed_mainspace
from eigensearch.selective_inversion import _split_estimates


def qr_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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


def test_vote_majority_mask_selects_strict_majorities():
    assert sorted(es.vote_majority_mask(2).indices) == [3]
    assert sorted(es.vote_majority_mask(4).indices) == [7, 11, 13, 14, 15]
    six = sorted(es.vote_majority_mask(6).indices)
    assert len(six) == 22
    assert all(bin(int(i)).count("1") >= 4 for i in six)
    with pytest.raises(ValueError):
        es.vote_majority_mask(3)


def test_binomial_tail_matches_scipy():
    for nu in (2, 4, 6):
        for p in np.linspace(0.05, 0.95, 7):
            # a tie is no majority, so it counts against flipping
            wrong_when_flipping = es.binomial_tail_wrong_half(nu, p, True)
            wrong_when_keeping = es.binomial_tail_wrong_half(nu, p, False)
            assert wrong_when_flipping == pytest.approx(
                stats.binom.cdf(nu // 2, nu, p), abs=1e-12)
            assert wrong_when_keeping == pytest.approx(
                stats.binom.sf(nu // 2, nu, p), abs=1e-12)


def test_basic_error_bound_formula():
    scheme = es.InversionScheme(kind="basic", phase_bits=8, vote_bits=0,
                                phase_gap=0.44,
                                guard_fraction=es.GUARD_FRACTION)
    assert es.basic_error_bound(scheme) == pytest.approx(
        math.sqrt(1.0 / (2.0 ** 2 * 0.44)), rel=1e-12)
    boosted = es.InversionScheme.boosted(3.0, 0.5, 8)
    with pytest.raises(ValueError):
        es.basic_error_bound(boosted)


def test_on_grid_eigenphases_invert_exactly():
    m = 32
    phases = np.array([0.0, 2.0 * np.pi * 5 / m, np.pi])
    u = np.diag(np.exp(1j * phases))
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, u)
    report = es.measure_epsilon(op, phases, np.eye(3, dtype=complex),
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


def test_inverter_matrix_is_unitary_and_involutive():
    u = qr_unitary(4, 9)
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    r = frames.inverter_matrix(es.InversionOperator.build(scheme, u))
    eye = np.eye(r.shape[0])
    assert np.linalg.norm(r.conj().T @ r - eye) <= 1e-9
    assert np.linalg.norm(r @ r - eye) <= 1e-9


def test_basic_inverter_matches_the_dense_oracle():
    u = qr_unitary(4, 11)
    scheme = es.InversionScheme(kind="basic", phase_bits=5, vote_bits=0,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    fast = frames.inverter_matrix(es.InversionOperator.build(scheme, u))
    mask = es.gap_window_mask(5, 0.6, es.GUARD_FRACTION)
    slow = oracles.dense_basic_inversion(u, 5, mask)
    assert np.max(np.abs(fast - slow)) <= 1e-9


def test_boosted_inverter_matches_the_dense_oracle():
    u = qr_unitary(2, 13)
    scheme = es.InversionScheme(kind="boosted", phase_bits=5, vote_bits=2,
                                phase_gap=0.6,
                                guard_fraction=es.GUARD_FRACTION)
    fast = frames.inverter_matrix(es.InversionOperator.build(scheme, u))
    gap_mask = es.gap_window_mask(5, 0.6, es.GUARD_FRACTION)
    vote_mask = es.vote_majority_mask(2)
    slow = oracles.dense_boosted_inversion(u, 5, 2, gap_mask, vote_mask)
    assert np.max(np.abs(fast - slow)) <= 1e-9


def test_vote_plane_split_keeps_an_empty_side_finite():
    # a one-hot profile has an off-window part of norm exactly 0; its row
    # stays zero instead of 0/0, and norms times rows rebuild the profile
    off_window = np.array([False, True, True, False])
    profiles = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8j, 0.0]])
    units, norms = _split_estimates(profiles, off_window)
    assert np.all(np.isfinite(units))
    assert np.array_equal(norms, [[1.0, 0.0], [0.6, 0.8]])
    assert np.allclose(np.einsum("ks,ksm->km", norms, units), profiles,
                       rtol=0.0, atol=1e-15)


def test_inverter_restores_the_ancilla_registers(ref12, ref12_operator):
    scheme = es.InversionScheme(kind="boosted", phase_bits=8, vote_bits=4,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, ref12_operator)
    dec = es.eig_unitary(ref12_operator)
    k = int(np.argmin(np.abs(dec.phases)))
    sv = embed_mainspace(op.layout, dec.vectors[:, k], frame=op.frame)
    out = op.apply(sv)
    deviation = float(np.linalg.norm(out.amps + sv.amps))
    out = frames.computational(out)
    assert out.marginal("phase")[0] >= 1.0 - 2.0 * deviation - 1e-12
    assert out.marginal("vote")[0] >= 1.0 - 2.0 * deviation - 1e-12


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


def test_boosted_apply_allocates_twice_the_register(ref12, ref12_operator):
    # the working array, which becomes the output; every other temporary
    # is a main-index slab or less, or the vote-plane rows.  1.17x measured
    # (the bound dates from the computational apply, at 2.0004x); the
    # DENSE_CAP docstring quotes this multiple
    scheme = es.InversionScheme(kind="boosted", phase_bits=10, vote_bits=4,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    op = es.InversionOperator.build(scheme, ref12_operator)
    sv = embed_mainspace(op.layout, es.evolve_to_halfway(ref12).state, frame=op.frame)
    op.apply(sv)    # the vote plane is computed and kept on first use
    tracemalloc.start()
    try:
        op.apply(sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sv.amps.nbytes <= 2.01
