"""Search operator spectrum: the near-zero eigenpair and the halfway state."""

import numpy as np
import pytest

import eigensearch as es
import instances
import oracles
from eigensearch import search_core, spectra
from eigensearch.numerics import AssumptionViolation
from eigensearch.search_core import (
    mixing_angle,
    predicted_pair_phases,
    reconstruct_source,
    search_decomposition,
    search_operator,
    secular_pair,
    secular_residual,
)
from eigensearch.spectra import assemble_diffusion, diffusion_operator


def test_grover_pair_phase_matches_the_closed_form(grover64):
    pair = es.find_relevant_pair(grover64)
    exact = 2.0 * np.arcsin(0.125)
    assert pair.phase_plus == pytest.approx(exact, abs=1e-10)
    assert pair.phase_minus == pytest.approx(-exact, abs=1e-10)
    # with a vanishing first moment the prediction reduces to 2 alpha / B
    lo, hi = predicted_pair_phases(grover64)
    assert lo == pytest.approx(0.25, abs=1e-12)
    assert hi == pytest.approx(-0.25, abs=1e-12)
    rel = abs(pair.phase_plus - lo) / pair.phase_plus
    assert rel <= 5.0 * grover64.overlap / grover64.spec.phase_gap


def test_gap_edge_phases_within_roundoff_stay_outside_the_gap(monkeypatch):
    # a Grover spec declares the gap pi, where its (n-2)-fold eigenvalue -1
    # sits; an eigensolver that rotates that eigenspace returns some of its
    # phases a hair below pi, and they must not count as inside the gap.  The
    # instance is fresh, so its one decomposition comes from the patched
    # solver.
    exact = search_core.eig_unitary

    def nudged(u, tol=es.TOL.unitarity):
        dec = exact(u, tol)
        phases = np.where(dec.phases > np.pi - 1e-9, np.pi - 4.4e-16, dec.phases)
        return es.EigenDecomposition(phases=phases, vectors=dec.vectors)

    monkeypatch.setattr(search_core, "eig_unitary", nudged)
    inst = instances.grover_instance()
    pair = es.find_relevant_pair(inst)
    phases = search_decomposition(inst).phases
    assert np.sum(phases == np.pi - 4.4e-16) == inst.spec.n - 2
    assert pair.phase_plus == pytest.approx(2.0 * np.arcsin(0.125), abs=1e-10)
    assert pair.phase_minus == pytest.approx(-2.0 * np.arcsin(0.125), abs=1e-10)


def test_grover4_search_operator_has_period_six():
    inst = instances.grover_instance(4, 2)
    s = es.build_search_operator(inst)
    assert np.linalg.norm(oracles.unitary_power(s, 6) - np.eye(4)) <= 1e-9
    # the gap pair sits at +-pi/3; the rest of the spectrum is pinned at -1
    phases = es.eig_unitary(s).phases
    nearest = float(np.min(np.abs(phases[np.abs(phases) < 2.0])))
    assert nearest == pytest.approx(np.pi / 3.0, abs=1e-10)


def test_search_operator_is_the_diffusion_times_target_flip(ref12):
    s = es.build_search_operator(ref12)
    d = assemble_diffusion(ref12.spec)
    flip = np.eye(ref12.spec.n)
    flip[ref12.target_index, ref12.target_index] = -1.0
    assert np.linalg.norm(s - d @ flip) <= 1e-12


def test_secular_roots_agree_with_diagonalization(ref12):
    pair = es.find_relevant_pair(ref12)
    root_plus, root_minus = secular_pair(ref12)
    assert abs(pair.phase_plus - root_plus) <= es.TOL.secular_agreement
    assert abs(pair.phase_minus - root_minus) <= es.TOL.secular_agreement
    assert pair.secular_plus == root_plus
    assert pair.secular_minus == root_minus


@pytest.mark.parametrize("shift, agrees", [(1e-9, True), (1e-7, False)])
def test_root_finding_must_agree_with_diagonalization(ref12, monkeypatch, shift, agrees):
    # both secular roots moved by a shift below TOL.secular_agreement pass
    # the cross-check, and by one above it fail it
    exact = search_core.secular_pair
    monkeypatch.setattr(search_core, "secular_pair",
                        lambda inst: tuple(root + shift for root in exact(inst)))
    if agrees:
        assert es.find_relevant_pair(ref12).secular_plus == exact(ref12)[0] + shift
    else:
        with pytest.raises(AssumptionViolation, match="disagreement"):
            es.find_relevant_pair(ref12)


def test_secular_residual_vanishes_at_roots_only(ref12):
    # the residual is the signed secular-function value
    pair = es.find_relevant_pair(ref12)
    at_root = abs(secular_residual(ref12, pair.phase_plus))
    off_root = abs(secular_residual(ref12, 0.2))
    assert at_root < 1e-8
    assert off_root > 1e-3


def test_secular_residual_refuses_pole_evaluation(ref12):
    # the pole at 0.55 is found a turn away too: distance is on the circle
    for lam in (0.55, 0.55 + 2.0 * np.pi, 0.55 - 2.0 * np.pi):
        with pytest.raises(ValueError):
            secular_residual(ref12, lam)


def test_secular_roots_take_few_sum_evaluations(call_counter, monkeypatch):
    # the spectral_scan workload's eight n=256 targets (seed 5, overlaps
    # nearest a sixtieth of the gap): safeguarded Newton evaluates the sum
    # 11 times a root, the bracket's two ends included, where bisection
    # took 41
    gap = 0.45
    spec = es.build_symmetric_spec(256, tuple(np.linspace(0.5, 1.5, 127)), 5, 0, gap)
    overlaps = np.abs(spec.eigenbasis[:, spec.source_index])
    targets = sorted((t for t in es.find_targets(spec) if t != spec.source_index),
                     key=lambda t: (abs(overlaps[t] - gap / 60.0), t))[:8]
    sums = call_counter(search_core, "_secular_sum")
    root, per_root = search_core._secular_root, []

    def counted_root(*args):
        before = sums[0]
        lam = root(*args)
        per_root.append(sums[0] - before)
        return lam

    monkeypatch.setattr(search_core, "_secular_root", counted_root)
    for t in targets:
        secular_pair(es.SearchInstance.build(spec, t))
    assert len(per_root) == 16 and max(per_root) <= 16


def test_predicted_phases_within_weak_coupling_budget(ref12):
    pair = es.find_relevant_pair(ref12)
    lo, hi = predicted_pair_phases(ref12)
    budget = 5.0 * ref12.overlap / ref12.spec.phase_gap
    assert abs(pair.phase_plus - lo) / abs(pair.phase_plus) <= budget
    assert abs(pair.phase_minus - hi) / abs(pair.phase_minus) <= budget


def test_mixing_angle_is_forty_five_degrees_when_first_moment_vanishes(ref12):
    eta = mixing_angle(ref12)
    assert eta == pytest.approx(np.pi / 4.0, abs=1e-10)
    pair = es.find_relevant_pair(ref12)
    assert pair.mixing == eta


def test_pair_detection_requires_eigenphases_inside_the_declared_gap():
    inst = instances.symmetric_instance(
        instances.REF12_N, instances.REF12_PAIRS, instances.REF12_SEED,
        instances.REF12_TARGET, declared_gap=1e-06)
    with pytest.raises(AssumptionViolation):
        es.find_relevant_pair(inst)


def test_reconstruct_source_is_exact_for_grover(grover64):
    pair = es.find_relevant_pair(grover64)
    rebuilt = reconstruct_source(pair)
    source = grover64.spec.eigenbasis[:, grover64.spec.source_index]
    # compare up to a global phase
    overlap = abs(np.vdot(source, rebuilt))
    assert overlap >= 1.0 - 1e-10


def test_reconstruct_source_misses_only_the_leaked_weight(ref12):
    pair = es.find_relevant_pair(ref12)
    rebuilt = reconstruct_source(pair)
    source = ref12.spec.eigenbasis[:, ref12.spec.source_index]
    carried = abs(np.vdot(source, pair.state_plus)) ** 2 \
        + abs(np.vdot(source, pair.state_minus)) ** 2
    deficit = max(0.0, 1.0 - carried)
    overlap = abs(np.vdot(source, rebuilt))
    assert np.linalg.norm(rebuilt) <= 1.0 + 1e-12
    assert overlap >= 1.0 - deficit - 1e-9
    assert overlap >= 0.999


def test_halfway_evolution_charges_one_query_per_step(ref12):
    ledger = es.QueryLedger()
    hw = es.evolve_to_halfway(ref12, ledger=ledger)
    assert hw.steps == es.halfway_step_count(ref12)
    assert ledger.ds_applications == hw.steps
    assert ledger.oracle_queries == hw.steps
    assert ledger.controlled_s == 0
    assert np.linalg.norm(hw.state) == pytest.approx(1.0, abs=1e-10)


def test_halfway_target_amplitude_is_about_inverse_boost(ref12):
    hw = es.evolve_to_halfway(ref12)
    amp = abs(hw.state[ref12.target_index])
    assert abs(amp * ref12.boost - 1.0) <= 0.03
    pair = es.find_relevant_pair(ref12)
    analytic = (pair.state_plus + pair.state_minus) / np.sqrt(2.0)
    assert abs(analytic[ref12.target_index]) * ref12.boost \
        == pytest.approx(1.0, abs=0.03)


def test_grover_halfway_step_count_is_six(grover64):
    assert es.halfway_step_count(grover64) == 6
    hw = es.evolve_to_halfway(grover64)
    phi = np.arcsin(0.125)
    assert abs(hw.state[grover64.target_index]) \
        == pytest.approx(np.sin(13.0 * phi), abs=1e-10)


def _scan_instance():
    return instances.symmetric_instance(
        instances.SCAN_N, instances.SCAN_PAIRS, instances.SCAN_SEED,
        instances.SCAN_TARGET, instances.SCAN_GAP)


@pytest.mark.parametrize("make", [
    instances.ref12_instance,
    instances.grover_instance,
    lambda: instances.symmetric_instance(instances.HIGAIN_N, instances.HIGAIN_PAIRS,
                                         *instances.HIGAIN_CASES[0],
                                         instances.HIGAIN_GAP),
    _scan_instance,
], ids=["ref12", "grover64", "criterion07-n48", "scan-n256"])
def test_spectral_halfway_matches_the_matvec_loop(make):
    inst = make()
    steps = es.halfway_step_count(inst)
    want = oracles.halfway_by_matvecs(
        es.build_search_operator(inst), inst.source, steps)
    ledger = es.QueryLedger()
    hw = es.evolve_to_halfway(inst, ledger)
    assert hw.steps == steps
    assert ledger == es.QueryLedger(ds_applications=steps, oracle_queries=steps)
    assert np.max(np.abs(hw.state - want)) <= 1e-10


def test_an_instance_is_diagonalized_once_and_its_operator_is_read_only():
    inst = instances.ref12_instance()
    operator = search_operator(inst)
    dec = search_decomposition(inst)
    es.find_relevant_pair(inst)
    es.evolve_to_halfway(inst)
    assert search_operator(inst) is operator
    assert search_decomposition(inst) is dec
    assert np.array_equal(operator, es.build_search_operator(inst))
    with pytest.raises(ValueError):
        operator[0, 0] = 0.0
    with pytest.raises(ValueError):
        dec.vectors[0, 0] = 0.0
    # a fresh build is the caller's own array
    fresh = es.build_search_operator(inst)
    fresh[0, 0] = 0.0
    assert operator[0, 0] != 0.0


def test_the_scan_targets_share_one_real_diffusion_operator(call_counter):
    # the benchmark's n=256 scan: the eight targets nearest a sixtieth of the
    # gap, each built, paired and evolved to halfway on one spec
    assemblies = call_counter(spectra, "assemble_diffusion")
    spec = es.build_symmetric_spec(instances.SCAN_N, instances.SCAN_PAIRS,
                                   instances.SCAN_SEED, 0, instances.SCAN_GAP)
    overlaps = np.abs(spec.eigenbasis[:, spec.source_index])
    targets = sorted((t for t in es.find_targets(spec) if t != spec.source_index),
                     key=lambda t: (abs(overlaps[t] - instances.SCAN_GAP / 60.0), t))[:8]
    assert targets[0] == instances.SCAN_TARGET
    for t in targets:
        inst = es.SearchInstance.build(spec, t)
        es.find_relevant_pair(inst)
        es.evolve_to_halfway(inst)
        assert inst.spec is spec
    assert assemblies == [1]
    d = diffusion_operator(spec)
    assert d.dtype == np.float64
    with pytest.raises(ValueError):
        d[0, 0] = 0.0
    flipped = np.array(d)
    flipped[:, targets[-1]] *= -1.0
    assert np.array_equal(search_operator(inst), flipped)
