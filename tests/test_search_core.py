"""Search operator spectrum: the near-zero eigenpair and the halfway state."""

import numpy as np
import pytest

import eigensearch as es
import instances
import oracles
from eigensearch import search_core
from eigensearch.numerics import AssumptionViolation


def test_grover_pair_phase_matches_the_closed_form(grover64):
    pair = es.find_relevant_pair(grover64)
    exact = 2.0 * np.arcsin(0.125)
    assert pair.phase_plus == pytest.approx(exact, abs=1e-10)
    assert pair.phase_minus == pytest.approx(-exact, abs=1e-10)
    # with a vanishing first moment the prediction reduces to 2 alpha / B
    lo, hi = es.predicted_pair_phases(grover64)
    assert lo == pytest.approx(0.25, abs=1e-12)
    assert hi == pytest.approx(-0.25, abs=1e-12)
    rel = abs(pair.phase_plus - lo) / pair.phase_plus
    assert rel <= 5.0 * grover64.overlap / grover64.spec.phase_gap


def test_gap_edge_phases_within_roundoff_stay_outside_the_gap(grover64,
                                                              monkeypatch):
    # a Grover spec declares the gap pi, where its (n-2)-fold eigenvalue -1
    # sits; an eigensolver that rotates that eigenspace returns some of its
    # phases a hair below pi, and they must not count as inside the gap
    exact = search_core.eig_unitary

    def nudged(u, tol=es.TOL.unitarity):
        dec = exact(u, tol)
        phases = np.where(dec.phases > np.pi - 1e-9, np.pi - 4.4e-16, dec.phases)
        return es.EigenDecomposition(phases=phases, vectors=dec.vectors)

    monkeypatch.setattr(search_core, "eig_unitary", nudged)
    phases = search_core.eig_unitary(es.build_search_operator(grover64)).phases
    assert np.sum(phases == np.pi - 4.4e-16) == grover64.spec.n - 2
    pair = es.find_relevant_pair(grover64)
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
    d = es.assemble_diffusion(ref12.spec)
    flip = np.eye(ref12.spec.n)
    flip[ref12.target_index, ref12.target_index] = -1.0
    assert np.linalg.norm(s - d @ flip) <= 1e-12


def test_secular_roots_agree_with_diagonalization(ref12):
    pair = es.find_relevant_pair(ref12)
    root_plus, root_minus = es.secular_pair(ref12)
    assert abs(pair.phase_plus - root_plus) <= es.TOL.secular_agreement
    assert abs(pair.phase_minus - root_minus) <= es.TOL.secular_agreement
    assert pair.secular_plus == root_plus
    assert pair.secular_minus == root_minus


def test_secular_residual_vanishes_at_roots_only(ref12):
    # the residual is the signed secular-function value
    pair = es.find_relevant_pair(ref12)
    at_root = abs(es.secular_residual(ref12, pair.phase_plus))
    off_root = abs(es.secular_residual(ref12, 0.2))
    assert at_root < 1e-8
    assert off_root > 1e-3


def test_secular_residual_refuses_pole_evaluation(ref12):
    with pytest.raises(ValueError):
        es.secular_residual(ref12, 0.55)


def test_predicted_phases_within_weak_coupling_budget(ref12):
    pair = es.find_relevant_pair(ref12)
    lo, hi = es.predicted_pair_phases(ref12)
    budget = 5.0 * ref12.overlap / ref12.spec.phase_gap
    assert abs(pair.phase_plus - lo) / abs(pair.phase_plus) <= budget
    assert abs(pair.phase_minus - hi) / abs(pair.phase_minus) <= budget


def test_mixing_angle_is_forty_five_degrees_when_first_moment_vanishes(ref12):
    eta = es.mixing_angle(ref12)
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
    rebuilt = es.reconstruct_source(pair)
    source = grover64.spec.eigenbasis[:, grover64.spec.source_index]
    # compare up to a global phase
    overlap = abs(np.vdot(source, rebuilt))
    assert overlap >= 1.0 - 1e-10


def test_reconstruct_source_misses_only_the_leaked_weight(ref12):
    pair = es.find_relevant_pair(ref12)
    rebuilt = es.reconstruct_source(pair)
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
    analytic = es.halfway_state(pair)
    assert abs(analytic[ref12.target_index]) * ref12.boost \
        == pytest.approx(1.0, abs=0.03)


def test_grover_halfway_step_count_is_six(grover64):
    assert es.halfway_step_count(grover64) == 6
    hw = es.evolve_to_halfway(grover64)
    phi = np.arcsin(0.125)
    assert abs(hw.state[grover64.target_index]) \
        == pytest.approx(np.sin(13.0 * phi), abs=1e-10)
