"""End-to-end acceptance runs.

Each test exercises one headline property at its stated tolerance and
reports a single PASS/FAIL line through the terminal summary.
"""

import math

import numpy as np
import pytest

import eigensearch as es
import frames
import instances
import oracles
from eigensearch.numerics import make_rng
from eigensearch.phase_estimation import RegisterLayout, power_table, raw_estimate_forward


def test_criterion_01_plain_search_is_free_of_postprocessing(grover64,
                                                             acceptance_log):
    scheme = es.InversionScheme.basic(1.0, np.pi)
    res = es.run_full(grover64, scheme)
    ok = (grover64.boost == 1.0
          and res.halfway_steps == 6
          and res.success_probability >= 0.99
          and res.ledger.controlled_s == 0
          and res.ledger.i_zero_prime == 0
          and res.ledger.hadamards_vote == 0
          and res.ledger.oracle_queries == res.halfway_steps)
    acceptance_log(
        "criterion-01 unit-boost search",
        ok,
        f"B={grover64.boost} q_m={res.halfway_steps} "
        f"success={res.success_probability:.4f} "
        f"postprocessing_queries={res.ledger.controlled_s}")


def test_criterion_02_eigenphase_predictions_and_secular_roots(
        acceptance_log):
    worst_rel = 0.0
    worst_residual = 0.0
    worst_pinned = 0.0
    count = 0
    for seed, target in instances.PINNED_CASES:
        inst = instances.symmetric_instance(
            instances.PINNED_N, instances.PINNED_PAIRS, seed, target)
        gap = inst.spec.phase_gap
        assert inst.overlap / gap <= 0.05
        count += 1

        pair = es.find_relevant_pair(inst)
        budget = 5.0 * inst.overlap / gap
        for measured, predicted in (
                (pair.phase_plus, es.predicted_pair_phases(inst)[0]),
                (pair.phase_minus, es.predicted_pair_phases(inst)[1])):
            worst_rel = max(worst_rel,
                            abs(measured - predicted) / abs(measured) / budget)

        s = es.build_search_operator(inst)
        dec = es.eig_unitary(s)
        t_vec = np.zeros(inst.spec.n)
        t_vec[target] = 1.0
        diffusion_phases = inst.spec.eigenphases
        for k, lam in enumerate(dec.phases):
            pole_distance = np.min(np.abs([
                oracles.phase_distance(lam, p) for p in diffusion_phases]))
            if pole_distance < 1e-9:
                # eigenstates locked to a degenerate diffusion phase carry
                # no target weight, so the secular sum has no root there
                worst_pinned = max(worst_pinned,
                                   abs(np.vdot(t_vec, dec.vectors[:, k])))
            else:
                worst_residual = max(worst_residual,
                                     abs(es.secular_residual(inst, float(lam))))
    ok = (count >= 20 and worst_rel <= 1.0
          and worst_residual < 1e-6 and worst_pinned < 1e-8)
    acceptance_log(
        "criterion-02 eigenphase pair and secular roots",
        ok,
        f"{count} instances, rel-err/budget={worst_rel:.3f}, "
        f"residual={worst_residual:.2e}, pinned overlap={worst_pinned:.2e}")


def test_criterion_03_halfway_overlap_is_inverse_boost(acceptance_log):
    worst = 0.0
    boosts = []
    for fam, seed, target in instances.MIX_CASES:
        inst = instances.symmetric_instance(instances.MIX_N, fam, seed,
                                            target)
        assert inst.overlap / inst.spec.phase_gap <= 0.02
        boosts.append(inst.boost)
        w = abs(es.evolve_to_halfway(inst).state[target])
        worst = max(worst, abs(w * inst.boost - 1.0))
    ok = (len(boosts) >= 18 and min(boosts) >= 2.0 and max(boosts) <= 4.0
          and worst <= 0.03)
    acceptance_log(
        "criterion-03 halfway-state target amplitude",
        ok,
        f"{len(boosts)} instances, B in [{min(boosts):.2f}, {max(boosts):.2f}], "
        f"max |B<t|w> - 1| = {worst:.4f}")


def test_criterion_04_peak_mass_bound_holds_everywhere(acceptance_log):
    rng = make_rng(41)
    mu = 10
    failures = 0
    margin = 1.0
    for _ in range(1000):
        lam = float(rng.uniform(-np.pi, np.pi))
        c = int(rng.integers(2, 17))
        mass = oracles.peak_window_mass(mu, lam, c)
        bound = 1.0 - 1.0 / (2.0 * (c - 1))
        if mass < bound:
            failures += 1
        margin = min(margin, mass - bound)
    ok = failures == 0
    acceptance_log(
        "criterion-04 estimate peak concentration",
        ok,
        f"1000 samples at mu={mu}, failures={failures}, "
        f"smallest margin={margin:.2e}")


def test_criterion_05_basic_inversion_error_scaling(ref12, ref12_operator,
                                                    acceptance_log):
    mus = (8, 10, 12, 14)
    eps = []
    bound_ok = True
    for mu in mus:
        scheme = es.InversionScheme(kind="basic", phase_bits=mu, vote_bits=0,
                                    phase_gap=instances.REF12_GAP,
                                    guard_fraction=es.GUARD_FRACTION)
        op = es.InversionOperator.build(scheme, ref12_operator)
        report = es.instance_epsilon_report(op, ref12, ref12_operator)
        eps.append(report.epsilon_max)
        bound = math.sqrt(1.0 / (2.0 ** (mu - 6) * instances.REF12_GAP))
        bound_ok = bound_ok and report.epsilon_max <= bound
    slope = float(np.polyfit(mus, np.log(eps), 1)[0])
    target_slope = -math.log(2.0) / 2.0
    slope_dev = abs(slope - target_slope) / abs(target_slope)
    ok = bound_ok and slope_dev <= 0.20
    acceptance_log(
        "criterion-05 basic error halves per two bits",
        ok,
        f"eps={['%.4f' % e for e in eps]}, slope={slope:.4f} "
        f"(target {target_slope:.4f}, dev {slope_dev:.1%})")


def test_criterion_06_vote_boosting_crushes_the_error(ref12, ref12_operator,
                                                      acceptance_log):
    nus = (2, 4, 6, 8)
    auto = es.InversionScheme.boosted(ref12.boost, instances.REF12_GAP,
                                      offset_bits=8)
    assert auto.phase_bits == 10
    assert auto.vote_bits == 6

    eps = []
    pred_gap = 0.0
    for nu in nus:
        scheme = es.InversionScheme(kind="boosted", phase_bits=10,
                                    vote_bits=nu,
                                    phase_gap=instances.REF12_GAP,
                                    guard_fraction=es.GUARD_FRACTION)
        op = es.InversionOperator.build(scheme, ref12_operator)
        report = es.instance_epsilon_report(op, ref12, ref12_operator)
        eps.append(report.epsilon_max)
        pred_gap = max(pred_gap,
                       float(np.max(np.abs(report.measured
                                           - report.predicted))))
    monotone = all(b < a for a, b in zip(eps, eps[1:]))
    scaled = ref12.boost * eps[nus.index(auto.vote_bits)]
    ok = monotone and pred_gap <= 1e-6 and scaled <= 0.2
    acceptance_log(
        "criterion-06 vote boosting",
        ok,
        f"eps={['%.2e' % e for e in eps]} monotone={monotone}, "
        f"binomial-tail gap={pred_gap:.2e}, B*eps at nu={auto.vote_bits}: "
        f"{scaled:.2e}")


def test_criterion_07_boosted_pipeline_succeeds_at_budgeted_cost(
        acceptance_log):
    details = []
    ok = True
    for seed, target in instances.HIGAIN_CASES:
        inst = instances.symmetric_instance(
            instances.HIGAIN_N, instances.HIGAIN_PAIRS, seed, target,
            instances.HIGAIN_GAP)
        w_ledger = es.QueryLedger()
        es.evolve_to_halfway(inst, ledger=w_ledger)
        scheme = es.InversionScheme.boosted(inst.boost, instances.HIGAIN_GAP,
                                            offset_bits=8)
        res = es.run_full(inst, scheme)
        budget = (res.amplification_rounds * (1 + scheme.vote_bits)
                  * 2 ** (scheme.phase_bits + 1))
        ratio = res.ledger.controlled_s / budget
        ok = ok and (res.success_probability >= 0.9
                     and ratio <= 2.0
                     and w_ledger.controlled_s == 0)
        details.append(
            f"{inst.instance_id}: success={res.success_probability:.4f} "
            f"controlled/budget={ratio:.3f}")
    acceptance_log("criterion-07 boosted end-to-end runs", ok,
                   "; ".join(details))


def test_criterion_08_postprocessing_beats_the_classical_baseline(
        acceptance_log):
    details = []
    ok = True
    for fam, seed, target in instances.BASELINE_TRIO:
        inst = instances.symmetric_instance(instances.TRIO_N, fam, seed,
                                            target)
        assert inst.boost >= 2.0
        scheme = es.InversionScheme.boosted(inst.boost, inst.spec.phase_gap,
                                            offset_bits=4)
        res = es.run_full(inst, scheme)
        base = es.classical_baseline(
            inst, instances.BASELINE_TRIALS,
            es.split_seed(instances.BASELINE_SEED_ROOT, target))
        rep_dev = abs(base.mean_repetitions - base.expected_repetitions) \
            / base.expected_repetitions
        ok = ok and rep_dev <= 0.25 \
            and res.ledger.oracle_queries < base.mean_queries
        details.append(
            f"B={inst.boost:.2f}: reps dev={rep_dev:.3f}, "
            f"post={res.ledger.oracle_queries} < base={base.mean_queries:.0f}")
    acceptance_log("criterion-08 query advantage over repetition", ok,
                   "; ".join(details))


def test_criterion_09_gap_schedule_verifies_within_budget(acceptance_log):
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)
    first = es.run_schedule(inst, instances.SCHEDULE_GUESS,
                            instances.SCHEDULE_DRAW_SEED)
    second = es.run_schedule(inst, instances.SCHEDULE_GUESS,
                             instances.SCHEDULE_DRAW_SEED)
    deterministic = (
        first.rounds_used == second.rounds_used
        and [r.drawn_index for r in first.records]
        == [r.drawn_index for r in second.records])
    ok = (first.succeeded
          and first.rounds_used <= first.budget
          and first.records[-1].verified
          and deterministic)
    acceptance_log(
        "criterion-09 hidden-gap retry schedule",
        ok,
        f"guess {instances.SCHEDULE_GUESS} over true gap "
        f"{inst.spec.phase_gap}: verified on round {first.rounds_used} "
        f"of budget {first.budget}, deterministic={deterministic}")


def test_criterion_10_fast_kernels_match_dense_oracles(criterion10_boosted,
                                                        acceptance_log):
    # basic inverter, dense versus matrix-free
    u4 = instances.haar_unitary(4, 21)
    basic = es.InversionScheme(kind="basic", phase_bits=6, vote_bits=0,
                               phase_gap=0.6,
                               guard_fraction=es.GUARD_FRACTION)
    fast = frames.inverter_matrix(es.InversionOperator.build(basic, u4))
    slow = oracles.dense_basic_inversion(
        u4, 6, es.gap_window_mask(6, 0.6, es.GUARD_FRACTION))
    basic_gap = float(np.max(np.abs(fast - slow)))

    # boosted inverter at the largest allowed register sizes, (6, 4) on a
    # Haar unitary, on the Dicke span of the vote register, which holds
    # every state the package makes; the dense oracle keeps that span
    # (test_properties checks that it commutes with every vote-bit swap)
    _, op_b, oracle_b = criterion10_boosted
    fast_b = frames.inverter_matrix(op_b)
    slow_b = frames.on_dicke_span(oracle_b, op_b.layout)
    boosted_gap = float(np.max(np.abs(fast_b - slow_b)))

    # register amplitude profile against the direct geometric sum
    rng = make_rng(23)
    amp_gap = 0.0
    for lam in rng.uniform(-np.pi, np.pi, size=200):
        amp_gap = max(amp_gap, float(np.max(np.abs(
            es.estimate_amplitudes(10, float(lam))
            - oracles.brute_estimate_amplitudes(10, float(lam))))))

    # the estimate circuit against the block-matrix controlled powers; it
    # runs in the estimate frame, and its main axis is taken back out
    layout = RegisterLayout(4, 6, 0, es.DENSE_CAP)
    dense_forward = oracles.dense_estimate_forward(u4, 6)
    dec4 = es.eig_unitary(u4, es.TOL.system_unitarity)
    ctrl_gap = 0.0
    for k in range(5):
        vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        vec /= np.linalg.norm(vec)
        # the kernel takes the phase axis last
        out = raw_estimate_forward(
            frames.to_frame(vec.reshape(layout.shape), dec4).swapaxes(1, 2),
            power_table(dec4.phases, layout.phase_dim))
        out = frames.from_frame(out.swapaxes(1, 2), dec4, axes=("main",)).reshape(-1)
        ctrl_gap = max(ctrl_gap, float(np.max(np.abs(out - dense_forward @ vec))))

    ok = (basic_gap <= 1e-9 and boosted_gap <= 1e-9
          and amp_gap <= 1e-10 and ctrl_gap <= 1e-9)
    acceptance_log(
        "criterion-10 dense-oracle cross checks",
        ok,
        f"basic={basic_gap:.2e}, boosted={boosted_gap:.2e}, "
        f"amplitudes={amp_gap:.2e}, controlled powers={ctrl_gap:.2e}")
