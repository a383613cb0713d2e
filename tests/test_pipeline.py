"""End-to-end runs: amplification, cost accounting, baselines, schedules."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import eigensearch as es
import instances
from eigensearch import phase_estimation


def boosted_for(inst, offset_bits=4):
    return es.InversionScheme.boosted(inst.boost, inst.spec.phase_gap,
                                      offset_bits=offset_bits)


@pytest.fixture(scope="module")
def ref12_basic_run(ref12):
    scheme = es.InversionScheme(kind="basic", phase_bits=8, vote_bits=0,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    return scheme, es.run_full(ref12, scheme)


@pytest.fixture(scope="module")
def ref12_boosted_run(ref12):
    scheme = es.InversionScheme(kind="boosted", phase_bits=10, vote_bits=4,
                                phase_gap=instances.REF12_GAP,
                                guard_fraction=es.GUARD_FRACTION)
    return scheme, es.run_full(ref12, scheme)


def test_amplification_round_count_follows_the_quarter_turn():
    assert es.amplification_round_count(1.0) == 0
    assert es.amplification_round_count(2.0) == 1
    assert es.amplification_round_count(instances.REF12_BOOST) == 2
    assert es.amplification_round_count(5.6204) == 4
    grid = np.linspace(1.01, 8.0, 60)
    counts = [es.amplification_round_count(float(b)) for b in grid]
    assert all(b <= a for a, b in zip(counts[1:], counts))


def test_grover_run_is_exact_and_spends_nothing_on_postprocessing(grover64):
    scheme = es.InversionScheme.basic(1.0, np.pi)
    res = es.run_full(grover64, scheme)
    phi = math.asin(0.125)
    assert res.halfway_steps == 6
    assert res.amplification_rounds == 0
    assert res.success_probability == pytest.approx(
        math.sin(13.0 * phi) ** 2, abs=1e-10)
    assert res.ledger.as_dict() == {
        "ds_applications": 6, "oracle_queries": 6, "controlled_s": 0,
        "i_zero_prime": 0, "hadamards_vote": 0}
    assert res.predicted_error == 0.0
    assert res.ancilla_leakage == 0.0


def test_basic_run_ledger_decomposes_into_the_stage_formulas(ref12,
                                                             ref12_basic_run):
    scheme, res = ref12_basic_run
    m = 2 ** scheme.phase_bits
    n = res.amplification_rounds
    q = res.halfway_steps
    assert n == 2
    assert res.ledger.ds_applications == q
    assert res.ledger.oracle_queries == q + n * (1 + 2 * m)
    assert res.ledger.controlled_s == n * 2 * m
    assert res.ledger.i_zero_prime == 0
    assert res.ledger.hadamards_vote == 0


def test_boosted_run_ledger_decomposes_into_the_stage_formulas(
        ref12, ref12_boosted_run):
    scheme, res = ref12_boosted_run
    m = 2 ** scheme.phase_bits
    nu = scheme.vote_bits
    n = res.amplification_rounds
    q = res.halfway_steps
    assert res.ledger.ds_applications == q
    assert res.ledger.oracle_queries == q + n * (1 + 2 * m * (1 + 2 * nu))
    assert res.ledger.controlled_s == n * 2 * m * (1 + 2 * nu)
    assert res.ledger.i_zero_prime == 2 * nu * n
    assert res.ledger.hadamards_vote == 4 * nu * n


def test_boosted_rounds_run_without_a_basis_change(ref12, monkeypatch):
    # the rounds stay in the estimate frame: the estimate and unestimate of
    # each inversion are its only register kernels, and no Walsh-Hadamard
    # pass runs anywhere in the run (there is no register rotation kernel)
    kernels = ("raw_walsh_hadamard", "raw_controlled_powers", "raw_qft",
               "raw_inverse_qft")
    calls = dict.fromkeys(kernels, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("eigensearch")]
    for name in kernels:
        original = getattr(phase_estimation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    scheme = es.InversionScheme("boosted", 9, 6, instances.REF12_GAP)
    res = es.run_full(ref12, scheme)
    assert res.amplification_rounds == 2
    assert calls == {"raw_walsh_hadamard": 0, "raw_controlled_powers": 4,
                     "raw_qft": 2, "raw_inverse_qft": 2}


def test_boosted_amplification_holds_two_registers(ref12):
    # the state and its successor; every other temporary is a main-index
    # slab, a main x phase table or the vote-plane rows (2 / vote_dim of the
    # register).  2.17x measured, against 3.03x when each round rotated the
    # register into the eigenframe and back; the DENSE_CAP docstring quotes
    # this multiple
    scheme = es.InversionScheme("boosted", 9, 6, instances.REF12_GAP)
    es.run_full(ref12, scheme)
    tracemalloc.start()
    try:
        es.run_full(ref12, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    register = ref12.spec.n * 2 ** (scheme.phase_bits + scheme.vote_bits) * 16
    assert peak / register <= 2.25


def test_run_success_is_high_and_leakage_small(ref12_boosted_run):
    _, res = ref12_boosted_run
    assert res.success_probability >= 0.9
    assert res.ancilla_leakage <= 1e-4
    assert res.main_marginal.sum() == pytest.approx(1.0, abs=1e-10)


def test_exact_inversion_bounds_the_approximate_one(ref12, ref12_basic_run,
                                                    ref12_boosted_run):
    s = es.build_search_operator(ref12)
    dec = es.eig_unitary(s)
    signs = np.where(np.abs(dec.phases) < instances.REF12_GAP, -1.0, 1.0)
    exact_r = (dec.vectors * signs) @ dec.vectors.conj().T
    state = es.evolve_to_halfway(ref12).state.astype(complex)
    for _ in range(es.amplification_round_count(ref12.boost)):
        state[ref12.target_index] *= -1.0
        state = exact_r @ state
    exact_success = float(abs(state[ref12.target_index]) ** 2)

    for scheme, res in (ref12_basic_run, ref12_boosted_run):
        assert exact_success >= res.success_probability
        # degradation is at most linear in the rounds taken
        slack = 4.0 * res.amplification_rounds * res.predicted_error
        assert exact_success - res.success_probability <= slack


def test_classical_baseline_matches_the_geometric_expectation(ref12):
    base = es.classical_baseline(ref12, trials=400, seed=7)
    p = base.target_probability
    se = math.sqrt((1.0 - p) / p ** 2 / base.trials)
    assert abs(base.mean_repetitions - base.expected_repetitions) <= 4.0 * se
    assert base.expected_repetitions == pytest.approx(1.0 / p, rel=1e-12)
    assert base.mean_queries == pytest.approx(
        base.mean_repetitions * base.halfway_steps, rel=1e-12)
    assert abs(p * ref12.boost ** 2 - 1.0) <= 0.07


def test_classical_baseline_requires_enough_trials(ref12):
    with pytest.raises(ValueError):
        es.classical_baseline(ref12, trials=50)


def test_ledger_merge_adds_fieldwise():
    a = es.QueryLedger(1, 2, 3, 4, 5)
    b = es.QueryLedger(10, 20, 30, 40, 50)
    a.merge(b)
    assert a.as_dict() == {"ds_applications": 11, "oracle_queries": 22,
                           "controlled_s": 33, "i_zero_prime": 44,
                           "hadamards_vote": 55}


def test_schedule_recovers_a_hidden_gap_within_budget():
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)
    res = es.run_schedule(inst, instances.SCHEDULE_GUESS,
                          instances.SCHEDULE_DRAW_SEED)
    assert res.succeeded
    assert res.rounds_used == instances.SCHEDULE_ROUNDS
    assert res.budget == instances.SCHEDULE_BUDGET
    assert res.rounds_used <= res.budget
    assert res.records[-1].verified
    assert all(not r.verified for r in res.records[:-1])
    assert res.theta_guesses[0] == instances.SCHEDULE_GUESS
    # guesses shrink geometrically
    ratios = np.diff(np.log(res.theta_guesses))
    assert np.allclose(ratios, ratios[0])

    again = es.run_schedule(inst, instances.SCHEDULE_GUESS,
                            instances.SCHEDULE_DRAW_SEED)
    assert again.rounds_used == res.rounds_used
    assert [r.drawn_index for r in again.records] \
        == [r.drawn_index for r in res.records]


def test_schedule_with_the_true_gap_verifies_immediately():
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)
    res = es.run_schedule(inst, 0.70, instances.SCHEDULE_DRAW_SEED)
    assert res.succeeded
    assert res.rounds_used == 1
    assert res.final is not None


def test_schedule_spends_a_round_on_an_unusable_guess():
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)
    res = es.run_schedule(inst, 3.5, 0, r_max=3)
    assert not res.succeeded
    assert len(res.records) == 3
    assert res.records[0].ran is False
    assert res.records[0].drawn_index == -1
    with pytest.raises(ValueError):
        es.run_schedule(inst, -1.0, 0)


def test_unusable_guesses_raise_the_named_error():
    with pytest.raises(es.GapGuessTooCoarse):
        es.InversionScheme.basic(2.0, 3.5)
    with pytest.raises(es.GapGuessTooCoarse):
        es.gap_window_mask(2, np.pi, es.GUARD_FRACTION)


def test_schedule_lets_a_broken_inversion_propagate(monkeypatch):
    # a kernel that breaks the state norm is a fault, not a coarse guess
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)

    def drifting_apply(self, state, ledger=None):
        return es.StateVector(1.01 * state.amps, state.layout)

    monkeypatch.setattr(es.InversionOperator, "apply", drifting_apply)
    with pytest.raises(ValueError, match="state norm") as info:
        es.run_schedule(inst, 0.70, instances.SCHEDULE_DRAW_SEED)
    assert not isinstance(info.value, es.GapGuessTooCoarse)


def test_csv_row_matches_the_header(ref12_basic_run):
    _, res = ref12_basic_run
    header_fields = es.CSV_HEADER.split(",")
    row_fields = es.csv_row(res).split(",")
    assert len(row_fields) == len(header_fields)
    assert row_fields[0] == "sym-n12-seed68-t4"
    text = es.results_to_csv([res, res])
    lines = text.strip().split("\n")
    assert lines[0] == es.CSV_HEADER
    assert len(lines) == 3


def test_complexity_report_validates_its_inputs(ref12_basic_run):
    _, res = ref12_basic_run
    with pytest.raises(ValueError):
        es.complexity_report([res, res])
    with pytest.raises(ValueError):
        es.complexity_report([res, res, res], baselines=[])


def test_halving_the_overlap_doubles_the_halfway_steps():
    results = []
    for seed, target in instances.HALVING_CASES:
        inst = instances.symmetric_instance(
            instances.HALVING_N, instances.HALVING_PAIRS, seed, target)
        results.append(es.run_full(inst, boosted_for(inst)))
    report = es.complexity_report(results)
    steps = [row["q_m"] for row in report["rows"]]
    assert tuple(steps) == instances.HALVING_STEPS
    boosts = [row["B"] for row in report["rows"]]
    assert max(boosts) / min(boosts) <= 1.01
    for a, b in zip(steps, steps[1:]):
        assert abs(b / a - 2.0) <= 0.15 * 2.0


def test_doubling_the_boost_scales_controlled_cost_as_boost_log_boost():
    lo = instances.symmetric_instance(
        instances.DOUBLE_N, instances.DOUBLE_PAIRS_LO, instances.DOUBLE_SEED,
        instances.DOUBLE_TARGET, instances.DOUBLE_GAP)
    hi = instances.symmetric_instance(
        instances.DOUBLE_N, instances.DOUBLE_PAIRS_HI, instances.DOUBLE_SEED,
        instances.DOUBLE_TARGET, instances.DOUBLE_GAP)
    assert lo.overlap == hi.overlap
    res_lo = es.run_full(lo, boosted_for(lo))
    res_hi = es.run_full(hi, boosted_for(hi))
    measured = res_hi.ledger.controlled_s / res_lo.ledger.controlled_s
    want = (hi.boost * math.log(hi.boost)) / (lo.boost * math.log(lo.boost))
    assert abs(measured - want) / want <= 0.30


def test_baseline_advantage_grows_with_the_boost_squared():
    results, baselines = [], []
    for fam in (instances.FAM_A, instances.FAM_B, instances.FAM_C):
        inst = instances.symmetric_instance(
            instances.TRIO_N, fam, instances.TREND_SEED,
            instances.TREND_TARGET)
        results.append(es.run_full(inst, boosted_for(inst)))
        baselines.append(es.classical_baseline(
            inst, instances.BASELINE_TRIALS,
            es.split_seed(instances.BASELINE_SEED_ROOT,
                          instances.TREND_TARGET)))
    assert results[0].overlap == results[1].overlap == results[2].overlap
    report = es.complexity_report(results, baselines)
    ratios = [row["baseline_over_post"] for row in report["rows"]]
    assert ratios == sorted(ratios)
    slope = report["fits"]["baseline_ratio_vs_boost"]
    assert 1.5 <= slope <= 2.5


def test_budget_constants_compare_measured_cost_to_the_model(
        ref12, ref12_boosted_run):
    _, res = ref12_boosted_run
    consts = es.budget_constants(res)
    gap = res.scheme.phase_gap
    model = res.boost / res.overlap \
        + res.boost * math.log(res.boost) / gap
    assert consts["post"] == pytest.approx(
        res.ledger.oracle_queries / model, rel=1e-12)
    assert consts["classical"] > 0.0
