"""End-to-end runs: amplification, cost accounting, baselines, schedules."""

import math
import tracemalloc

import numpy as np
import pytest

import eigensearch as es
import instances
from eigensearch import numerics, phase_estimation, spectra


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


def test_boosted_rounds_run_without_a_basis_change(ref12, call_counter):
    # the rounds stay in the estimate frame: estimates and unestimates are
    # the only transform kernels (src has no register Walsh-Hadamard or
    # rotation kernel left to call).  They cover the two vote-plane columns
    # per eigenvector the operator unestimates once, when it is built, and
    # the seven Dicke columns each way in the second round; the embedded
    # first round and the readout transform nothing.  18 / 10 / 8 columns
    # when the first round estimated one column and unestimated three, and
    # 20 / 12 / 8 when the second round also unestimated its plane columns
    # and the readout estimated and unestimated seven vote values
    kernels = ("raw_controlled_powers", "raw_qft", "raw_inverse_qft")
    amps = {name: [] for name in kernels}
    for name, seen in amps.items():
        call_counter(phase_estimation, name,
                     lambda a, *args, seen=seen, **kwargs: seen.append(a.size))
    scheme = es.InversionScheme("boosted", 9, 6, instances.REF12_GAP)
    res = es.run_full(ref12, scheme)
    assert res.amplification_rounds == 2
    column = ref12.spec.n << scheme.phase_bits
    assert {name: sum(seen) for name, seen in amps.items()} == {
        "raw_controlled_powers": 16 * column,
        "raw_qft": 9 * column,
        "raw_inverse_qft": 7 * column}


@pytest.mark.parametrize("kind, mu, nu", [("boosted", 9, 6), ("basic", 8, 0)])
def test_a_run_evaluates_each_estimate_profile_once(ref12, call_counter, kind, mu, nu):
    # the operator splits every eigenvector's profile at the gap window
    # once; its vote plane and the run's error prediction both read that
    # split.  A boosted run evaluated every profile twice when the
    # prediction computed its own window masses
    lams = []
    call_counter(phase_estimation, "estimate_amplitudes",
                 lambda phase_bits, lam: lams.append(np.size(lam)))
    res = es.run_full(ref12, es.InversionScheme(kind, mu, nu, instances.REF12_GAP))
    assert res.amplification_rounds == 2
    assert sum(lams) == ref12.spec.n


# Peak tracemalloc memory of each pinned case over its full register
# (main x phase x 2^nu complex128 amplitudes), measured on a 2-core x86
# box, and the bound its test holds it to.  A weight-symmetric state holds
# nu + 1 Dicke columns of the 2^nu, and an apply adds its output and the
# working arrays of a few eigenvectors, their controlled powers among
# them; a boosted operator keeps its vote plane, two main x phase tables,
# and the first round's output is coefficients along it.
#
#   case (ref12 unless noted)                               measured  bound
#   test_pipeline.py
#     boosted (9, 6) run_full                                   0.18   0.4
#     boosted (10, 2) run_full                                  1.50   2.6
#     basic mu=12 run_full                                      2.52   2.6
#     criterion-08's one-round (5, 4) run_full, n=32            0.79   1.65
#     basic mu=12 round-two target flip                        0.001   0.3
#     boosted (9, 12) run_full, n=48 (over 13 Dicke columns)    1.30   3
#     criterion-07's (9, 6) run_full, n=48 (over 7 Dicke cols)  1.49   1.75
#   test_selective_inversion.py
#     boosted (10, 4) apply of a Dicke slab state (over 5 cols) 1.26   1.5
#     boosted (10, 2) apply of the embedded halfway state      0.012   1.3
#     boosted (10, 2) apply of the flipped round-one output     0.99   1.2
#     basic mu=12 build and error prediction                    0.61   0.75


def _run_full_peak_over_register(inst, scheme, columns=None, dense_cap=es.DENSE_CAP):
    """tracemalloc peak of a second ``run_full``, in registers of main x
    phase x ``columns`` complex values, all 2^nu vote values unless given."""
    es.run_full(inst, scheme, dense_cap)
    tracemalloc.start()
    try:
        es.run_full(inst, scheme, dense_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = columns or 1 << scheme.vote_bits
    return peak / (inst.spec.n * 2 ** scheme.phase_bits * columns * 16)


def test_a_boosted_run_writes_no_register(ref12):
    # the first round's input is the embedded halfway state, n coefficients;
    # the second inversion's input is plane coefficients and its output 7
    # Dicke columns of the 64 vote values, and the readout sums their Gram
    # matrix in place next to the operator's vote plane
    scheme = es.InversionScheme("boosted", 9, 6, instances.REF12_GAP)
    assert _run_full_peak_over_register(ref12, scheme) <= 0.4


def test_a_one_round_run_reads_its_output_without_writing_it(ref12):
    # criterion-08's first instance needs one round, whose output is plane
    # coefficients; the readout forms its Gram blocks from them, a few
    # phase columns of the plane at a time, so none of the 5 Dicke columns
    # of the 16 vote values is written whole, and n x n work arrays weigh
    # at n=32
    fam, seed, target = instances.BASELINE_TRIO[0]
    inst = instances.symmetric_instance(instances.TRIO_N, fam, seed, target)
    scheme = es.InversionScheme.boosted(inst.boost, inst.spec.phase_gap, offset_bits=4)
    assert es.amplification_round_count(inst.boost) == 1
    assert (scheme.phase_bits, scheme.vote_bits) == (5, 4)
    assert _run_full_peak_over_register(inst, scheme) <= 1.65


def test_a_two_vote_run_builds_its_vote_plane_before_the_register(ref12):
    # with two votes the vote plane is a quarter of the register, so it is
    # built before the state is embedded, not inside the first round next
    # to the state and the working array.  The second round's output, 3
    # Dicke columns of the 4 vote values, its input's coefficients along
    # the plane, the plane's two columns per eigenvector and the
    # reflection's projection, 1/16 of the register, set the peak
    scheme = es.InversionScheme("boosted", 10, 2, instances.REF12_GAP)
    assert _run_full_peak_over_register(ref12, scheme) <= 2.6


def test_a_twelve_vote_run_holds_a_few_dicke_states():
    # with 12 votes the full register, 2^21 values per eigenvector, is
    # never made: every state is 13 Dicke columns, and the vote stage runs
    # on each eigenvector's 2 x 13 plane coefficients
    inst = instances.symmetric_instance(instances.HIGAIN_N, instances.HIGAIN_PAIRS,
                                        *instances.HIGAIN_CASES[0], instances.HIGAIN_GAP)
    scheme = es.InversionScheme("boosted", 9, 12, instances.HIGAIN_GAP)
    assert _run_full_peak_over_register(inst, scheme, 13, dense_cap=1 << 27) <= 3.0


def test_a_criterion_07_run_holds_one_dicke_register():
    # the first round's output stays coefficients along the vote plane and
    # the readout conjugates a few columns at a time, so the n=48 (9, 6)
    # run holds one register of 7 Dicke columns, the second round's output,
    # next to the plane's two columns and a few eigenvectors' working
    # arrays
    inst = instances.symmetric_instance(instances.HIGAIN_N, instances.HIGAIN_PAIRS,
                                        *instances.HIGAIN_CASES[0], instances.HIGAIN_GAP)
    scheme = es.InversionScheme.boosted(inst.boost, instances.HIGAIN_GAP, offset_bits=8)
    assert (scheme.phase_bits, scheme.vote_bits) == (9, 6)
    assert es.amplification_round_count(inst.boost) == 2
    assert _run_full_peak_over_register(inst, scheme, 7) <= 1.75


def test_a_basic_round_two_flip_writes_nothing(ref12):
    # the first basic inversion returns its one phase column per
    # eigenvector, and the second round's target flip shares it and keeps
    # its reflection pending
    scheme = es.InversionScheme("basic", 12, 0, instances.REF12_GAP)
    dec = es.search_decomposition(ref12)
    op = es.InversionOperator.build(scheme, es.search_operator(ref12), decomposition=dec)
    state = es.embed_mainspace(op.layout, es.evolve_to_halfway(ref12).state, dec)
    state = op.apply(es.target_flip(state, ref12.target_index))
    tracemalloc.start()
    try:
        es.target_flip(state, ref12.target_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (op.layout.dim * 16) <= 0.3


def test_a_basic_run_predicts_its_epsilons_a_few_eigenphases_at_a_time(ref12):
    # with no vote register a main x phase array is the register, so the
    # estimate profiles of all twelve eigenphases at once would set the peak
    # of a basic run, so they are computed a few eigenphases at a time.  The
    # second round's input and output, a few eigenvectors' controlled
    # powers and the pending reflection's projection, one phase column,
    # set the peak
    scheme = es.InversionScheme("basic", 12, 0, instances.REF12_GAP)
    assert _run_full_peak_over_register(ref12, scheme) <= 2.6


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
        # the first round's input is the embedded halfway state
        return es.StateVector.product(1.01 * state.main, state.layout, state.frame)

    monkeypatch.setattr(es.InversionOperator, "apply", drifting_apply)
    with pytest.raises(ValueError, match="state norm") as info:
        es.run_schedule(inst, 0.70, instances.SCHEDULE_DRAW_SEED)
    assert not isinstance(info.value, es.GapGuessTooCoarse)


def test_csv_row_matches_the_header(ref12, ref12_basic_run):
    _, res = ref12_basic_run
    row = es.result_row(res)
    assert row == {
        "instance_id": "sym-n12-seed68-t4", "N": 12, "alpha": res.overlap,
        "B": res.boost, "theta_min": instances.REF12_GAP, "scheme": "basic",
        "mu": 8, "nu": 0, "q_m": res.halfway_steps,
        "n_qaa": res.amplification_rounds,
        "oracle_queries": res.ledger.oracle_queries,
        "controlled_s": res.ledger.controlled_s,
        "success": res.success_probability, "epsilon": res.predicted_error,
    }
    assert ",".join(row) == ("instance_id,N,alpha,B,theta_min,scheme,mu,nu,"
                             "q_m,n_qaa,oracle_queries,controlled_s,success,epsilon")
    # every complexity-report row opens with the same columns
    base = es.classical_baseline(ref12, trials=100)
    report_row = es.complexity_report([res] * 3, [base] * 3)["rows"][0]
    assert list(report_row)[:len(row)] == list(row)
    assert {key: report_row[key] for key in row} == row


def test_complexity_report_validates_its_inputs(ref12, ref12_basic_run):
    _, res = ref12_basic_run
    base = es.classical_baseline(ref12, trials=100)
    with pytest.raises(ValueError):
        es.complexity_report([res, res], [base, base])
    with pytest.raises(ValueError):
        es.complexity_report([res, res, res], [])


def test_halving_the_overlap_doubles_the_halfway_steps():
    results, baselines = [], []
    for seed, target in instances.HALVING_CASES:
        inst = instances.symmetric_instance(
            instances.HALVING_N, instances.HALVING_PAIRS, seed, target)
        results.append(es.run_full(inst, boosted_for(inst)))
        baselines.append(es.classical_baseline(inst, trials=100))
    report = es.complexity_report(results, baselines)
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


def test_the_schedule_prepares_its_instance_once(call_counter):
    # criterion-09's rounds share the instance's one search operator and
    # its one eigendecomposition; only the gap guess changes between them
    assemblies = call_counter(spectra, "assemble_diffusion")
    solves = call_counter(numerics, "eig_unitary")
    inst = instances.symmetric_instance(
        instances.SCHEDULE_N, instances.SCHEDULE_PAIRS,
        instances.SCHEDULE_SEED, instances.SCHEDULE_TARGET)
    res = es.run_schedule(inst, instances.SCHEDULE_GUESS,
                          instances.SCHEDULE_DRAW_SEED)
    assert res.rounds_used == instances.SCHEDULE_ROUNDS
    assert sum(r.ran for r in res.records) > 1
    assert assemblies == [1]
    assert solves == [1]
