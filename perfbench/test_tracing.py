"""Checks of the benchmark's own machinery; run with
``python3 -m pytest perfbench``.

The tracer must not change what the simulator computes, must see calls
made through names bound with ``from .x import y``, and must put every
original back when it exits.
"""

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import eigensearch as es  # noqa: E402
from eigensearch import pipeline, search_core, selective_inversion  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def small_pipeline():
    inst = workloads.pick_instance(workloads.REF12, 68, largest_first=False)
    scheme = es.InversionScheme("boosted", 6, 2, workloads.REF12["gap"])
    return es.run_full(inst, scheme)


def test_traced_and_untraced_runs_agree_exactly():
    plain = small_pipeline()
    with Tracer() as tracer:
        tracer.start_pass(0)
        traced = small_pipeline()
        stats = tracer.pass_stats()
    assert traced.ledger == plain.ledger
    assert traced.success_probability == plain.success_probability
    assert np.array_equal(traced.main_marginal, plain.main_marginal)
    # names imported with "from .x import y" are traced too
    assert stats["phase_estimation.raw_estimate_forward"]["calls"] > 0
    assert stats["numerics.eig_unitary"]["calls"] == 1     # via pipeline.eig_unitary
    assert stats["selective_inversion.InversionOperator.apply"]["calls"] == 2


def test_tracer_restores_every_binding():
    before = (es.run_full, pipeline.eig_unitary, search_core.eig_unitary,
              selective_inversion.raw_estimate_forward,
              vars(es.SearchInstance)["build"], es.InversionOperator.apply)
    with Tracer():
        assert hasattr(pipeline.eig_unitary, "__wrapped__")
        assert hasattr(selective_inversion.raw_estimate_forward, "__wrapped__")
    after = (es.run_full, pipeline.eig_unitary, search_core.eig_unitary,
             selective_inversion.raw_estimate_forward,
             vars(es.SearchInstance)["build"], es.InversionOperator.apply)
    assert after == before


def test_self_times_and_remainder_add_up_to_the_pass():
    wl = workloads.SpectralScan(5)
    state = wl.setup()
    plain_problems, plain_ledger = wl.run_pass(state)
    with Tracer() as tracer:
        tracer.start_pass(0)
        problems, ledger = wl.run_pass(state)
        m = run.layer_metrics(tracer.pass_stats(), 1.0, ledger)
    assert problems == plain_problems == [None] * workloads.SCAN_TARGETS
    assert ledger == plain_ledger
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYER_NAMES)
    assert abs(layers + m["trace.uncovered_s"] - m["trace.wall_s"]) < 1e-9
    assert m["phase_estimation.raw_walsh_hadamard.calls"] == 0
    # one per target, via search_core.eig_unitary
    assert m["numerics.eig_unitary.calls"] == workloads.SCAN_TARGETS
    assert set(m) <= set(run.PER_LAYER)


def test_closed_form_ledger_matches_a_charged_run():
    inst = workloads.pick_instance(workloads.REF12, 68, largest_first=False)
    for scheme in (es.InversionScheme("basic", 7, 0, 0.44),
                   es.InversionScheme("boosted", 6, 2, 0.44)):
        res = es.run_full(inst, scheme)
        want = workloads.run_full_ledger(res.halfway_steps, res.amplification_rounds, scheme)
        assert res.ledger == want


def test_register_success_is_within_the_error_bound_of_the_exact_one():
    # boosted_pipeline holds every seed's success to this bound, since two
    # rounds guarantee no fixed success level
    inst = workloads.pick_instance(workloads.REF12, 68, largest_first=False)
    scheme = es.InversionScheme("boosted", 6, 2, workloads.REF12["gap"])
    res = es.run_full(inst, scheme)
    exact = workloads.exact_amplified_success(inst, scheme.phase_gap,
                                              res.amplification_rounds)
    gap = abs(np.sqrt(res.success_probability) - np.sqrt(exact))
    assert gap <= res.amplification_rounds * res.predicted_error
    assert abs(exact - res.success_probability) < 0.05


def test_balanced_figure_weighs_every_cpu_alike():
    samples = [(0, 1.0), (0, 3.0), (0, 100.0), (1, 10.0)]
    assert run.Cores.balanced(samples) == (3.0 + 10.0) / 2
    assert run.Cores.balanced(samples, np.mean) == (104.0 / 3 + 10.0) / 2


def test_epsilon_closed_form_matches_a_charged_report():
    # measure_epsilon takes no ledger, so the sweep charges a closed form
    # for its n applications of R; charge a real report and compare
    wl = workloads.EpsilonSweep(68)
    inst, operator, _ = wl.setup()
    for scheme in (es.InversionScheme("basic", 6, 0, workloads.REF12["gap"]),
                   es.InversionScheme("boosted", 5, 2, workloads.REF12["gap"])):
        op = es.InversionOperator.build(scheme, operator)
        charged = es.QueryLedger()
        op.apply = functools.partial(es.InversionOperator.apply, op, ledger=charged)
        es.instance_epsilon_report(op, inst, operator)
        assert charged == workloads.inverter_ledger(scheme, inst.spec.n)


def test_epsilon_sweep_pass_checks_its_reports():
    class SmallSweep(workloads.EpsilonSweep):
        schemes = (("basic", 6, 0), ("basic", 8, 0), ("boosted", 6, 2), ("boosted", 6, 4))

    wl = SmallSweep(68)
    problems, ledger = wl.run_pass(wl.setup())
    assert problems == [None] * len(SmallSweep.schemes)
    assert ledger.oracle_queries == sum(
        workloads.inverter_ledger(es.InversionScheme(kind, mu, nu, 0.44), 12).oracle_queries
        for kind, mu, nu in SmallSweep.schemes)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
