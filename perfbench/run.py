"""eigensearch benchmark: named workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload boosted_pipeline --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run discards one warm-up pass, then runs closed-loop passes until
``--seconds`` have gone by, setting the workload up afresh a few times
before the first pass and after each one, on each CPU in turn (see
``Cores``).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the passes under ``tracing.Tracer`` and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of
the run goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import KERNELS, LAYER_NAMES, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAMES = ("boosted_pipeline", "epsilon_sweep", "spectral_scan", "cli_roundtrip")
BLAS_DEFAULT_TIMEOUT_S = 90

END_TO_END = {"run_s": "s", "setup_s": "s", "queries_per_s": "1/s",
              "peak_mem_mib": "MiB"}

LEDGER_FIELDS = ("oracle_queries", "controlled_s", "ds_applications",
                 "i_zero_prime", "hadamards_vote")
CLI_COMMANDS = ("pipeline", "schedule", "compare")

PER_LAYER = {
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
    "numerics.eig_unitary.calls": "count",
    "numerics.eig_unitary.self_s": "s",
    "numerics.is_unitary.self_s": "s",
    "spectra.assemble_diffusion.calls": "count",
    "spectra.assemble_diffusion.self_s": "s",
    "spectra.build.self_s": "s",
    "search_core.evolve_to_halfway.self_s": "s",
    "search_core.evolve_to_halfway.steps": "count",
    "search_core.find_relevant_pair.self_s": "s",
    "search_core.secular_residual.calls": "count",
    **{f"phase_estimation.{k}.{field}": unit for k in KERNELS
       for field, unit in (("calls", "count"), ("self_s", "s"),
                           ("amps", "amps"), ("amps_per_s", "amps/s"))},
    "phase_estimation.register_mib": "MiB",
    "phase_estimation.peak_over_register": "ratio",
    "selective_inversion.apply.calls": "count",
    "selective_inversion.apply.self_s": "s",
    "selective_inversion.measure_epsilon.self_s": "s",
    **{f"pipeline.{f}.self_s": "s" for f in ("run_full", "amplify_to_target",
                                             "classical_baseline", "run_schedule")},
    "pipeline.target_flip.calls": "count",
    "pipeline.run_schedule.rounds": "count",
    "pipeline.run_schedule.failed_rounds": "count",
    **{f"pipeline.ledger.{f}": "count" for f in LEDGER_FIELDS},
    "cli.import_s": "s",
    **{f"cli.{c}.{f}": "s" for c in CLI_COMMANDS for f in ("wall_s", "body_s")},
    "cli.overhead_s": "s",
    "blas.default.run_s": "s",
    "blas.default.over_pinned": "ratio",
}


# ---------------------------------------------------------------------------
# Machine header.

def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return threads


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def machine_header() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own OpenBLAS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "caches": _caches(),
    }


# ---------------------------------------------------------------------------
# One workload in this process.

class Tally:
    """Checked operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, problems):
        self.attempted += len(problems)
        self.failures.extend(p for p in problems if p is not None)


def timed_pass(wl, state, tally, in_process=False):
    start = time.perf_counter()
    problems, ledger = wl.run_pass(state, in_process)
    wall = time.perf_counter() - start
    tally.add(problems)
    return wall, ledger


def layer_metrics(stats: dict, wall: float, ledger) -> dict:
    """Per-layer numbers of one traced pass from the tracer's span stats."""
    def get(name, field="self_s"):
        return stats.get(name, {}).get(field, 0.0)

    m = {f"{layer}.self_s": sum((s["self_s"] for n, s in stats.items()
                                 if n.startswith(layer + ".")), 0.0)
         for layer in LAYER_NAMES}
    m["trace.wall_s"] = wall
    m["trace.uncovered_s"] = wall - sum(s["self_s"] for s in stats.values())
    m["trace.spans"] = sum(s["calls"] for s in stats.values())
    for name in ("numerics.eig_unitary", "spectra.assemble_diffusion",
                 "search_core.secular_residual", "pipeline.target_flip"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("numerics.eig_unitary", "numerics.is_unitary",
                 "spectra.assemble_diffusion", "search_core.evolve_to_halfway",
                 "search_core.find_relevant_pair",
                 "selective_inversion.measure_epsilon", "pipeline.run_full",
                 "pipeline.amplify_to_target", "pipeline.classical_baseline",
                 "pipeline.run_schedule"):
        m[f"{name}.self_s"] = get(name)
    m["spectra.build.self_s"] = (get("spectra.build_symmetric_spec")
                                 + get("spectra.SearchInstance.build"))
    m["search_core.evolve_to_halfway.steps"] = get("search_core.evolve_to_halfway", "steps")
    for k in KERNELS:
        name = f"phase_estimation.{k}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name)
        m[f"{name}.amps"] = get(name, "amps")
        m[f"{name}.amps_per_s"] = get(name, "amps") / get(name) if get(name) else 0.0
    apply = "selective_inversion.InversionOperator.apply"
    m["phase_estimation.register_mib"] = get(apply, "register_bytes") / 2**20
    m["selective_inversion.apply.calls"] = get(apply, "calls")
    m["selective_inversion.apply.self_s"] = get(apply)
    m["pipeline.run_schedule.rounds"] = get("pipeline.run_schedule", "rounds")
    m["pipeline.run_schedule.failed_rounds"] = get("pipeline.run_schedule", "failed_rounds")
    for field in LEDGER_FIELDS:
        m[f"pipeline.ledger.{field}"] = getattr(ledger, field)
    return m


def blas_default(wl, pinned_pass_s: float) -> tuple[dict, str | None]:
    """One pass of the workload in a fresh process at OpenBLAS's own thread
    count.  The gated runs pin BLAS to one thread; this shows what that
    hides.  Returns the ``blas.default.*`` metrics, with the child's OpenBLAS
    thread count for the record, and a failure, if any."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
            "--seed", str(wl.seed), "--seconds", "0", "--trace", "0",
            "--blas-threads", "default"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=BLAS_DEFAULT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, f"blas default: no result within {BLAS_DEFAULT_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("# machine "):
        return {}, f"blas default: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    threads = json.loads(lines[0][len("# machine "):])["blas"]["threads"]
    doc = json.loads(lines[-1])
    run_s = doc["metrics"]["run_s"]["value"]
    metrics = {"blas.default.run_s": run_s,
               "blas.default.threads": max(threads.values(), default=0),
               "blas.default.over_pinned": run_s / pinned_pass_s}
    if not doc["correct"]:
        return metrics, f"blas default: {doc['failed']} of {doc['attempted']} checks failed"
    return metrics, None


class Cores:
    """Pins this process to each allowed CPU in turn.

    On a shared host the CPUs of one machine need not run at one speed: on
    the 2-core reference VM one ran the same Python and LAPACK code 1.5x
    faster than the other, and which one a pass landed on was up to the
    scheduler.  The harness takes its samples on each CPU in turn and
    averages a per-CPU figure over the CPUs, so the mix of CPUs the
    scheduler happens to pick does not move the result.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))

    def pin(self, i: int) -> int:
        cpu = self.allowed[i % len(self.allowed)]
        os.sched_setaffinity(0, {cpu})
        return cpu

    def release(self):
        os.sched_setaffinity(0, self.allowed)

    @staticmethod
    def balanced(samples, stat=statistics.median) -> float:
        """Mean over CPUs of ``stat`` of the (cpu, value) samples on each."""
        by_cpu = {}
        for cpu, value in samples:
            by_cpu.setdefault(cpu, []).append(value)
        return statistics.fmean(stat(v) for v in by_cpu.values())


def run_until(seconds, step):
    """Call ``step`` until ``seconds`` have passed, at least once."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step(len(results)))
    return results


def measure(wl, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metrics, record for the result file)."""
    from workloads import OUT

    tally = Tally()
    record = {"workload": wl.name, "seed": wl.seed, "trace": trace}
    setups = []     # (cpu, seconds)
    cores = Cores()

    def set_up(cpu):
        # Set-up is sampled again after every timed pass, so that the
        # samples span the whole run rather than its first moments.  One
        # sample is the mean of a batch of set-ups, so that a set-up of a
        # millisecond is not lost in timer and cache noise.
        for _ in range(wl.setup_repeats):
            start = time.perf_counter()
            for _ in range(wl.setup_batch):
                fresh = wl.setup()
            setups.append((cpu, (time.perf_counter() - start) / wl.setup_batch))
        return fresh

    for i in range(len(cores.allowed)):
        state = set_up(cores.pin(i))
    # Traced runs call the CLI in-process so the tracer can see into it.
    in_process = trace
    warm, _ = timed_pass(wl, state, tally, in_process)
    record["warmup"] = {"discarded": True, "wall_s": warm}

    if not trace:
        def step(i):
            cpu = cores.pin(i)
            wall, ledger = timed_pass(wl, state, tally)
            set_up(cpu)
            return cpu, wall, ledger

        passes = run_until(seconds, step)
        cores.release()
        who = resource.RUSAGE_CHILDREN if wl.name == "cli_roundtrip" else resource.RUSAGE_SELF
        metrics = {
            "run_s": cores.balanced((cpu, w) for cpu, w, _ in passes),
            # The mean, not the median: within a second a CPU of the
            # reference VM flips between two speeds 1.7x apart, and the
            # median of a two-state mix jumps from state to state.
            "setup_s": cores.balanced(setups, statistics.fmean),
            "queries_per_s": cores.balanced((cpu, ledger.oracle_queries / w)
                                            for cpu, w, ledger in passes),
            "peak_mem_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        record["pass_samples_s"] = [w for _, w, _ in passes]
        record["pass_cpus"] = [cpu for cpu, _, _ in passes]
        record["queries_per_pass"] = [ledger.oracle_queries for _, _, ledger in passes]
    else:
        # one CPU throughout, so that traced and untraced passes compare
        cores.pin(0)
        reference, _ = timed_pass(wl, state, tally, in_process)
        with Tracer() as tracer:
            def traced(i):
                tracer.start_pass(i)
                wall, ledger = timed_pass(wl, state, tally, in_process)
                return layer_metrics(tracer.pass_stats(), wall, ledger)
            rows = run_until(seconds, traced)
        # tracemalloc doubles the time of allocation-heavy passes, so the
        # peak comes from one more pass of its own
        tracemalloc.start()
        timed_pass(wl, state, tally, in_process)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        cores.release()
        # All numbers come from the pass with the median wall time, so the
        # layer self times and the remainder add up to its wall exactly.
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(sorted(rows, key=lambda r: r["trace.wall_s"])[(len(rows) - 1) // 2])
        register = metrics["phase_estimation.register_mib"] * 2**20
        metrics["phase_estimation.peak_over_register"] = peak / register if register else 0.0
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / reference
        record["tracemalloc_peak_bytes"] = peak
        extras, problems = wl.layer_extras(state)
        tally.add(problems)
        metrics.update(extras)
        pinned = reference
        if wl.name == "cli_roundtrip":
            # compare fresh processes with fresh processes
            pinned, _ = timed_pass(wl, state, tally)
        extras, problem = blas_default(wl, pinned)
        tally.add([problem])
        metrics.update(extras)
        record["untraced_reference_s"] = reference
        record["traced_passes"] = rows
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    record["setup_samples_s"] = [v for _, v in setups]
    record["setup_cpus"] = [cpu for cpu, _ in setups]
    record["attempted"] = tally.attempted
    record["failures"] = tally.failures[:20]
    record["failed"] = len(tally.failures)
    return metrics, record


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_one(args) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    header = machine_header()
    print("# machine " + json.dumps(header))
    units = PER_LAYER if args.trace else END_TO_END
    try:
        wl = cls(seed)
        metrics, record = measure(wl, args.seconds, bool(args.trace))
    except Exception as exc:  # noqa: BLE001 - report a broken set-up as a failed run
        print(f"# set-up failed: {type(exc).__name__}: {exc}")
        print(result_line({k: 0.0 for k in units}, units, 1, 1))
        return 0
    record["machine"] = header
    record["metrics"] = metrics
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    path = workloads.OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {seed}: warm-up pass {record['warmup']['wall_s']:.3f} s "
          f"discarded; {record['attempted']} checked operations, "
          f"{record['failed']} failed; record in {path.relative_to(ROOT)}")
    for problem in record["failures"]:
        print(f"# FAILED {problem}")
    if not args.trace:
        print(f"# fail_ratio {record['failed'] / record['attempted']:.6g} 1 "
              f"({len(record['pass_samples_s'])} timed passes)")
    for name, unit in units.items():
        print(f"# {name:48s} {metrics[name]:.6g} {unit}")
    print(result_line(metrics, units, record["attempted"], record["failed"]))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows, attempted, failed, merged, units = {}, 0, 0, {}, {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--blas-threads", args.blas_threads]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        if not rows:
            print(lines[0])         # the machine header
        doc = json.loads(lines[-1])
        attempted += doc["attempted"]
        failed += doc["failed"]
        rows[name] = doc
        for metric, entry in doc["metrics"].items():
            merged[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    if not args.trace:
        print(f"# {'workload':18s} " + " ".join(f"{m:>16s}" for m in END_TO_END)
              + f" {'fail_ratio':>12s}")
        for name, doc in rows.items():
            cells = " ".join(f"{doc['metrics'][m]['value']:16.6g}" for m in END_TO_END)
            print(f"# {name:18s} {cells} {doc['failed'] / doc['attempted']:12.6g}")
        print("# units: " + ", ".join(f"{m} {u}" for m, u in END_TO_END.items())
              + ", fail_ratio 1")
    else:
        for metric, value in merged.items():
            print(f"# {metric:64s} {value:.6g} {units[metric]}")
    print(result_line(merged, units, attempted, failed))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; default: the workload's pinned instance")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", choices=("1", "default"), default="1",
                        help="1: one OpenBLAS thread unless OPENBLAS_NUM_THREADS "
                             "is set; default: OpenBLAS's own thread count")
    args = parser.parse_args(argv)
    # One BLAS thread unless asked otherwise: on a 2-core box a second
    # thread makes the pass-to-pass spread 6x wider (and the spectral scan
    # 2x slower).  Set before numpy loads; children inherit it.  The traced
    # run reports one pass at the default as blas.default.*.
    if args.blas_threads == "1":
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    else:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    if not (SRC / "eigensearch" / "__init__.py").is_file():
        print(f"error: no eigensearch sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
