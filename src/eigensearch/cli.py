"""Command-line front end.

Six subcommands mirror the library stages: ``spectrum`` builds and describes
a diffusion spec, ``search`` locates the gap eigenpair, ``invert`` measures
inversion errors, ``pipeline`` runs one end-to-end search, ``compare`` runs a
family against the classical baseline, and ``schedule`` retries a hidden-gap
instance.  Parameters come from flags or a JSON config file, flags winning;
every JSON report embeds the resolved config, and outputs are byte-stable
for a fixed config and seed (timings are off unless asked for, since they
never repeat).

Exit codes: 0 success, 2 invalid configuration, 3 a structural assumption of
the algorithm failed, 4 a resource cap was hit, 5 an internal invariant
failed (a bug or a numerical breakdown, not a problem with the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .numerics import (
    AssumptionViolation,
    InternalInvariantError,
    ResourceCapExceeded,
    split_seed,
)
from .phase_estimation import DENSE_CAP
from .pipeline import (
    CSV_HEADER,
    baseline_to_json,
    classical_baseline,
    complexity_report,
    csv_row,
    pipeline_result_to_json,
    run_full,
    run_schedule,
    schedule_to_json,
    scheme_to_json,
)
from .search_core import (
    build_search_operator,
    evolve_to_halfway,
    find_relevant_pair,
    predicted_pair_phases,
    reconstruct_source,
)
from .selective_inversion import (
    GUARD_FRACTION,
    InversionOperator,
    InversionScheme,
    instance_epsilon_report,
)
from .spectra import (
    DiffusionSpec,
    SearchInstance,
    build_grover_spec,
    build_symmetric_spec,
    find_targets,
    moments,
    spec_to_json,
)


class ConfigError(ValueError):
    """The run configuration cannot be acted on."""


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# (key, parser, default) per option; the flag is the key with dashes.  A
# parser of bool is a switch, a tuple the allowed choices, and None marks a
# key that only a config file can set.
_OPTIONS = (
    ("n", int, None),
    ("source", int, 0),
    ("grover", bool, False),
    ("symmetric", bool, False),
    ("pairs", _float_list, None),
    ("seed", int, 0),
    ("theta_min", float, None),
    ("target", int, None),
    ("alpha_max", float, None),
    ("alpha_min", float, 0.0),
    ("b_target", float, None),
    ("scheme", ("basic", "boosted"), "basic"),
    ("mu", int, None),
    ("nu", int, None),
    ("b", int, 7),
    ("mu_offset", int, 16),
    ("delta", float, GUARD_FRACTION),
    ("trials", int, 1000),
    ("dense_cap", int, DENSE_CAP),
    ("initial_guess", float, None),
    ("r_max", int, None),
    ("sweep_mu", _int_list, None),
    ("sweep_nu", _int_list, None),
    ("instances", None, None),
    ("timings", bool, False),
    ("format", ("json", "csv"), "json"),
    ("out", str, None),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None)
    for key, parse, _ in _OPTIONS:
        flag = "--" + key.replace("_", "-")
        if parse is bool:
            common.add_argument(flag, action="store_true", default=None)
        elif isinstance(parse, tuple):
            common.add_argument(flag, choices=parse, default=None)
        elif parse is not None:
            common.add_argument(flag, type=parse, default=None)

    parser = argparse.ArgumentParser(prog="eigensearch")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "search", "invert", "pipeline", "compare", "schedule"):
        sub.add_parser(name, parents=[common])
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags.  ``symmetric`` only
    switches ``grover`` off, from either source, and is not kept."""
    cfg = {key: default for key, _, default in _OPTIONS}
    if args.config is not None:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg.pop("symmetric"):
        cfg["grover"] = False
        if cfg["pairs"] is None:
            raise ConfigError("--symmetric needs --pairs")
    return cfg


def _spec_from_config(cfg: dict) -> DiffusionSpec:
    if cfg["n"] is None:
        raise ConfigError("the dimension --n is required")
    if cfg["grover"]:
        return build_grover_spec(int(cfg["n"]), int(cfg["source"]))
    if cfg["pairs"] is None:
        raise ConfigError("need --grover, or --pairs for a symmetric spec")
    return build_symmetric_spec(
        int(cfg["n"]),
        [float(p) for p in cfg["pairs"]],
        int(cfg["seed"]),
        int(cfg["source"]),
        None if cfg["theta_min"] is None else float(cfg["theta_min"]),
    )


def _select_target(spec: DiffusionSpec, cfg: dict) -> int:
    if cfg["target"] is not None:
        return int(cfg["target"])
    ceiling = None if cfg["alpha_max"] is None else float(cfg["alpha_max"])
    hits = find_targets(spec, ceiling, float(cfg["alpha_min"]))
    hits = [t for t in hits if t != spec.source_index]
    if not hits:
        raise ConfigError("no target matches the overlap filter; pass --target "
                          "or widen --alpha-max")
    if cfg["b_target"] is None:
        return hits[0]
    want = float(cfg["b_target"])

    def boost_of(t: int) -> float:
        return float(np.sqrt(1.0 + moments(spec, t, 2)))

    return min(hits, key=lambda t: (abs(boost_of(t) - want), t))


def _instance_from_config(cfg: dict) -> SearchInstance:
    spec = _spec_from_config(cfg)
    return SearchInstance.build(spec, _select_target(spec, cfg))


def _scheme_from_config(cfg: dict, inst: SearchInstance) -> InversionScheme:
    gap = float(cfg["theta_min"]) if cfg["theta_min"] is not None else inst.spec.phase_gap
    kind = cfg["scheme"]
    guard = float(cfg["delta"])
    if cfg["mu"] is not None:
        votes = cfg["nu"]
        if kind == "boosted" and votes is None:
            raise ConfigError("an explicit --mu for the boosted scheme also needs --nu")
        return InversionScheme(kind, int(cfg["mu"]),
                               0 if kind == "basic" else int(votes), gap, guard)
    if kind == "basic":
        return InversionScheme.basic(inst.boost, gap, int(cfg["b"]), guard)
    return InversionScheme.boosted(inst.boost, gap, int(cfg["mu_offset"]), guard)


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (json_doc_body, csv_lines_or_None).

def _cmd_spectrum(cfg: dict):
    spec = _spec_from_config(cfg)
    targets = ([int(cfg["target"])] if cfg["target"] is not None
               else [t for t in range(spec.n) if t != spec.source_index])
    rows = []
    for t in targets:
        alpha = float(np.abs(spec.eigenbasis[t, spec.source_index]))
        if alpha == 0.0:
            continue
        first = moments(spec, t, 1)
        second = moments(spec, t, 2)
        rows.append({
            "target": t,
            "alpha": alpha,
            "lambda1": first,
            "lambda2": second,
            "B": float(np.sqrt(1.0 + second)),
        })
    doc = {"spec": spec_to_json(spec, cfg["target"]), "moments": rows}
    lines = ["target,alpha,lambda1,lambda2,B"] + [
        f"{r['target']},{r['alpha']!r},{r['lambda1']!r},{r['lambda2']!r},{r['B']!r}"
        for r in rows
    ]
    return doc, lines


def _cmd_search(cfg: dict):
    inst = _instance_from_config(cfg)
    pair = find_relevant_pair(inst)
    pred_plus, pred_minus = predicted_pair_phases(inst)
    halfway = evolve_to_halfway(inst)
    w_overlap = float(np.abs(halfway.state[inst.target_index]))
    source = inst.spec.eigenbasis[:, inst.spec.source_index]
    residual = float(np.linalg.norm(reconstruct_source(pair) - source))
    doc = {
        "instance_id": inst.instance_id,
        "N": inst.spec.n,
        "alpha": inst.overlap,
        "B": inst.boost,
        "theta_min": inst.spec.phase_gap,
        "lambda_plus": pair.phase_plus,
        "lambda_minus": pair.phase_minus,
        "predicted_plus": float(pred_plus),
        "predicted_minus": float(pred_minus),
        "secular_plus": pair.secular_plus,
        "secular_minus": pair.secular_minus,
        "mixing_angle": pair.mixing,
        "pair_target_overlaps": [pair.target_overlap_plus, pair.target_overlap_minus],
        "reconstruction_residual": residual,
        "q_m": halfway.steps,
        "w_overlap": w_overlap,
    }
    lines = [
        "instance_id,alpha,B,lambda_plus,lambda_minus,predicted_plus,"
        "predicted_minus,q_m,w_overlap",
        f"{inst.instance_id},{inst.overlap!r},{inst.boost!r},{pair.phase_plus!r},"
        f"{pair.phase_minus!r},{float(pred_plus)!r},{float(pred_minus)!r},"
        f"{halfway.steps},{w_overlap!r}",
    ]
    return doc, lines


def _invert_schemes(cfg: dict, inst: SearchInstance) -> list[InversionScheme]:
    gap = float(cfg["theta_min"]) if cfg["theta_min"] is not None else inst.spec.phase_gap
    guard = float(cfg["delta"])
    if cfg["sweep_mu"] is not None:
        return [InversionScheme("basic", int(m), 0, gap, guard)
                for m in cfg["sweep_mu"]]
    if cfg["sweep_nu"] is not None:
        sized = InversionScheme.boosted(inst.boost, gap, int(cfg["mu_offset"]), guard)
        return [InversionScheme("boosted", sized.phase_bits, int(v), gap, guard)
                for v in cfg["sweep_nu"]]
    return [_scheme_from_config(cfg, inst)]


def _cmd_invert(cfg: dict):
    inst = _instance_from_config(cfg)
    operator = build_search_operator(inst)
    sweeps = []
    lines = ["mu,nu,lambda,measured,predicted,inverted"]
    for scheme in _invert_schemes(cfg, inst):
        op = InversionOperator.build(scheme, operator, int(cfg["dense_cap"]))
        report = instance_epsilon_report(op, inst, operator)
        entry = {
            "scheme": scheme_to_json(scheme),
            "epsilon_max": report.epsilon_max,
            "worst_inverted": report.worst_inverted,
            "worst_passthrough": report.worst_passthrough,
            "bound": report.bound,
            "within_bound": (None if report.bound is None
                             else bool(report.epsilon_max <= report.bound)),
            "per_eigenphase": [
                {
                    "lambda": float(report.eigenphases[k]),
                    "measured": float(report.measured[k]),
                    "predicted": float(report.predicted[k]),
                    "inverted": bool(report.inverted[k]),
                }
                for k in range(report.eigenphases.shape[0])
            ],
        }
        sweeps.append(entry)
        for row in entry["per_eigenphase"]:
            lines.append(
                f"{scheme.phase_bits},{scheme.vote_bits},{row['lambda']!r},"
                f"{row['measured']!r},{row['predicted']!r},{int(row['inverted'])}"
            )
    doc = {"instance_id": inst.instance_id, "alpha": inst.overlap,
           "B": inst.boost, "sweeps": sweeps}
    return doc, lines


def _cmd_pipeline(cfg: dict):
    inst = _instance_from_config(cfg)
    scheme = _scheme_from_config(cfg, inst)
    result = run_full(inst, scheme, int(cfg["dense_cap"]))
    doc = pipeline_result_to_json(result)
    return doc, [CSV_HEADER, csv_row(result)]


def _cmd_compare(cfg: dict):
    if not cfg["instances"]:
        raise ConfigError(
            "compare needs a config file with an \"instances\" list of "
            "per-instance parameter objects"
        )
    results = []
    baselines = []
    rows = []
    for i, entry in enumerate(cfg["instances"]):
        if not isinstance(entry, dict):
            raise ConfigError("each instances[] entry must be an object")
        sub = dict(cfg)
        sub.pop("instances")
        sub.update(entry)
        inst = _instance_from_config(sub)
        scheme = _scheme_from_config(sub, inst)
        result = run_full(inst, scheme, int(sub["dense_cap"]))
        base = classical_baseline(inst, int(sub["trials"]),
                                  split_seed(int(cfg["seed"]), i))
        results.append(result)
        baselines.append(base)
        rows.append(csv_row(result))
    report = complexity_report(results, baselines)
    doc = {
        "report": report,
        "baselines": [baseline_to_json(b) for b in baselines],
    }
    return doc, [CSV_HEADER] + rows


def _cmd_schedule(cfg: dict):
    if cfg["initial_guess"] is None:
        raise ConfigError("schedule needs --initial-guess")
    inst = _instance_from_config(cfg)
    result = run_schedule(
        inst,
        float(cfg["initial_guess"]),
        int(cfg["seed"]),
        scheme_kind=cfg["scheme"],
        extra_bits=int(cfg["b"]),
        offset_bits=int(cfg["mu_offset"]),
        guard_fraction=float(cfg["delta"]),
        r_max=None if cfg["r_max"] is None else int(cfg["r_max"]),
        dense_cap=int(cfg["dense_cap"]),
    )
    doc = schedule_to_json(result)
    lines = ["round,theta_guess,ran,success_probability,verified"]
    for k, rec in enumerate(result.records):
        lines.append(
            f"{k},{rec.gap_guess!r},{int(rec.ran)},"
            f"{rec.success_probability!r},{int(rec.verified)}"
        )
    return doc, lines


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "search": _cmd_search,
    "invert": _cmd_invert,
    "pipeline": _cmd_pipeline,
    "compare": _cmd_compare,
    "schedule": _cmd_schedule,
}


def _plain(x):
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    started = time.monotonic()
    body, csv_lines = _COMMANDS[args.command](cfg)
    elapsed = time.monotonic() - started
    if cfg["format"] == "csv":
        if csv_lines is None:
            raise ConfigError(f"{args.command} has no CSV form")
        _emit("\n".join(csv_lines) + "\n", cfg["out"])
        return 0
    doc = {"command": args.command, "config": _plain(cfg)}
    doc.update(_plain(body))
    doc["timings"] = {"wall_s": elapsed} if cfg["timings"] else None
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", cfg["out"])
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssumptionViolation as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
