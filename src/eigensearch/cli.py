"""Command-line front end.

Six subcommands mirror the library stages: ``spectrum`` builds and describes
a diffusion spec, ``search`` locates the gap eigenpair, ``invert`` measures
inversion errors, ``pipeline`` runs one end-to-end search, ``compare`` runs a
family against the classical baseline, and ``schedule`` retries a hidden-gap
instance.  Parameters come from flags or a JSON config file, flags winning.
Each value, a flag's text or a config value at the top level or in a
``compare`` instance entry, is parsed once by its option's kind, so the
commands read the resolved config as it is; every JSON report embeds it, and
outputs are byte-stable for a fixed config and seed (timings are off unless
asked for, since they never repeat).

Exit codes: 0 success, 2 invalid configuration (an unknown key, or a value
its option cannot take, named in one line), 3 a structural assumption of
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
    baseline_to_json,
    classical_baseline,
    complexity_report,
    pipeline_result_to_json,
    result_row,
    run_full,
    run_schedule,
    schedule_to_json,
    scheme_to_json,
)
from .search_core import (
    evolve_to_halfway,
    find_relevant_pair,
    predicted_pair_phases,
    reconstruct_source,
    search_decomposition,
    search_operator,
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


# key: (kind, default) per option; the flag is the key with dashes.  A kind
# of bool is a switch, a tuple the allowed choices, and [kind] a list of one
# or more of that kind, comma-separated on a flag; the list of objects has no
# flag.
_OPTIONS = {
    "n": (int, None),
    "source": (int, 0),
    "grover": (bool, False),
    "symmetric": (bool, False),
    "pairs": ([float], None),
    "seed": (int, 0),
    "theta_min": (float, None),
    "target": (int, None),
    "alpha_max": (float, None),
    "alpha_min": (float, 0.0),
    "b_target": (float, None),
    "scheme": (("basic", "boosted"), "basic"),
    "mu": (int, None),
    "nu": (int, None),
    "b": (int, 7),
    "mu_offset": (int, 16),
    "delta": (float, GUARD_FRACTION),
    "trials": (int, 1000),
    "dense_cap": (int, DENSE_CAP),
    "initial_guess": (float, None),
    "r_max": (int, None),
    "sweep_mu": ([int], None),
    "sweep_nu": ([int], None),
    "instances": ([dict], None),
    "timings": (bool, False),
    "format": (("json", "csv"), "json"),
    "out": (str, None),
}
_KIND_NAMES = {int: "integers", float: "numbers", str: "strings", bool: "booleans",
               dict: "objects"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``ConfigError``s, so that they
    print as one ``error:`` line with exit code 2, like every other
    configuration error; subparsers are made of the same class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", default=None)
    for key, (kind, _) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            common.add_argument(flag, action="store_true")
        elif kind != [dict]:
            common.add_argument(flag, metavar="{%s}" % ",".join(kind)
                                if isinstance(kind, tuple) else None)

    parser = _Parser(prog="eigensearch")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "search", "invert", "pipeline", "compare", "schedule"):
        sub.add_parser(name, parents=[common])
    return parser


def _as_kind(kind, value):
    """``value`` as a value of ``kind``; TypeError or ValueError if it is none."""
    if isinstance(kind, list) and isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    if isinstance(kind, list) and isinstance(value, list) and value:
        return [_as_kind(kind[0], item) for item in value]
    if type(value) is kind or isinstance(kind, tuple) and value in kind:
        return value
    if kind is float and type(value) is int or kind in (int, float) and isinstance(value, str):
        return kind(value)
    raise TypeError


def _parsed(layer: dict, where: str) -> dict:
    """The options ``layer`` sets, each value parsed by its option's kind;
    ``where`` names the layer: the flags, the config file or one of its
    instance entries.  A string is a flag's text and parses as the flag's
    would; any other value must be of the kind already, an integer counting
    as a number, and null stands only for an option whose default is null."""
    values = {}
    for key, value in layer.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown {where} key {json.dumps(key)}")
        kind, default = _OPTIONS[key]
        try:
            values[key] = None if value is None and default is None else _as_kind(kind, value)
        except (TypeError, ValueError):
            what = ("a list of one or more " + _KIND_NAMES[kind[0]] if isinstance(kind, list)
                    else "one of " + ", ".join(kind) if isinstance(kind, tuple)
                    else _KIND_NAMES[kind])
            raise ConfigError(f"{json.dumps(key)} in {where} cannot be "
                              f"{json.dumps(value)}; it takes {what}") from None
    return values


def _overlay(base: dict, layer: dict) -> dict:
    """``base`` updated by the parsed ``layer``.  ``symmetric`` only
    switches ``grover`` off and is not kept."""
    cfg = {**base, **layer}
    if cfg.pop("symmetric", False):
        cfg["grover"] = False
    return cfg


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags given, each value
    parsed, and the entries of ``instances`` parsed in turn; every command
    rejects a dense cap below 1, whether or not it makes a register."""
    loaded = {}
    if args.config is not None:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {key: value for key, value in vars(args).items() if key in _OPTIONS}
    cfg = _overlay({key: default for key, (_, default) in _OPTIONS.items()},
                   {**_parsed(loaded, "config"), **_parsed(flags, "the flags")})
    if cfg["instances"] is not None:
        cfg["instances"] = [_parsed(entry, f"instances[{i}]")
                            for i, entry in enumerate(cfg["instances"])]
    for layer in (cfg, *(cfg["instances"] or ())):
        if layer.get("dense_cap", 1) < 1:
            raise ConfigError(f"the dense cap must be at least 1, not {layer['dense_cap']}")
    return cfg


def _spec_from_config(cfg: dict) -> DiffusionSpec:
    if cfg["n"] is None:
        raise ConfigError("the dimension --n is required")
    if cfg["grover"]:
        return build_grover_spec(cfg["n"], cfg["source"])
    if cfg["pairs"] is None:
        raise ConfigError("a symmetric spec needs --pairs, or pass --grover")
    return build_symmetric_spec(cfg["n"], cfg["pairs"], cfg["seed"], cfg["source"],
                                cfg["theta_min"])


def _select_target(spec: DiffusionSpec, cfg: dict) -> int:
    if cfg["target"] is not None:
        return cfg["target"]
    hits = find_targets(spec, cfg["alpha_max"], cfg["alpha_min"])
    hits = [t for t in hits if t != spec.source_index]
    if not hits:
        raise ConfigError("no target matches the overlap filter; pass --target "
                          "or widen --alpha-max")
    if cfg["b_target"] is None:
        return hits[0]
    boost = {t: np.sqrt(1.0 + moments(spec, t, 2)) for t in hits}
    return min(hits, key=lambda t: (abs(boost[t] - cfg["b_target"]), t))


def _instance_from_config(cfg: dict) -> SearchInstance:
    spec = _spec_from_config(cfg)
    return SearchInstance.build(spec, _select_target(spec, cfg))


def _scheme_from_config(cfg: dict, inst: SearchInstance) -> InversionScheme:
    gap = inst.spec.phase_gap if cfg["theta_min"] is None else cfg["theta_min"]
    kind, guard = cfg["scheme"], cfg["delta"]
    if cfg["mu"] is not None:
        if kind == "boosted" and cfg["nu"] is None:
            raise ConfigError("an explicit --mu for the boosted scheme also needs --nu")
        return InversionScheme(kind, cfg["mu"], 0 if kind == "basic" else cfg["nu"],
                               gap, guard)
    if kind == "basic":
        return InversionScheme.basic(inst.boost, gap, cfg["b"], guard)
    return InversionScheme.boosted(inst.boost, gap, cfg["mu_offset"], guard)


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (json_doc_body, columns, rows): the rows
# are dicts the JSON body already holds, and the CSV prints their columns.

def _cmd_spectrum(cfg: dict):
    spec = _spec_from_config(cfg)
    targets = ([cfg["target"]] if cfg["target"] is not None
               else [t for t in range(spec.n) if t != spec.source_index])
    rows = []
    for t in targets:
        first = moments(spec, t, 1)     # checks t before the basis is read
        alpha = float(np.abs(spec.eigenbasis[t, spec.source_index]))
        if alpha == 0.0:
            continue
        second = moments(spec, t, 2)
        rows.append({
            "target": t,
            "alpha": alpha,
            "lambda1": first,
            "lambda2": second,
            "B": float(np.sqrt(1.0 + second)),
        })
    doc = {"spec": spec_to_json(spec, cfg["target"]), "moments": rows}
    return doc, ("target", "alpha", "lambda1", "lambda2", "B"), rows


def _cmd_search(cfg: dict):
    inst = _instance_from_config(cfg)
    pair = find_relevant_pair(inst)
    pred_plus, pred_minus = predicted_pair_phases(inst)
    halfway = evolve_to_halfway(inst)
    w_overlap = float(np.abs(halfway.state[inst.target_index]))
    residual = float(np.linalg.norm(reconstruct_source(pair) - inst.source))
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
    columns = ("instance_id", "alpha", "B", "lambda_plus", "lambda_minus",
               "predicted_plus", "predicted_minus", "q_m", "w_overlap")
    return doc, columns, [doc]


def _invert_schemes(cfg: dict, inst: SearchInstance) -> list[InversionScheme]:
    if cfg["sweep_mu"] is not None:
        return [_scheme_from_config({**cfg, "scheme": "basic", "mu": m}, inst)
                for m in cfg["sweep_mu"]]
    if cfg["sweep_nu"] is not None:
        mu = _scheme_from_config({**cfg, "scheme": "boosted", "mu": None}, inst).phase_bits
        return [_scheme_from_config({**cfg, "scheme": "boosted", "mu": mu, "nu": v}, inst)
                for v in cfg["sweep_nu"]]
    return [_scheme_from_config(cfg, inst)]


def _cmd_invert(cfg: dict):
    inst = _instance_from_config(cfg)
    operator, dec = search_operator(inst), search_decomposition(inst)
    sweeps = []
    rows = []
    for scheme in _invert_schemes(cfg, inst):
        op = InversionOperator.build(scheme, operator, cfg["dense_cap"], dec)
        report = instance_epsilon_report(op, inst)
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
        rows += [{"mu": scheme.phase_bits, "nu": scheme.vote_bits, **row}
                 for row in entry["per_eigenphase"]]
    doc = {"instance_id": inst.instance_id, "alpha": inst.overlap,
           "B": inst.boost, "sweeps": sweeps}
    return doc, ("mu", "nu", "lambda", "measured", "predicted", "inverted"), rows


def _cmd_pipeline(cfg: dict):
    inst = _instance_from_config(cfg)
    scheme = _scheme_from_config(cfg, inst)
    result = run_full(inst, scheme, cfg["dense_cap"])
    row = result_row(result)
    return pipeline_result_to_json(result), tuple(row), [row]


def _cmd_compare(cfg: dict):
    if not cfg["instances"]:
        raise ConfigError(
            "compare needs a config file with an \"instances\" list of "
            "per-instance parameter objects"
        )
    results = []
    baselines = []
    for i, entry in enumerate(cfg["instances"]):
        sub = _overlay(cfg, entry)
        inst = _instance_from_config(sub)
        scheme = _scheme_from_config(sub, inst)
        result = run_full(inst, scheme, sub["dense_cap"])
        base = classical_baseline(inst, sub["trials"], split_seed(cfg["seed"], i))
        results.append(result)
        baselines.append(base)
    report = complexity_report(results, baselines)
    doc = {
        "report": report,
        "baselines": [baseline_to_json(b) for b in baselines],
    }
    return doc, tuple(result_row(results[0])), report["rows"]


def _cmd_schedule(cfg: dict):
    if cfg["initial_guess"] is None:
        raise ConfigError("schedule needs --initial-guess")
    for key in ("mu", "nu"):
        if cfg[key] is not None:
            raise ConfigError(f"schedule sizes a register for each gap guess and takes "
                              f"no {json.dumps(key)}; set --b or --mu-offset instead")
    inst = _instance_from_config(cfg)
    result = run_schedule(
        inst,
        cfg["initial_guess"],
        cfg["seed"],
        scheme_kind=cfg["scheme"],
        extra_bits=cfg["b"],
        offset_bits=cfg["mu_offset"],
        guard_fraction=cfg["delta"],
        r_max=cfg["r_max"],
        dense_cap=cfg["dense_cap"],
    )
    doc = schedule_to_json(result)
    rows = [{"round": k, **rec} for k, rec in enumerate(doc["rounds"])]
    return doc, ("round", "theta_guess", "ran", "success_probability", "verified"), rows


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
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    return x


def _cell(x) -> str:
    """One CSV cell: a bool as 0/1, a float as its repr, anything else as str."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    started = time.monotonic()
    body, columns, rows = _COMMANDS[args.command](cfg)
    elapsed = time.monotonic() - started
    if cfg["format"] == "csv":
        lines = [",".join(columns)] + [",".join(_cell(row[c]) for c in columns)
                                       for row in _plain(rows)]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"command": args.command, "config": cfg, **_plain(body),
               "timings": {"wall_s": elapsed} if cfg["timings"] else None}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if cfg["out"] is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg["out"], "w") as f:
                f.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
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
