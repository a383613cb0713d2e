"""Command-line surface: config resolution, output formats, exit codes."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigensearch as es
from eigensearch import numerics, phase_estimation, selective_inversion
from eigensearch.cli import main

REF_ARGS = ["--n", "12", "--pairs", "0.55,0.62,0.70,0.79",
            "--seed", "68", "--theta-min", "0.44", "--target", "4"]
RESULT_HEADER = ("instance_id,N,alpha,B,theta_min,scheme,mu,nu,"
                 "q_m,n_qaa,oracle_queries,controlled_s,success,epsilon")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cli_imports_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "import eigensearch.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "False\n"


def test_spectrum_output_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "spectrum", *REF_ARGS)
    code2, out2, _ = run_cli(capsys, "spectrum", *REF_ARGS)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "spectrum"
    assert doc["timings"] is None


def test_grover_spectrum_reports_unit_boost(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--grover", "--n", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grover"] is True
    assert doc["config"]["n"] == 64
    assert doc["moments"]
    assert all(row["B"] == 1.0 for row in doc["moments"])


def test_flags_override_the_config_file(tmp_path, capsys):
    cfg = {"n": 12, "pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68,
           "theta_min": 0.44, "target": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "search", "--config", str(path),
                           "--seed", "69")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 69
    assert doc["config"]["n"] == 12


def test_symmetric_in_the_config_file_acts_like_the_flag(tmp_path, capsys):
    # it switches grover off and is not echoed in the embedded config
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 12, "grover": True, "symmetric": True,
                                "pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grover"] is False
    assert "symmetric" not in doc["config"]
    assert any(row["B"] > 1.0 for row in doc["moments"])
    path.write_text(json.dumps({"n": 12, "symmetric": True}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(path))
    assert code == 2
    assert "needs --pairs" in err


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"frobnicate": 1}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(path))
    assert code == 2
    assert "frobnicate" in err


def test_compare_checks_each_instance_entry(tmp_path, capsys):
    # entries go through the same key check and symmetric handling as the
    # top-level config
    entries = [{"pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68, "target": t}
               for t in (4, 5, 6)]
    path = tmp_path / "cfg.json"

    def compare(entries):
        path.write_text(json.dumps({"n": 12, "theta_min": 0.44, "mu": 8,
                                    "trials": 100, "instances": entries}))
        return run_cli(capsys, "compare", "--config", str(path))

    code, out, _ = compare(entries)
    assert code == 0
    ids = [row["instance_id"] for row in json.loads(out)["report"]["rows"]]
    assert ids == ["sym-n12-seed68-t4", "sym-n12-seed68-t5", "sym-n12-seed68-t6"]
    code, out, err = compare([entries[0], {**entries[1], "frobnicate": 1}, entries[2]])
    assert code == 2
    assert out == ""
    assert "instances[1]" in err and "frobnicate" in err
    code, out, _ = compare([{**e, "symmetric": True, "grover": True} for e in entries])
    assert code == 0
    ids_again = [row["instance_id"] for row in json.loads(out)["report"]["rows"]]
    assert ids_again == ids


def test_missing_target_yields_a_config_error(capsys):
    code, _, err = run_cli(capsys, "pipeline", "--n", "12",
                           "--pairs", "0.55,0.62,0.70,0.79", "--seed", "68",
                           "--alpha-max", "1e-9")
    assert code == 2
    assert "target" in err


def test_a_gap_declared_below_the_pair_is_an_assumption_violation(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "12",
                           "--pairs", "0.55,0.62,0.70,0.79", "--seed", "68",
                           "--target", "4", "--theta-min", "1e-6")
    assert code == 3
    assert err


def test_an_oversized_register_hits_the_resource_cap(capsys):
    code, _, err = run_cli(capsys, "pipeline", *REF_ARGS,
                           "--scheme", "boosted", "--mu", "24", "--nu", "2")
    assert code == 4
    assert err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_dense_cap_below_one_is_a_config_error(capsys, cap):
    code, out, err = run_cli(capsys, "pipeline", *REF_ARGS, "--dense-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: the dense cap must be at least 1, not {cap}\n"


@pytest.mark.parametrize("command, cap", [("spectrum", "0"), ("search", "-5")])
def test_a_dense_cap_below_one_is_rejected_by_every_command(capsys, command, cap):
    # spectrum and search make no register, so no layout checks their cap
    code, out, err = run_cli(capsys, command, *REF_ARGS, "--dense-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: the dense cap must be at least 1, not {cap}\n"


def test_a_dense_cap_below_one_in_an_instance_entry_is_rejected(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 12, "theta_min": 0.44, "mu": 8, "trials": 100,
                                "instances": [{"pairs": [0.55, 0.62, 0.70, 0.79],
                                               "seed": 68, "target": 4, "dense_cap": 0}]}))
    code, out, err = run_cli(capsys, "compare", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the dense cap must be at least 1, not 0\n"


def test_an_invert_sweep_diagonalizes_its_instance_once(call_counter, capsys):
    # the inverters of every scheme run in the frame of the instance's one
    # decomposition, and the reports read their eigensystem from it too
    solves = call_counter(numerics, "eig_unitary")
    code, out, _ = run_cli(capsys, "invert", *REF_ARGS, "--mu-offset", "6",
                           "--sweep-nu", "2,4")
    assert code == 0
    assert [s["scheme"]["nu"] for s in json.loads(out)["sweeps"]] == [2, 4]
    assert solves == [1]


def test_a_boosted_invert_evaluates_each_estimate_profile_once(call_counter, capsys):
    # the report's eigenphases are the operator's frame phases, so it
    # predicts from the split the operator keeps; it made a second split
    # of its own, 24 eigenphases in all for ref12's 12
    lams = []
    call_counter(phase_estimation, "estimate_amplitudes",
                 lambda phase_bits, lam: lams.append(np.size(lam)))
    code, _, _ = run_cli(capsys, "invert", *REF_ARGS, "--scheme", "boosted",
                         "--mu-offset", "6")
    assert code == 0
    assert sum(lams) == 12


def test_an_internal_invariant_failure_exits_5_with_one_line(monkeypatch, capsys):
    # no eigendecomposition reconstructs its operator within a negative
    # tolerance, so eig_unitary's own check fails
    monkeypatch.setattr(numerics, "TOL", dataclasses.replace(
        numerics.TOL, eigen_reconstruction=-1.0))
    code, out, err = run_cli(capsys, "search", *REF_ARGS)
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal invariant failed: ")
    assert "reconstruction" in err


def test_an_eigenvalue_modulus_failure_is_an_internal_invariant(monkeypatch, capsys):
    # the input already passed the unitarity check, so a modulus off 1 is the
    # program's own fault (exit 5), not a bad configuration (exit 2)
    monkeypatch.setattr(numerics, "TOL", dataclasses.replace(
        numerics.TOL, eigen_modulus=-1.0))
    code, out, err = run_cli(capsys, "search", *REF_ARGS)
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal invariant failed: ")
    assert "moduli" in err


def test_a_computed_state_off_its_norm_exits_5_with_one_line(monkeypatch, capsys):
    # the inversion's output is a state the program computed from checked
    # ones, so tripled majority signs in the vote stage, which take its
    # norm off 1, are an internal invariant failure and not a bad argument
    original = selective_inversion._vote_basis

    def tripled(nu):
        hadamard, flip = original(nu)
        return hadamard, 3.0 * flip

    monkeypatch.setattr(selective_inversion, "_vote_basis", tripled)
    code, out, err = run_cli(capsys, "pipeline", *REF_ARGS, "--scheme", "boosted",
                             "--mu-offset", "8")
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal invariant failed: state norm ")


def test_pipeline_csv_uses_the_shared_header(capsys):
    code, out, _ = run_cli(capsys, "pipeline", *REF_ARGS, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(RESULT_HEADER.split(","))


def test_search_csv_rows_align_with_their_header(capsys):
    code, out, _ = run_cli(capsys, "search", *REF_ARGS, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) >= 2
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])


def _pipeline_row(doc):
    """The pipeline CSV row as the JSON document spells it."""
    scheme, ledger = doc["scheme"], doc["ledger"]
    return {"instance_id": doc["instance_id"], "N": doc["N"], "alpha": doc["alpha"],
            "B": doc["B"], "theta_min": scheme["theta_min"], "scheme": scheme["kind"],
            "mu": scheme["mu"], "nu": scheme["nu"], "q_m": doc["q_m"],
            "n_qaa": doc["n_qaa"], "oracle_queries": ledger["oracle_queries"],
            "controlled_s": ledger["controlled_s"],
            "success": doc["success_probability"], "epsilon": doc["epsilon_used"]}


COMPARE_CONFIG = {"n": 12, "pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68,
                  "theta_min": 0.44, "mu": 8, "trials": 100,
                  "instances": [{"target": t} for t in (4, 5, 6)]}

# command: (arguments, literal CSV header, the JSON rows the CSV prints);
# compare reads COMPARE_CONFIG from a file
CSV_FORMS = {
    "spectrum": (REF_ARGS, "target,alpha,lambda1,lambda2,B",
                 lambda doc: doc["moments"]),
    "search": (REF_ARGS, "instance_id,alpha,B,lambda_plus,lambda_minus,"
               "predicted_plus,predicted_minus,q_m,w_overlap", lambda doc: [doc]),
    "invert": (REF_ARGS + ["--sweep-mu", "6,7"],
               "mu,nu,lambda,measured,predicted,inverted",
               lambda doc: [{"mu": sweep["scheme"]["mu"], "nu": sweep["scheme"]["nu"],
                             **row}
                            for sweep in doc["sweeps"] for row in sweep["per_eigenphase"]]),
    "pipeline": (REF_ARGS + ["--mu", "8"], RESULT_HEADER,
                 lambda doc: [_pipeline_row(doc)]),
    "compare": (None, RESULT_HEADER, lambda doc: doc["report"]["rows"]),
    "schedule": (["--n", "32", "--pairs", "0.70,0.76,0.83,0.90,1.00,1.40,1.90",
                  "--seed", "2", "--target", "24", "--initial-guess", "2.8"],
                 "round,theta_guess,ran,success_probability,verified",
                 lambda doc: [{"round": k, **rec} for k, rec in enumerate(doc["rounds"])]),
}


def csv_cell(value) -> str:
    """A JSON value as the CSV prints it: a bool as its int, a string as
    itself, a number as its repr."""
    if isinstance(value, bool):
        return str(int(value))
    return value if isinstance(value, str) else repr(value)


@pytest.mark.parametrize("command", CSV_FORMS)
def test_every_csv_form_prints_the_json_rows(tmp_path, capsys, command):
    args, header, json_rows = CSV_FORMS[command]
    if args is None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(COMPARE_CONFIG))
        args = ["--config", str(path)]
    code, out, _ = run_cli(capsys, command, *args, "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == header
    assert lines[-1] == ""
    code, text, _ = run_cli(capsys, command, *args)
    assert code == 0
    rows = json_rows(json.loads(text))
    assert rows
    columns = header.split(",")
    assert [line.split(",") for line in lines[1:-1]] == [
        [csv_cell(row[c]) for c in columns] for row in rows]


def test_invert_sweep_reports_per_register_errors(capsys):
    code, out, _ = run_cli(capsys, "invert", *REF_ARGS,
                           "--sweep-mu", "8,10")
    assert code == 0
    doc = json.loads(out)
    sweeps = doc["sweeps"]
    assert len(sweeps) == 2
    eps = [s["epsilon_max"] for s in sweeps]
    assert eps[1] < eps[0]


def test_schedule_command_reports_the_verified_round(capsys):
    # the command derives its draw stream from --seed, so the verified
    # round differs from a library run with a separate draw seed
    code, out, _ = run_cli(
        capsys, "schedule", "--n", "32",
        "--pairs", "0.70,0.76,0.83,0.90,1.00,1.40,1.90", "--seed", "2",
        "--target", "24", "--initial-guess", "2.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["succeeded"] is True
    assert doc["budget"] == 315
    assert 1 <= doc["rounds_used"] <= doc["budget"]
    assert doc["theta_guesses"][0] == 2.8


SCHEDULE_ARGS = ("schedule", "--n", "32", "--pairs", "0.70,0.76,0.83,0.90,1.00,1.40,1.90",
                 "--seed", "2", "--target", "24", "--initial-guess", "2.8")


@pytest.mark.parametrize("flags, key", [(("--mu", "6", "--nu", "2"), "mu"),
                                        (("--nu", "2"), "nu")])
def test_schedule_rejects_a_fixed_register_size(capsys, flags, key):
    # a schedule sizes a new register for each gap guess; a fixed mu or nu
    # used to be ignored while the embedded config claimed it had run
    code, out, err = run_cli(capsys, *SCHEDULE_ARGS, "--scheme", "boosted",
                             "--mu-offset", "4", *flags)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f'error: schedule sizes a register for each gap guess '
                          f'and takes no "{key}"')


@pytest.mark.parametrize("r_max", ["0", "-2"])
def test_schedule_rejects_a_budget_below_one_round(capsys, r_max):
    # a budget below one round used to run no round and report it
    code, out, err = run_cli(capsys, *SCHEDULE_ARGS, "--r-max", r_max)
    assert (code, out) == (2, "")
    assert err == f"error: the round budget r_max must be at least 1, not {r_max}\n"


@pytest.mark.parametrize("guess", ["nan", "inf"])
def test_schedule_rejects_a_guess_that_is_not_finite(capsys, guess):
    # a NaN guess used to fail converting a register size to an integer,
    # and an infinite one in sizing the round budget, with a traceback
    code, out, err = run_cli(capsys, *SCHEDULE_ARGS[:-1], guess)
    assert (code, out) == (2, "")
    assert err == f"error: initial_guess must be a finite positive gap guess, not {guess}\n"


@pytest.mark.parametrize("args, flag", [
    ((*SCHEDULE_ARGS[:-1], "-inf"), "--initial-guess"),
    (("pipeline", *REF_ARGS, "--bogus", "3"), "--bogus")])
def test_an_argument_the_parser_rejects_exits_2_with_one_line(capsys, args, flag):
    # argparse's own errors used to print its usage block before the error
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: ") and flag in err


def test_timings_flag_adds_wall_time(capsys):
    code, out, _ = run_cli(capsys, "spectrum", *REF_ARGS, "--timings")
    assert code == 0
    doc = json.loads(out)
    assert doc["timings"]["wall_s"] >= 0.0


def test_out_flag_writes_the_document_to_a_file(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "spectrum", *REF_ARGS,
                           "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == "spectrum"


def test_an_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "missing" / "doc.json"
    code, out, err = run_cli(capsys, "spectrum", *REF_ARGS, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not path.parent.exists()


def readme_examples():
    """Every ``eigensearch ...`` command in the README's code blocks, with
    line continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        joined = block.replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in joined.splitlines()
                     if line.startswith("eigensearch ")]
    return commands


def test_readme_has_an_example_per_documented_command():
    assert {args[0] for args in readme_examples()} == {
        "spectrum", "pipeline", "invert", "schedule"}


@pytest.mark.parametrize("args", readme_examples(), ids=lambda a: a[0])
def test_readme_examples_run(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    assert out


# a config value that its option cannot take, one or more per kind of option
MALFORMED = [("pairs", 5), ("pairs", [0.55, "x"]), ("pairs", []), ("sweep_mu", []),
             ("delta", [0.1]), ("out", 5),
             ("seed", 1.5), ("mu", 8.9), ("n", True), ("timings", "no"),
             ("format", "xml"), ("scheme", 3), ("sweep_nu", "2,x"), ("target", {}),
             ("seed", None), ("instances", 3), ("instances", [3])]


@pytest.mark.parametrize("key, value", MALFORMED,
                         ids=[f"{key}={json.dumps(value)}" for key, value in MALFORMED])
def test_a_malformed_config_value_exits_2_naming_its_key(tmp_path, capsys, key, value):
    # at the top level of the config and in an instance entry alike, the
    # value is rejected in one line before anything runs
    path = tmp_path / "cfg.json"
    entries = [{"target": 4}, {"target": 5, key: value}]
    for cfg, where in (({**COMPARE_CONFIG, key: value}, "config"),
                       ({**COMPARE_CONFIG, "instances": entries}, "instances[1]")):
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "compare", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {json.dumps(key)} in {where} cannot be ")


def test_a_flag_value_its_option_cannot_take_exits_2_naming_it(capsys):
    code, out, err = run_cli(capsys, "pipeline", *REF_ARGS, "--mu", "8.9")
    assert (code, out) == (2, "")
    assert err == 'error: "mu" in the flags cannot be "8.9"; it takes integers\n'


@pytest.mark.parametrize("command, key", [("spectrum", "pairs"), ("invert", "sweep_mu")])
def test_an_empty_list_flag_exits_2_naming_it(capsys, command, key):
    flags = {k: v for k, v in zip(REF_ARGS[::2], REF_ARGS[1::2])}
    flags["--" + key.replace("_", "-")] = ""
    code, out, err = run_cli(capsys, command, *[t for kv in flags.items() for t in kv])
    assert (code, out) == (2, "")
    assert err == (f'error: "{key}" in the flags cannot be ""; it takes a list of '
                   f'one or more {"numbers" if key == "pairs" else "integers"}\n')


def test_a_source_index_out_of_range_exits_2(capsys):
    # the symmetric builder checks it as the Grover builder does
    for spec in (REF_ARGS[2:4], ["--grover"]):
        code, out, err = run_cli(capsys, "spectrum", "--n", "12", *spec, "--source", "99")
        assert (code, out) == (2, "")
        assert err == "error: source index 99 out of range\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_a_dimension_below_one_exits_2_naming_it(capsys, n):
    # the symmetric builder checks the dimension before the source index
    code, out, err = run_cli(capsys, "pipeline", "--n", n, *REF_ARGS[2:])
    assert (code, out) == (2, "")
    assert err == f"error: invalid dimension {n}; need n >= 1\n"


def test_a_target_index_out_of_range_exits_2(capsys):
    for target in ("99", "-1"):
        code, out, err = run_cli(capsys, "spectrum", "--n", "12", *REF_ARGS[2:4],
                                 "--target", target)
        assert (code, out) == (2, "")
        assert err == f"error: target index {target} out of range\n"


# command: the same settings as flags and as a config file
EQUIVALENT = {
    "pipeline": (REF_ARGS + ["--scheme", "boosted", "--mu-offset", "8"],
                 {"n": 12, "pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68,
                  "theta_min": 0.44, "target": 4, "scheme": "boosted", "mu_offset": 8}),
    "invert": (REF_ARGS + ["--sweep-mu", "8,10"],
               {"n": 12, "pairs": [0.55, 0.62, 0.70, 0.79], "seed": 68,
                "theta_min": 0.44, "target": 4, "sweep_mu": [8, 10]}),
    "schedule": (["--n", "32", "--pairs", "0.70,0.76,0.83,0.90,1.00,1.40,1.90",
                  "--seed", "2", "--target", "24", "--initial-guess", "2.8"],
                 {"n": 32, "pairs": [0.70, 0.76, 0.83, 0.90, 1.00, 1.40, 1.90],
                  "seed": 2, "target": 24, "initial_guess": 2.8}),
}


@pytest.mark.parametrize("command", EQUIVALENT)
def test_flags_and_a_config_file_give_the_same_document(tmp_path, capsys, command):
    flags, cfg = EQUIVALENT[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, from_flags, _ = run_cli(capsys, command, *flags)
    assert code == 0
    code, from_config, _ = run_cli(capsys, command, "--config", str(path))
    assert code == 0
    assert from_config == from_flags
