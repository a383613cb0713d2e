"""Command-line surface: config resolution, output formats, exit codes."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import eigensearch as es
from eigensearch import numerics
from eigensearch.cli import main

REF_ARGS = ["--n", "12", "--pairs", "0.55,0.62,0.70,0.79",
            "--seed", "68", "--theta-min", "0.44", "--target", "4"]


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


def test_pipeline_csv_uses_the_shared_header(capsys):
    code, out, _ = run_cli(capsys, "pipeline", *REF_ARGS, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == es.CSV_HEADER
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(es.CSV_HEADER.split(","))


def test_search_csv_rows_align_with_their_header(capsys):
    code, out, _ = run_cli(capsys, "search", *REF_ARGS, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) >= 2
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])


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
