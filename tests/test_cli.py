"""Command line interface, exercised through real subprocesses."""

import csv
import json
import os
import subprocess
import sys

from qapm.scenario import save_scenario

CLI = [sys.executable, "-m", "qapm"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("QAPM_MODE", None)
    env.pop("QAPM_CPU", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env)


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-3",
                "--duration", "2", "--out", str(out))
    assert p.returncode == 0, p.stderr
    assert "E_AVG=" in p.stdout and "J_SUM=" in p.stdout
    assert (out / "scenario.yaml").is_file()
    assert (out / "trace.csv").is_file()
    assert (out / "report.json").is_file()
    rep = json.loads((out / "report.json").read_text())
    assert rep["mode"] == "qapm"
    assert rep["cpu"] == "cpu-3"
    assert rep["duration_s"] == 2.0


def test_run_without_out_prints_summary_only(tmp_path):
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-1",
                "--mode", "dvs-only", "--duration", "1")
    assert p.returncode == 0, p.stderr
    assert len(p.stdout.strip().splitlines()) == 1
    assert "mode=dvs-only" in p.stdout


def test_run_svg_charts(tmp_path):
    out = tmp_path / "run"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-2",
                "--duration", "1", "--out", str(out), "--svg")
    assert p.returncode == 0, p.stderr
    assert (out / "energy.svg").is_file()
    assert (out / "periods.svg").is_file()


def test_run_from_scenario_file(tmp_path):
    out1 = tmp_path / "a"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-4",
                "--duration", "1", "--out", str(out1))
    assert p.returncode == 0, p.stderr
    out2 = tmp_path / "b"
    p = run_cli("run", "--scenario", str(out1 / "scenario.yaml"),
                "--out", str(out2))
    assert p.returncode == 0, p.stderr
    assert (out2 / "report.json").read_bytes() == \
        (out1 / "report.json").read_bytes()


def test_unknown_cpu_is_config_error():
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-99",
                "--duration", "1")
    assert p.returncode == 2
    assert "cpu-99" in p.stderr


def test_bad_scenario_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed")
    p = run_cli("run", "--scenario", str(bad))
    assert p.returncode == 2


def test_strict_flag_escalates_misses(tmp_path, overload_scenario):
    # a scenario whose overload no speed or period choice can absorb
    path = tmp_path / "overload.yaml"
    save_scenario(overload_scenario, path)
    args = ("run", "--scenario", str(path))
    relaxed = run_cli(*args)
    assert relaxed.returncode == 0, relaxed.stderr
    assert "misses=694" in relaxed.stdout
    strict = run_cli(*args, "--strict")
    assert strict.returncode == 3
    assert "misses=694" in strict.stdout
    assert "deadline miss" in strict.stderr


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-2",
                    "--duration", "2", "--out", str(out))
        assert p.returncode == 0, p.stderr
        outs.append(out)
    for fname in ("trace.csv", "report.json", "scenario.yaml"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_env_variable_overrides_mode(tmp_path):
    out = tmp_path / "env"
    p = run_cli("run", "--builtin", "table1", "--duration", "1",
                "--out", str(out), env_extra={"QAPM_MODE": "osdvs"})
    assert p.returncode == 0, p.stderr
    assert json.loads((out / "report.json").read_text())["mode"] == "osdvs"


def test_validate_ok(tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--builtin", "table1", "--duration", "1", "--out", str(out))
    p = run_cli("validate", "--scenario", str(out / "scenario.yaml"))
    assert p.returncode == 0
    assert "ok" in p.stdout


def test_validate_rejects_broken_file(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("loops: 3")
    p = run_cli("validate", "--scenario", str(bad))
    assert p.returncode == 2


def test_sweep_emits_summary_table(tmp_path):
    out = tmp_path / "sweep"
    p = run_cli("sweep", "--builtin", "table1", "--all-cpus",
                "--duration", "2", "--out", str(out))
    assert p.returncode == 0, p.stderr
    cases = ["osdvs", "cpu-1", "cpu-2", "cpu-3", "cpu-4", "cpu-ideal"]
    for case in cases:
        assert (out / case / "report.json").is_file()
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case"] + cases
    assert [r[0] for r in rows[1:]] == ["E_AVG", "J_SUM"]
    e_row = [float(v) for v in rows[1][1:]]
    # energy must fall monotonically from the baseline to the ideal CPU
    assert all(a > b for a, b in zip(e_row, e_row[1:]))
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == set(cases)


def test_malformed_numeric_env_variable_is_config_error():
    for name, value in (("QAPM_DURATION", "abc"), ("QAPM_SEED", "1.5")):
        p = run_cli("run", "--builtin", "table1", env_extra={name: value})
        assert p.returncode == 2, (name, p.stderr)
        assert name in p.stderr and "Traceback" not in p.stderr
