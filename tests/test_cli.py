"""Command line interface, exercised through real subprocesses."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

from qapm import cli
from qapm.scenario import builtin_table1, save_scenario
from qapm.sim import run_loop

CLI = [sys.executable, "-m", "qapm"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*args):
    env = dict(os.environ)
    # the package under test, also when pytest alone put src/ on its path
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
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


def test_run_without_out_records_no_trace(tmp_path, monkeypatch, capsys):
    # Nothing would write the trace, so none is recorded; the summary line
    # is the one a run with --out prints.
    results = []

    def spy(sc):
        results.append(run_loop(sc))
        return results[-1]

    monkeypatch.setattr(cli, "run_loop", spy)
    args = ["run", "--builtin", "table1", "--cpu", "cpu-2", "--duration", "1"]
    lines = []
    for extra in (["--out", str(tmp_path / "run")], []):
        assert cli.main(args + extra) == 0
        lines.append(capsys.readouterr().out)
    assert [len(r.trace.rows) for r in results] == [1001 * 4, 0]
    assert lines[0] == lines[1]


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
    assert p.stderr.startswith("error: loops: expected list"), p.stderr
    # a file that parses but breaks a cross-field check
    sc = builtin_table1().with_(trace_cadence_ms=0.0)
    save_scenario(sc, bad)
    p = run_cli("validate", "--scenario", str(bad))
    assert p.returncode == 2
    assert p.stderr.startswith("error: trace_cadence_ms: "), p.stderr


def test_out_of_range_integer_is_config_error(tmp_path):
    # An integer too large for a float, where a float is read, is a
    # configuration error tagged with its field, not a traceback.
    big = "1" * 401
    path = tmp_path / "big.yaml"
    save_scenario(builtin_table1(), path)
    text = path.read_text()
    for old, new, field in (
            ("duration_s: 12.0", f"duration_s: {big}", "duration_s: "),
            ("    kp: 10000.0", f"    kp: {big}", "loops[0].gains.kp: "),
            ("    - 1000.0", f"    - {big}", "loops[0].plant: "),
            ("  levels:\n  - 1.0", f"  levels:\n  - {big}", "cpu.levels: ")):
        path.write_text(text.replace(old, new, 1))
        p = run_cli("validate", "--scenario", str(path))
        assert p.returncode == 2, p.stderr
        assert p.stderr.startswith("error: " + field), p.stderr
        assert "Traceback" not in p.stderr


# SHA-256 of the files `run --builtin table1 --cpu cpu-2 --duration 2 --out`
# writes.  Re-pin only where a change to the model's numerics or to the file
# layout is the cause, and log old -> new.
RUN_FILES_SHA256 = {
    "scenario.yaml": "0e8bfb62a2affba757237a7b297bc0c9de1683639fdbb8463646c17d080856f8",
    "trace.csv": "65242a2f28ad91b225a57d38ac7bcf2e25266916c86f230565f38c6d95ea563d",
}


def test_run_files_are_pinned(tmp_path):
    out = tmp_path / "run"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-2",
                "--duration", "2", "--out", str(out))
    assert p.returncode == 0, p.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in RUN_FILES_SHA256}
    assert got == RUN_FILES_SHA256


def test_builtin_runs_do_not_import_yaml(tmp_path):
    # Writing scenario.yaml for a builtin scenario needs no YAML library.
    for args in (["run", "--builtin", "table1", "--duration", "0.1",
                  "--out", str(tmp_path / "run")],
                 ["sweep", "--builtin", "table1", "--all-cpus",
                  "--duration", "0.1", "--out", str(tmp_path / "sweep")]):
        code = ("import sys; from qapm.cli import main; rc = main(sys.argv[1:]); "
                "print('yaml' in sys.modules); sys.exit(rc)")
        p = subprocess.run([sys.executable, "-c", code, *args],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC))
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines()[-1] == "False", args
    assert (tmp_path / "run" / "scenario.yaml").is_file()
    assert (tmp_path / "sweep" / "cpu-4" / "scenario.yaml").is_file()


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


def test_sweep_without_out_is_usage_error():
    p = run_cli("sweep", "--builtin", "table1", "--all-cpus")
    assert p.returncode == 2
    assert "--out" in p.stderr
    assert p.stdout == ""


def test_diverging_plant_exits_4_naming_loop_and_time(tmp_path):
    # A proportional gain of 1e9 on loop 1 drives its plant to inf.
    sc = builtin_table1()
    lp = sc.loops[0]
    loops = (dataclasses.replace(lp, gains=dataclasses.replace(lp.gains, kp=1.0e9)),
             ) + sc.loops[1:]
    path = tmp_path / "diverging.yaml"
    save_scenario(sc.with_(loops=loops, duration_s=1.0), path)
    runs = (("error: ", run_cli("run", "--scenario", str(path))),
            ("error [osdvs]: ", run_cli("sweep", "--scenario", str(path),
                                        "--all-cpus", "--out", str(tmp_path / "sw"))))
    for prefix, p in runs:
        assert p.returncode == 4, p.stderr
        assert "Traceback" not in p.stderr
        lines = p.stderr.splitlines()
        assert len(lines) == 1, p.stderr
        assert lines[0].startswith(prefix + "loop 1: state diverged"), p.stderr
        assert re.search(r"by t = 0\.\d{6} s$", lines[0]), p.stderr
