"""Command line interface, exercised through real subprocesses."""

import csv
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import weakref

import pytest

from qapm import cli
from qapm.plant import TransferFunction
from qapm.scenario import MODES, builtin_table1, resolve_cpu, save_scenario
from qapm.sim import run_loop

from conftest import long_rows

CLI = [sys.executable, "-m", "qapm"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    # the package under test, also when pytest alone put src/ on its path
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, **kwargs)


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
    assert [len(long_rows(r.trace)) for r in results] == [1001 * 4, 0]
    assert lines[0] == lines[1]


def test_run_out_without_trace_writes_the_header_only(tmp_path, capsys):
    # A scenario that records no trace still gets a trace.csv with --out.
    path = tmp_path / "untraced.yaml"
    save_scenario(builtin_table1().with_(duration_s=0.1,
                                         trace_cadence_ms=None), path)
    out = tmp_path / "run"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "trace.csv").read_bytes() == (
        b"time_s,r,alpha,y1,u1,h_eff_ms1,y2,u2,h_eff_ms2,"
        b"y3,u3,h_eff_ms3,y4,u4,h_eff_ms4\r\n")


@pytest.mark.parametrize("args, cases", [
    (["run", "--cpu", "cpu-2"], [""]),
    (["sweep", "--all-cpus"], [label for label, _, _ in cli.SWEEP_CASES]),
], ids=["run", "sweep"])
def test_out_dirs_hold_what_the_benchmark_checks(tmp_path, capsys, args,
                                                 cases):
    # perfbench/run.py (`_check_run_dir`) fails an invocation whose run
    # directory lacks one of these files or the trace.csv header.
    out = tmp_path / "out"
    assert cli.main(args + ["--builtin", "table1", "--duration", "0.05",
                            "--out", str(out)]) == 0
    for case in cases:
        json.loads((out / case / "report.json").read_text())
        assert (out / case / "scenario.yaml").is_file()
        with open(out / case / "trace.csv", encoding="utf-8") as fh:
            assert fh.readline().startswith("time_s,")


# SHA-256 of the charts `run --builtin table1 --cpu cpu-2 --duration 1 --out
# --svg` draws.  Re-pin only where a change to the model's numerics or to the
# chart layout is the cause, and log old -> new.
SVG_FILES_SHA256 = {
    "energy.svg": "68987c4f8ef0193d69c516b3babbad6387f344d01aa583249e4fa6e50e48f7d6",
    "periods.svg": "bb08fbebb5044151fa2561668e29305a7c7ee27eefa75844810b75c55b448f51",
}


def test_run_svg_charts(tmp_path):
    out = tmp_path / "run"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-2",
                "--duration", "1", "--out", str(out), "--svg")
    assert p.returncode == 0, p.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SVG_FILES_SHA256}
    assert got == SVG_FILES_SHA256


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
    bad.write_text("name: [unclosed\n")
    for command in ("run", "validate"):
        p = run_cli(command, "--scenario", str(bad))
        assert p.returncode == 2
        # one line, naming where PyYAML stopped
        assert p.stderr.count("\n") == 1 and p.stderr.endswith("\n"), p.stderr
        assert p.stderr.startswith(f"error: {bad}: parse error at line 2, "
                                   "column 1: "), p.stderr


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
    # a file that parses but breaks a range check
    save_scenario(builtin_table1(), bad)
    bad.write_text(bad.read_text().replace("trace_cadence_ms: 1.0",
                                           "trace_cadence_ms: 0.0"))
    p = run_cli("validate", "--scenario", str(bad))
    assert p.returncode == 2
    assert p.stderr.startswith("error: trace_cadence_ms: "), p.stderr


@pytest.mark.parametrize("old, new, error", (
    ("    - 50.0\n", "    - 50.0\n" + "    - 1.0\n" * 8,
     "loops[0].plant: order 9 exceeds supported maximum 8"),
    ("micro_step_us: 100\n", "micro_step_us: 0\n",
     "micro_step_us: must be in [1, 1000], got 0"),
    ("micro_step_us: 100\n", "micro_step_us: 1001\n",
     "micro_step_us: must be in [1, 1000], got 1001"),
    ("c_nom_ms: 2.0\n", "c_nom_ms: 6.0\n",
     "loops: nominal workload sum(c_nom/h0) = 2.873810 exceeds 1; "
     "task set infeasible"),
    # non-finite numbers, which the run could not turn into ticks or
    # states, each rejected by the kind rule with its field's path
    ("  ideal: true\n  levels:\n  - 1.0\n",
     "  ideal: false\n  levels:\n  - .nan\n  - 1.0\n",
     "cpu.levels[0]: must be finite, got nan"),
    ("h0_ms: 10.0\n  h_max_ms: 40.0\n", "h0_ms: 10.0\n  h_max_ms: .inf\n",
     "loops[0].h_max_ms: must be finite, got inf"),
    ("    num:\n    - 1.0\n    den:\n    - 50.0\n",
     "    num:\n    - .inf\n    den:\n    - 50.0\n",
     "loops[0].plant.num[0]: must be finite, got inf"),
    ("    kp: 10000.0\n", "    kp: .inf\n",
     "loops[0].gains.kp: must be finite, got inf"),
    ("    e_max: 0.3\n- id: 2\n", "    e_max: .inf\n- id: 2\n",
     "loops[0].adaptation.e_max: must be finite, got inf"),
    # a plant whose monic form, on division by the leading denominator
    # coefficient, overflows
    ("    - 50.0\n    - 1000.0\n", "    - 1.0\n    - 1.0e-310\n",
     "loops[0].plant: monic form overflows: num=(1.0,) den=(1.0, 1e-310) "
     "divided by 1e-310"),
    # a plant whose numerator, on that division, underflows to zero
    ("    num:\n    - 1.0\n    den:\n    - 50.0\n    - 1000.0\n",
     "    num:\n    - 1.0e-320\n    den:\n    - 50.0\n    - 1.0e+10\n",
     "loops[0].plant: numerator is zero in monic form: (1e-320,)"),
    # numbers of the wrong kind: a quoted one (read by PyYAML) and a bool
    ("    num:\n    - 1.0\n    den:\n    - 50.0\n",
     "    num: ['1.0']\n    den:\n    - 50.0\n",
     "loops[0].plant.num[0]: expected float, got '1.0'"),
    ("  ideal: true\n  levels:\n  - 1.0\n",
     "  ideal: false\n  levels:\n  - true\n  - 1.0\n",
     "cpu.levels[0]: expected float, got True"),
    # a beta that leaves period adaptation nothing to interpolate
    ("h0_ms: 10.0\n  h_max_ms: 40.0\n  adaptation:\n    beta: 40.0\n",
     "h0_ms: 10.0\n  h_max_ms: 40.0\n  adaptation:\n    beta: 1.0e-300\n",
     "loops[0].adaptation: beta must make exp(-beta*e_min) and "
     "exp(-beta*e_max) differ, got beta=1e-300 (both 1.0)"),
    # the mode of an osdvs/scenario.yaml that a sweep wrote before osDVS
    # became dvs-only on cpu-ideal
    ("mode: qapm\n", "mode: osdvs\n",
     "mode: 'osdvs' not one of qapm/dvs-only (the osDVS baseline is "
     "dvs-only on cpu-ideal)"),
    # misspelled keys, rejected rather than read as their defaults
    ("c_jitter: 0.0\n", "c_jiter: 0.2\n", "c_jiter: unknown field"),
    ("- id: 1\n", "- id: 1\n  adaptaton:\n    beta: 5.0\n",
     "loops[0].adaptaton: unknown field"),
), ids=("order-9-plant", "micro-step-0", "micro-step-1001", "overload",
        "nan-level", "inf-h-max", "inf-numerator", "inf-gain", "inf-e-max",
        "tiny-leading-coefficient", "underflowing-numerator",
        "quoted-coefficient", "bool-level", "tiny-beta", "osdvs-mode",
        "misspelled-top-key", "misspelled-loop-key"))
def test_validate_rejects_what_run_rejects(tmp_path, old, new, error):
    # Every configuration `run` rejects, `validate` rejects too, with the
    # same one line naming the field.
    path = tmp_path / "bad.yaml"
    save_scenario(builtin_table1(), path)
    path.write_text(path.read_text().replace(old, new))
    stderr = []
    for command in ("validate", "run"):
        p = run_cli(command, "--scenario", str(path))
        assert p.returncode == 2, p.stderr
        assert p.stdout == ""
        stderr.append(p.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0] == f"error: {error}\n"


def test_osdvs_is_not_a_mode_flag():
    # osDVS is dvs-only on cpu-ideal, which the sweep runs as its osdvs case
    p = run_cli("run", "--builtin", "table1", "--mode", "osdvs")
    assert p.returncode == 2
    assert p.stdout == ""
    assert "argument --mode: invalid choice: 'osdvs'" in p.stderr


def test_bad_override_is_config_error(tmp_path):
    # A flag that makes the scenario invalid fails as the scenario is
    # built: one line naming every field, exit 2, and nothing run.
    duration = ("duration_s: must be a non-negative whole number of "
                "microseconds, got -1.0")
    out = tmp_path / "sweep"
    for command, rest, error in (
            ("run", ["--micro-step", "0"],
             f"{duration}; micro_step_us: must be in [1, 1000], got 0"),
            ("sweep", ["--all-cpus", "--out", str(out)], duration)):
        p = run_cli(command, "--builtin", "table1", "--duration", "-1", *rest)
        assert p.returncode == 2, p.stderr
        assert p.stdout == ""
        assert p.stderr == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ("run", "sweep"))
def test_out_naming_a_file_is_config_error(tmp_path, command):
    # The outputs cannot be written: one error line and exit 2.
    taken = tmp_path / "taken"
    taken.write_text("")
    args = ["--all-cpus"] if command == "sweep" else []
    p = run_cli(command, "--builtin", "table1", *args, "--duration", "0.01",
                "--out", str(taken))
    assert p.returncode == 2, p.stderr
    assert p.stdout == ""
    assert p.stderr.startswith("error: ") and p.stderr.count("\n") == 1, \
        p.stderr
    assert str(taken) in p.stderr


@pytest.mark.parametrize("command, extra, names", (
    ("run", ["--out", "{taken}"], ["{taken}"]),
    ("sweep", ["--all-cpus", "--out", "{taken}"], ["{taken}"]),
    ("run", ["--svg"], ["--svg", "--out"]),
), ids=("run-out-file", "sweep-out-file", "svg-without-out"))
def test_unwritable_outputs_fail_before_any_run(tmp_path, monkeypatch, capsys,
                                                command, extra, names):
    # Outputs that cannot be written end with one error line and exit 2
    # before anything is simulated.
    def no_run(sc):
        raise AssertionError("run_loop called")

    monkeypatch.setattr(cli, "run_loop", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    extra = [a.format(taken=taken) for a in extra]
    rc = cli.main([command, "--builtin", "table1", "--duration", "0.01", *extra])
    out, err = capsys.readouterr()
    assert rc == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(n.format(taken=taken) in err for n in names), err


def test_non_utf8_scenario_file_is_config_error(tmp_path):
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"name: \xff\xfe\n")
    for command in ("run", "validate"):
        p = run_cli(command, "--scenario", str(path))
        assert p.returncode == 2, p.stderr
        assert p.stderr == ("error: 'utf-8' codec can't decode byte 0xff in "
                            "position 6: invalid start byte\n"), p.stderr


def test_out_of_range_integer_is_config_error(tmp_path):
    # An integer too large for a float, where a float is read, is a
    # configuration error tagged with its field, not a traceback.  So is
    # one past Python's limit on the digits of an int: tagged with its
    # field in the saved layout, and with the file when PyYAML reads it.
    big, huge = "1" * 401, "1" * 5000
    path = tmp_path / "big.yaml"
    save_scenario(builtin_table1(), path)
    text = path.read_text()
    comment = "# read by PyYAML\n"
    for head, old, new, field in (
            ("", "duration_s: 12.0", f"duration_s: {big}", "duration_s: "),
            ("", "    kp: 10000.0", f"    kp: {big}", "loops[0].gains.kp: "),
            ("", "    - 1000.0", f"    - {big}", "loops[0].plant.den[1]: "),
            ("", "  levels:\n  - 1.0", f"  levels:\n  - {big}",
             "cpu.levels[0]: "),
            ("", "seed: 0", f"seed: {huge}", "seed: "),
            ("", "duration_s: 12.0", f"duration_s: {huge}", "duration_s: "),
            (comment, "seed: 0", f"seed: {huge}", f"{path}: "),
            (comment, "duration_s: 12.0", f"duration_s: {huge}", f"{path}: ")):
        path.write_text(head + text.replace(old, new, 1))
        p = run_cli("validate", "--scenario", str(path))
        assert p.returncode == 2, p.stderr
        assert p.stderr.startswith("error: " + field), p.stderr
        assert "Traceback" not in p.stderr


# SHA-256 of the files `run --builtin table1 --cpu cpu-2 --duration 2 --out`
# writes.  Re-pin only where a change to the model's numerics or to the file
# layout is the cause, and log old -> new.
RUN_FILES_SHA256 = {
    "scenario.yaml": "0e8bfb62a2affba757237a7b297bc0c9de1683639fdbb8463646c17d080856f8",
    "trace.csv": "b14ef09c522fec46082100d95ea0ba05a3e67093cb47be732bbfece7bbb8e6f2",
}
# (j_sum, e_avg, misses) of that run, as report.json holds them, asserted
# before the hashes so that a failing pin names what moved.  Re-pin with
# the hashes.
RUN_FIGURES = (1.34794, 0.581751, 0)


def test_run_files_are_pinned(tmp_path):
    out = tmp_path / "run"
    p = run_cli("run", "--builtin", "table1", "--cpu", "cpu-2",
                "--duration", "2", "--out", str(out))
    assert p.returncode == 0, p.stderr
    rep = json.loads((out / "report.json").read_text())
    assert (rep["j_sum"], rep["e_avg"], rep["misses"]) == RUN_FIGURES
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in RUN_FILES_SHA256}
    assert got == RUN_FILES_SHA256


# SHA-256 of the files `sweep --builtin table1 --all-cpus --duration 0.5 --out`
# writes: the summary and each case's report and trace.  Re-pin only where a
# change to the model's numerics or to the file layout is the cause, and log
# old -> new.
SWEEP_FILES_SHA256 = {
    "summary.json": "5f3ffe7bd2cd601f77d151aa36301ca9ac20cd0d9b5ea91a1c9ec3304c444294",
    "summary.csv": "ec3965a842e4b23500f0305de72a296be69ab95f02a32f6b1acb2bc146c9dcf7",
    "osdvs/report.json": "30d63a0cf9d387c97ca71942b5f7d7f22fe5d56caa242d9f226aa264c91a1eab",
    "osdvs/trace.csv": "8d6a6df1f3f92ac9076a37beeae5a8e694292dc013f9b3d55ddb56e57a14d8f9",
    "cpu-1/report.json": "883ca9e1a14f875880bc0dd5ff4b4f9e402b21976bab60fdf2f5ae4b1e6edb18",
    "cpu-1/trace.csv": "a4ced0f015e10fb7a4bf2b6d9e24d0d0a6a6da4a74196f833aec26ece7599064",
    "cpu-2/report.json": "9969dbf49957458f9daf9cf312e6bb6d6bfb8bf08ab5d97ba8cf1ca5a6953399",
    "cpu-2/trace.csv": "1dc155da613c4c706b4b40405090d4090e04f195bd8a4f425d9d6f36ed7a50cd",
    "cpu-3/report.json": "0b415496c5ca8cb58363c0b770cdb3e805be7c9475521b84e3aedf82280cf4e0",
    "cpu-3/trace.csv": "c0da75f88b5117e169255767e5c167792f9d15cbb854f77d4c42a16aae6f13e8",
    "cpu-4/report.json": "f4419e0db2365cd039f4dec33598a8ad5c15dbe9b82c564701c46684532a4aa9",
    "cpu-4/trace.csv": "da9daa53987962ed39258fcf68f08ed136a8af1b71c00efcd629e13228422552",
    "cpu-ideal/report.json": "9bb398cadc16241ab78ec0c798ef9c44e80466e59e45b7a62c0126eec608dade",
    "cpu-ideal/trace.csv": "5004a90aa3a3fa2d2ed5e21bf7882e50e3f3b4b56d6925d71357c3805bcb37be",
}
# (J_SUM, E_AVG, misses) of each case, unrounded as summary.json holds
# them, asserted before the hashes so that a failing pin names what moved.
# Re-pin with the hashes.
SWEEP_FIGURES = {
    "osdvs": (0.6447926278209586, 0.9176423532375912, 0),
    "cpu-1": (0.6492464113378094, 1.0, 0),
    "cpu-2": (0.6490352171110803, 0.8645621151999999, 0),
    "cpu-3": (0.649145238900534, 0.7881003694, 0),
    "cpu-4": (0.6475357539621334, 0.7531201028139999, 0),
    "cpu-ideal": (0.6549152825309916, 0.6771538789981572, 0),
}


def test_sweep_files_are_pinned(tmp_path):
    out = tmp_path / "sweep"
    p = run_cli("sweep", "--builtin", "table1", "--all-cpus",
                "--duration", "0.5", "--out", str(out))
    assert p.returncode == 0, p.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert {case: (c["J_SUM"], c["E_AVG"], c["misses"])
            for case, c in summary.items()} == SWEEP_FIGURES
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SWEEP_FILES_SHA256}
    assert got == SWEEP_FILES_SHA256


def test_zero_duration_prints_and_writes_nan_energy(tmp_path):
    # A run of zero duration has no average energy draw: `run` and `sweep`
    # print E_AVG=nan and summary.csv holds nan, where summary.json and
    # report.json hold null.
    out = tmp_path / "sweep"
    p = run_cli("sweep", "--builtin", "table1", "--all-cpus",
                "--duration", "0", "--out", str(out))
    assert p.returncode == 0, p.stderr
    assert p.stdout.count("E_AVG=nan ") == 6, p.stdout
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["E_AVG"] + ["nan"] * 6
    summary = json.loads((out / "summary.json").read_text())
    assert {c["E_AVG"] for c in summary.values()} == {None}
    p = run_cli("run", "--builtin", "table1", "--duration", "0")
    assert p.returncode == 0, p.stderr
    assert " E_AVG=nan " in p.stdout


def test_builtin_runs_do_not_import_yaml(tmp_path):
    # Writing scenario.yaml for a builtin scenario, and reading a file in
    # the layout save_scenario writes, needs no YAML library; no command
    # loads dataclasses or inspect either.
    saved = tmp_path / "saved.yaml"
    save_scenario(builtin_table1().with_(duration_s=0.1), saved)
    for args in (["run", "--builtin", "table1", "--duration", "0.1",
                  "--out", str(tmp_path / "run")],
                 ["sweep", "--builtin", "table1", "--all-cpus",
                  "--duration", "0.1", "--out", str(tmp_path / "sweep")],
                 ["run", "--scenario", str(saved)],
                 ["validate", "--scenario", str(saved)]):
        code = ("import sys; from qapm.cli import main; rc = main(sys.argv[1:]); "
                "print(sorted({'yaml', 'dataclasses', 'inspect'} & set(sys.modules))); "
                "sys.exit(rc)")
        p = subprocess.run([sys.executable, "-c", code, *args],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC))
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines()[-1] == "[]", args
    assert (tmp_path / "run" / "scenario.yaml").is_file()
    assert (tmp_path / "sweep" / "cpu-4" / "scenario.yaml").is_file()


def test_kernels_compile_inside_run_loop():
    # Importing the command line and building a scenario compiles no plant
    # kernel; the first run compiles one per plant order, coefficient
    # pattern and whether the plant takes trace samples that it meets,
    # inside run_loop, where the benchmark's sim_speed_x times it.
    # table1's three second-order plants differ only in A's last row and
    # C's first entry, so they share one kernel, and a second run, on
    # another processor, compiles none.  A run with no trace compiles its
    # own two kernels, without the sample rule, and a second one none.
    code = ("import qapm.cli, qapm.plant as plant, qapm.scenario as s, "
            "qapm.sim as sim; print(len(plant._KERNELS)); "
            "sc = s.builtin_table1().with_(duration_s=0.01); "
            "print(len(plant._KERNELS)); sim.run_loop(sc); "
            "keys = lambda: sorted((n, smp) for n, _, smp in plant._KERNELS); "
            "print(keys()); "
            "sim.run_loop(sc.with_(cpu=s.resolve_cpu('cpu-2'))); "
            "print(len(plant._KERNELS)); "
            "sim.run_loop(sc.with_(trace_cadence_ms=None)); print(keys()); "
            "sim.run_loop(sc.with_(cpu=s.resolve_cpu('cpu-3'), "
            "trace_cadence_ms=None)); "
            "print(len(plant._KERNELS))")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == [
        "0", "0", "[(1, True), (2, True)]", "2",
        "[(1, False), (1, True), (2, False), (2, True)]", "4"]


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


def test_sweep_from_scenario_file_equals_builtin_sweep(tmp_path):
    # A saved table1 swept from its file writes the tree and prints the
    # lines that sweeping the builtin does, byte for byte.
    path = tmp_path / "table1.yaml"
    save_scenario(builtin_table1(), path)
    runs = []
    for name, source in (("a", ("--scenario", str(path))),
                         ("b", ("--builtin", "table1"))):
        out = tmp_path / name
        p = run_cli("sweep", *source, "--all-cpus", "--duration", "0.1",
                    "--out", str(out))
        assert p.returncode == 0, p.stderr
        files = {f.relative_to(out).as_posix(): f.read_bytes()
                 for f in out.rglob("*") if f.is_file()}
        runs.append((p.stdout, files))
    assert len(runs[0][1]) == 20
    assert runs[0] == runs[1]


def test_sweep_keeps_no_finished_case(tmp_path, monkeypatch, capsys):
    # Once a case's line is printed, its SimResult and RunReport are
    # garbage: the next case runs without them.
    refs = []

    def spy(sc):
        for ref in refs[-2:]:
            assert ref() is None
        result = run_loop(sc)
        refs.extend((weakref.ref(result), weakref.ref(result.report)))
        return result

    monkeypatch.setattr(cli, "run_loop", spy)
    assert cli.main(["sweep", "--builtin", "table1", "--all-cpus",
                     "--duration", "0.5", "--out", str(tmp_path / "sw")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(refs) // 2 == 6


def test_sweep_without_out_is_usage_error():
    p = run_cli("sweep", "--builtin", "table1", "--all-cpus")
    assert p.returncode == 2
    assert "--out" in p.stderr
    assert p.stdout == ""


@pytest.mark.parametrize("command", ("run", "sweep"))
def test_empty_out_is_usage_error(tmp_path, monkeypatch, capsys, command):
    # An empty --out names no directory: exit 2 naming the flag, with
    # nothing run and nothing written to the working directory.
    def no_run(sc):
        raise AssertionError("run_loop called")

    monkeypatch.setattr(cli, "run_loop", no_run)
    monkeypatch.chdir(tmp_path)
    args = ["--all-cpus"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--builtin", "table1", *args, "--out", ""])
    out, err = capsys.readouterr()
    assert exc.value.code == 2, err
    assert out == ""
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_diverging_plant_exits_4_naming_loop_and_time(tmp_path):
    # A proportional gain of 1e9 on loop 1 drives its plant to inf.
    sc = builtin_table1()
    lp = sc.loops[0]
    loops = (lp.with_(gains=lp.gains.with_(kp=1.0e9)),) + sc.loops[1:]
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


def limit_memory():
    """In the child: at most 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("h0_ms, h_max_ms, cpu, duration_s, releases", (
    # a nominal period of 0.4 us, one tick in every mode
    (0.0004, 0.0004, "cpu-ideal", 0.001, {"qapm": 1001, "dvs-only": 1001}),
    # cpu-1 runs the workload at 0.5, which under qapm reclaims 1 ms to
    # 0.2 us, one tick
    (1.0, 4.0, "cpu-1", 0.01, {"qapm": 10_001, "dvs-only": 11}),
), ids=["nominal", "reclaimed"])
def test_period_under_one_tick_runs_at_one_tick(tmp_path, mode, h0_ms,
                                               h_max_ms, cpu, duration_s,
                                               releases):
    # A period that rounds to under one tick is one tick, the clock's
    # resolution: the loop releases once per tick and the run ends.  A
    # zero-tick period would release forever at tick 0 or divide by zero,
    # so the child runs under a time and an address-space limit.
    sc = builtin_table1()
    lp = sc.loops[0]
    task = lp.task.with_(c_nom=1e-7, h0=h0_ms * 1e-3, h_max=h_max_ms * 1e-3)
    loop = lp.with_(task=task, plant=TransferFunction((1.0,), (1.0, 1.0)))
    path = tmp_path / "sub_tick.yaml"
    save_scenario(sc.with_(loops=(loop,), cpu=resolve_cpu(cpu),
                           duration_s=duration_s), path)
    out = tmp_path / "run"
    p = run_cli("run", "--scenario", str(path), "--mode", mode,
                "--out", str(out), timeout=30, preexec_fn=limit_memory)
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""
    report = json.loads((out / "report.json").read_text())
    assert report["period_stats_ms"]["1"]["count"] == releases[mode]
    assert report["misses"] == 0
