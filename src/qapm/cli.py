"""Command line front end: run, sweep, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .metrics import line_chart_svg
from .plant import DivergenceError
from .scenario import (
    MODES,
    Scenario,
    builtin_cpus,
    builtin_table1,
    load_scenario,
    resolve_cpu,
    save_scenario,
)
from .sim import run_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STRICT_MISS = 3
EXIT_DIVERGED = 4

SWEEP_CASES = (
    ("osdvs", "osdvs", "cpu-ideal"),
    ("cpu-1", "qapm", "cpu-1"),
    ("cpu-2", "qapm", "cpu-2"),
    ("cpu-3", "qapm", "cpu-3"),
    ("cpu-4", "qapm", "cpu-4"),
    ("cpu-ideal", "qapm", "cpu-ideal"),
)

# (command line attribute, scenario field) of each flag that overrides the
# scenario's value when given
_OVERRIDES = (
    ("mode", "mode"),
    ("duration", "duration_s"),
    ("seed", "seed"),
    ("trace_cadence", "trace_cadence_ms"),
    ("micro_step", "micro_step_us"),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qapm",
        description="Deterministic co-simulation of control loops on a "
                    "variable-speed processor with performance-aware power "
                    "management.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario file (YAML)")
    src.add_argument("--builtin", choices=["table1"],
                     help="use the built-in four-loop benchmark")
    run.add_argument("--cpu",
                     help="CPU level set, a built-in name: "
                          f"{', '.join(sorted(builtin_cpus()))} "
                          "(default: scenario's)")
    run.add_argument("--mode", choices=MODES,
                     help="power management mode (default: scenario's)")
    run.add_argument("--duration", type=float,
                     help="run length in seconds")
    run.add_argument("--seed", type=int,
                     help="RNG seed for the execution-time jitter hook")
    run.add_argument("--out",
                     help="output directory (default: report to stdout only)")
    run.add_argument("--trace-cadence", type=float,
                     help="trace sample spacing in ms")
    run.add_argument("--micro-step", type=int,
                     help="plant integration micro step in us")
    run.add_argument("--svg", action="store_true",
                     help="also emit SVG charts of E(t) and h_i(t)")
    run.add_argument("--strict", action="store_true",
                     help="exit with status 3 if any deadline is missed")

    sweep = sub.add_parser(
        "sweep", help="run the benchmark across every built-in CPU set")
    ssrc = sweep.add_mutually_exclusive_group(required=True)
    ssrc.add_argument("--scenario", help="scenario file (YAML)")
    ssrc.add_argument("--builtin", choices=["table1"])
    sweep.add_argument("--all-cpus", action="store_true", required=True,
                       help="osdvs plus the full scheme on each CPU set")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--duration", type=float)
    sweep.add_argument("--seed", type=int)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)
    return p


def _load(args) -> Scenario:
    """The scenario file or builtin with the settings given on the command
    line; ``sweep`` has no flags for cpu, mode, trace cadence or micro step."""
    sc = load_scenario(args.scenario) if args.scenario else builtin_table1()
    kw = {field: getattr(args, flag, None) for flag, field in _OVERRIDES}
    kw = {k: v for k, v in kw.items() if v is not None}
    if getattr(args, "cpu", None):
        kw["cpu"] = resolve_cpu(args.cpu)
    return sc.with_(**kw)


def _emit_run(out_dir: str, sc: Scenario, result, svg: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_scenario(sc, os.path.join(out_dir, "scenario.yaml"))
    result.trace.write_csv(os.path.join(out_dir, "trace.csv"))
    result.report.write_json(os.path.join(out_dir, "report.json"))
    if svg:
        with open(os.path.join(out_dir, "energy.svg"), "w") as f:
            f.write(line_chart_svg(result.trace.energy_series(),
                                   "instantaneous energy draw",
                                   "t [s]", "alpha^2"))
        with open(os.path.join(out_dir, "periods.svg"), "w") as f:
            f.write(line_chart_svg(result.trace.period_series(),
                                   "effective sampling periods",
                                   "t [s]", "h [ms]"))


def _e_avg(rep) -> float:
    """The report's E_AVG, or nan for a run of zero duration, which has none."""
    return float("nan") if rep.e_avg is None else rep.e_avg


def _failed(exc: DivergenceError, prefix: str) -> int:
    """Report on one ``prefix:`` line how a plant diverged in ``run_loop``,
    and return its exit code."""
    print(f"{prefix}: {exc}", file=sys.stderr)
    return EXIT_DIVERGED


def _cmd_run(args) -> int:
    try:
        sc = _load(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.out:
        sc = sc.with_(trace_cadence_ms=None)  # no file to write the trace to
    try:
        result = run_loop(sc)
    except DivergenceError as exc:
        return _failed(exc, "error")
    rep = result.report
    if args.out:
        _emit_run(args.out, sc, result, args.svg)
    print(f"{rep.scenario} mode={rep.mode} cpu={rep.cpu} E_AVG={_e_avg(rep):.4f} "
          f"J_SUM={rep.j_sum:.4f} misses={rep.misses}")
    if args.strict and rep.misses:
        print(f"error: {rep.misses} deadline miss(es)", file=sys.stderr)
        return EXIT_STRICT_MISS
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        base = _load(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cpus = builtin_cpus()
    reports = {}
    for label, mode, cpu_name in SWEEP_CASES:
        sc = base.with_(mode=mode, cpu=cpus[cpu_name])
        try:
            result = run_loop(sc)
        except DivergenceError as exc:
            return _failed(exc, f"error [{label}]")
        rep = reports[label] = result.report
        _emit_run(os.path.join(args.out, label), sc, result, svg=False)
        print(f"{label:10s} E_AVG={_e_avg(rep):.4f} "
              f"J_SUM={rep.j_sum:.3f} misses={rep.misses}")

    labels = [c[0] for c in SWEEP_CASES]
    lines = ["case," + ",".join(labels),
             "E_AVG," + ",".join(f"{_e_avg(reports[c]):.6g}" for c in labels),
             "J_SUM," + ",".join(f"{reports[c].j_sum:.6g}" for c in labels)]
    with open(os.path.join(args.out, "summary.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    summary = {
        c: {"E_AVG": reports[c].e_avg, "J_SUM": reports[c].j_sum,
            "misses": reports[c].misses} for c in labels
    }
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_sweep,
               "validate": _cmd_validate}[args.command]
    try:
        return command(args)
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
