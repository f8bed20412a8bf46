"""Command line front end: run, sweep, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .metrics import line_chart_svg
from .plant import DivergenceError
from .policy import ConfigurationError
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
    ("osdvs", "dvs-only", "cpu-ideal"),
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


def _out_dir(path: str) -> str:
    """An ``--out`` value, which must name a directory."""
    if not path:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return path


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
    run.add_argument("--out", type=_out_dir,
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
                       help="dvs-only on cpu-ideal, then qapm on each CPU set")
    sweep.add_argument("--out", type=_out_dir, required=True,
                       help="output directory")
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


def _e_avg(e_avg) -> float:
    """E_AVG for printing, or nan for a run of zero duration, which has none."""
    return float("nan") if e_avg is None else e_avg


def _run_case(sc: Scenario, out_dir, svg: bool, label=None):
    """Run one case and write its files into ``out_dir``, which is made
    first, so that outputs that cannot be written fail before the run;
    without ``out_dir`` no trace is recorded.  Return what the caller
    prints: the report's cpu name, E_AVG, J_SUM and misses, or None once a
    diverging plant has been reported."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    else:
        sc = sc.with_(trace_cadence_ms=None)  # no file to write the trace to
    try:
        result = run_loop(sc)
    except DivergenceError as exc:
        prefix = "error" if label is None else f"error [{label}]"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return None
    if out_dir:
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
    rep = result.report
    return rep.cpu, rep.e_avg, rep.j_sum, rep.misses


def _cmd_run(args) -> int:
    if args.svg and not args.out:
        raise ConfigurationError("--svg needs --out to write its charts to")
    sc = _load(args)
    case = _run_case(sc, args.out, args.svg)
    if case is None:
        return EXIT_DIVERGED
    cpu, e_avg, j_sum, misses = case
    print(f"{sc.name} mode={sc.mode} cpu={cpu} E_AVG={_e_avg(e_avg):.4f} "
          f"J_SUM={j_sum:.4f} misses={misses}")
    if args.strict and misses:
        print(f"error: {misses} deadline miss(es)", file=sys.stderr)
        return EXIT_STRICT_MISS
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = _load(args)
    cpus = builtin_cpus()
    figures = {}  # label: (E_AVG, J_SUM, misses)
    for label, mode, cpu_name in SWEEP_CASES:
        case = _run_case(base.with_(mode=mode, cpu=cpus[cpu_name]),
                         os.path.join(args.out, label), False, label)
        if case is None:
            return EXIT_DIVERGED
        _, e_avg, j_sum, misses = case
        figures[label] = e_avg, j_sum, misses
        print(f"{label:10s} E_AVG={_e_avg(e_avg):.4f} "
              f"J_SUM={j_sum:.3f} misses={misses}")

    lines = ["case," + ",".join(figures),
             "E_AVG," + ",".join(f"{_e_avg(e):.6g}" for e, _, _ in figures.values()),
             "J_SUM," + ",".join(f"{j:.6g}" for _, j, _ in figures.values())]
    with open(os.path.join(args.out, "summary.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    summary = {c: {"E_AVG": e, "J_SUM": j, "misses": m}
               for c, (e, j, m) in figures.items()}
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_sweep,
               "validate": _cmd_validate}[args.command]
    try:
        return command(args)
    except (ConfigurationError, OSError) as exc:  # bad input or a file error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
