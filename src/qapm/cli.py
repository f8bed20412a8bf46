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

ENV_PREFIX = "QAPM_"

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


class _EnvError(ValueError):
    """A numeric ``QAPM_*`` variable that does not parse."""


def _env(name: str, default=None):
    return os.environ.get(ENV_PREFIX + name, default)


def _env_num(name: str, kind):
    v = _env(name)
    if v is None:
        return None
    try:
        return kind(v)
    except ValueError:
        raise _EnvError(f"{ENV_PREFIX}{name}: expected {kind.__name__}, "
                        f"got {v!r}") from None


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
    run.add_argument("--cpu", default=_env("CPU"),
                     help="CPU level set, a built-in name: "
                          f"{', '.join(sorted(builtin_cpus()))} "
                          "(default: scenario's)")
    run.add_argument("--mode", choices=MODES, default=_env("MODE"),
                     help="power management mode (default: scenario's)")
    run.add_argument("--duration", type=float,
                     default=_env_num("DURATION", float),
                     help="run length in seconds")
    run.add_argument("--seed", type=int, default=_env_num("SEED", int),
                     help="RNG seed for the execution-time jitter hook")
    run.add_argument("--out", default=_env("OUT"),
                     help="output directory (default: report to stdout only)")
    run.add_argument("--trace-cadence", type=float,
                     default=_env_num("TRACE_CADENCE", float),
                     help="trace sample spacing in ms")
    run.add_argument("--micro-step", type=int,
                     default=_env_num("MICRO_STEP", int),
                     help="plant integration micro step in us")
    run.add_argument("--svg", action="store_true",
                     default=_env("SVG", "") not in ("", "0"),
                     help="also emit SVG charts of E(t) and h_i(t)")
    run.add_argument("--strict", action="store_true",
                     default=_env("STRICT", "") not in ("", "0"),
                     help="exit with status 3 if any deadline is missed")

    sweep = sub.add_parser(
        "sweep", help="run the benchmark across every built-in CPU set")
    ssrc = sweep.add_mutually_exclusive_group(required=True)
    ssrc.add_argument("--scenario", help="scenario file (YAML)")
    ssrc.add_argument("--builtin", choices=["table1"])
    sweep.add_argument("--all-cpus", action="store_true", required=True,
                       help="osdvs plus the full scheme on each CPU set")
    sweep.add_argument("--out", default=_env("OUT"), required=False,
                       help="output directory (required)")
    sweep.add_argument("--duration", type=float,
                       default=_env_num("DURATION", float))
    sweep.add_argument("--seed", type=int, default=_env_num("SEED", int))

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)
    return p


def _load(args) -> Scenario:
    if args.scenario:
        sc = load_scenario(args.scenario)
    else:
        sc = builtin_table1()
    return sc


def _apply_overrides(sc: Scenario, args) -> Scenario:
    kw = {}
    if getattr(args, "cpu", None):
        kw["cpu"] = resolve_cpu(args.cpu)
    if getattr(args, "mode", None):
        kw["mode"] = args.mode
    if getattr(args, "duration", None) is not None:
        kw["duration_s"] = args.duration
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "trace_cadence", None) is not None:
        kw["trace_cadence_ms"] = args.trace_cadence
    if getattr(args, "micro_step", None) is not None:
        kw["micro_step_us"] = args.micro_step
    return sc.with_(**kw) if kw else sc


def _emit_run(out_dir: str, sc: Scenario, result, svg: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_scenario(sc, os.path.join(out_dir, "scenario.yaml"))
    result.trace.write_csv(os.path.join(out_dir, "trace.csv"))
    result.report.write_json(os.path.join(out_dir, "report.json"))
    if svg:
        rows = result.trace.rows
        energy = {"E(t)": [(r[0], r[8]) for r in rows if r[1] == sc.loops[0].task.id]}
        periods = {}
        for lp in sc.loops:
            periods[f"h{lp.task.id}"] = [
                (r[0], r[6]) for r in rows if r[1] == lp.task.id]
        with open(os.path.join(out_dir, "energy.svg"), "w") as f:
            f.write(line_chart_svg(energy, "instantaneous energy draw",
                                   "t [s]", "alpha^2"))
        with open(os.path.join(out_dir, "periods.svg"), "w") as f:
            f.write(line_chart_svg(periods, "effective sampling periods",
                                   "t [s]", "h [ms]"))


def _failed(exc: Exception, prefix: str) -> int:
    """Report why ``run_loop`` failed, one ``prefix:`` line per problem, and
    return the exit code: a diverged plant or a configuration error."""
    for line in str(exc).splitlines():
        print(f"{prefix}: {line}", file=sys.stderr)
    return EXIT_DIVERGED if isinstance(exc, DivergenceError) else EXIT_CONFIG


def _cmd_run(args) -> int:
    try:
        sc = _apply_overrides(_load(args), args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.out:
        sc = sc.with_(trace_cadence_ms=None)  # no file to write the trace to
    try:
        result = run_loop(sc)
    except (ConfigurationError, DivergenceError) as exc:
        return _failed(exc, "error")
    rep = result.report
    if args.out:
        _emit_run(args.out, sc, result, args.svg)
    print(f"{rep.scenario} mode={rep.mode} cpu={rep.cpu} "
          f"E_AVG={rep.e_avg if rep.e_avg is not None else float('nan'):.4f} "
          f"J_SUM={rep.j_sum:.4f} misses={rep.misses}")
    if args.strict and rep.misses:
        print(f"error: {rep.misses} deadline miss(es)", file=sys.stderr)
        return EXIT_STRICT_MISS
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.out:
        print("error: sweep requires --out", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base = _load(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cpus = builtin_cpus()
    reports = {}
    for label, mode, cpu_name in SWEEP_CASES:
        sc = base.with_(mode=mode, cpu=cpus[cpu_name])
        if args.duration is not None:
            sc = sc.with_(duration_s=args.duration)
        if args.seed is not None:
            sc = sc.with_(seed=args.seed)
        try:
            result = run_loop(sc)
        except (ConfigurationError, DivergenceError) as exc:
            return _failed(exc, f"error [{label}]")
        reports[label] = result.report
        _emit_run(os.path.join(args.out, label), sc, result, svg=False)
        print(f"{label:10s} E_AVG={result.report.e_avg:.4f} "
              f"J_SUM={result.report.j_sum:.3f} misses={result.report.misses}")

    labels = [c[0] for c in SWEEP_CASES]
    lines = ["case," + ",".join(labels)]
    for row, attr in (("E_AVG", "e_avg"), ("J_SUM", "j_sum")):
        vals = [f"{getattr(reports[c], attr):.6g}" for c in labels]
        lines.append(row + "," + ",".join(vals))
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        parser = _build_parser()
    except _EnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
