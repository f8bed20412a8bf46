"""Child process of the benchmark: runs the qapm command line once.

    python3 perfbench/probe.py --mode plain|setup|trace --stats FILE -- ARGS...

ARGS are handed to ``qapm.cli.main`` exactly as ``python -m qapm ARGS``
would hand them.  The mode decides what is observed:

plain  One timer around ``run_loop`` and nothing else, for the end-to-end
       figures: host seconds in ``run_loop`` and simulated seconds per
       case, and the peak resident memory of the process.
setup  Stops the process at the first call of ``run_loop``, recording the
       clock there.  Everything before that point (interpreter start,
       import, scenario build and validation) is the set-up time.
trace  Wraps the public functions of every layer listed in ``TARGETS``,
       from this file, and records per-layer spans and exact work counters.

The stats file is JSON.  The set-up reading uses ``time.monotonic``, which
is system-wide, so the parent can subtract its own reading from it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# (layer, module, attribute path).  A target that no longer exists is
# recorded as absent; the layer names and the metric names built on them
# stay the same.
TARGETS = (
    ("cli", "qapm.cli", "main"),
    ("scenario", "qapm.scenario", "builtin_table1"),
    ("scenario", "qapm.scenario", "load_scenario"),
    ("scenario", "qapm.scenario", "validate"),
    ("scenario", "qapm.scenario", "save_scenario"),
    ("sim", "qapm.sim", "run_loop"),
    ("policy", "qapm.policy", "policy_step"),
    ("pid", "qapm.pid", "Pid.compute"),
    ("plant", "qapm.plant", "StateSpacePlant.integrate"),
    ("metrics", "qapm.metrics", "TraceRecorder.add"),
    ("metrics", "qapm.metrics", "TraceRecorder.write_csv"),
    ("metrics", "qapm.metrics", "RunReport.write_json"),
)


def _resolve(module, path):
    """(owner, name, object) for ``module`` + dotted ``path``, or None."""
    owner = sys.modules.get(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None)
    if owner is None or not callable(fn):
        return None
    return owner, name, fn


def _rebind(owner, name, fn, replacement):
    """Install ``replacement`` on ``owner`` and, for a module function,
    in every qapm module that imported it by name."""
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qapm" or mod_name.startswith("qapm."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, replacement)


def _case_counts(sc, res):
    """Work counters and simulated statistics of one ``run_loop`` case."""
    out = {}
    jobs = getattr(res, "jobs", None)
    if jobs is not None:
        out["jobs"] = len(jobs)
        out["completions"] = sum(
            1 for j in jobs if getattr(j, "completion", None) is not None)
    segments = getattr(res, "segments", None)
    if segments is not None:
        out["segments"] = len(segments)
    rows = getattr(getattr(res, "trace", None), "rows", None)
    loops = getattr(sc, "loops", ())
    if rows is not None:
        out["trace_rows"] = len(rows)
        if loops:
            out["trace_samples"] = len(rows) // len(loops)
    duration, step = getattr(sc, "duration_s", None), getattr(sc, "perturbation_s", None)
    if duration is not None and step:
        # Reference steps fall at k * step for every k * step < end.
        end_tick, step_tick = round(duration * 1e6), round(step * 1e6)
        out["ref_steps"] = -(-end_tick // step_tick)
    rep = getattr(res, "report", None)
    if rep is not None:
        out["model"] = {
            "j_sum": getattr(rep, "j_sum", None),
            "e_avg": getattr(rep, "e_avg", None),
            "misses": getattr(rep, "misses", None),
            "speed_changes": len(getattr(rep, "speed_changes", ()) or ()),
            "jobs": out.get("jobs"),
        }
    return out


class Tracer:
    """Spans at the layer boundaries named in ``TARGETS``.

    Each wrapped call adds its duration to its target's total, and to the
    child time of the span that encloses it, so a span's self time is its
    duration minus the time its wrapped children took.
    """

    def __init__(self):
        self.stack = []          # child-time accumulators of the open spans
        self.stats = {}          # "module:path" -> counters
        self.absent = []
        self.cases = []          # per run_loop call: counters + model stats
        self.extra = {"plant.micro_steps": 0, "metrics.trace_csv_bytes": 0,
                      "metrics.report_json_bytes": 0}

    def install(self):
        for layer, module, path in TARGETS:
            found = _resolve(module, path)
            key = f"{module}:{path}"
            if found is None:
                self.absent.append(key)
                continue
            owner, name, fn = found
            st = {"layer": layer, "calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}}
            self.stats[key] = st
            _rebind(owner, name, fn, self._wrap(key, fn, st))

    def _wrap(self, key, fn, st):
        stack = self.stack
        clock = time.perf_counter
        after = {
            "qapm.plant:StateSpacePlant.integrate": self._count_steps,
            "qapm.metrics:TraceRecorder.write_csv": self._count_bytes("metrics.trace_csv_bytes"),
            "qapm.metrics:RunReport.write_json": self._count_bytes("metrics.report_json_bytes"),
            "qapm.sim:run_loop": self._count_case,
        }.get(key)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                name = type(exc).__name__
                st["raised"][name] = st["raised"].get(name, 0) + 1
                raise
            finally:
                d = clock() - t0
                stack.pop()
                st["calls"] += 1
                st["s"] += d
                st["self_s"] += d - child[0]
                if stack:
                    stack[-1][0] += d
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_steps(self, args, kwargs, result):
        plant = args[0]
        span = args[1] if len(args) > 1 else kwargs.get("span_us", 0)
        step = getattr(plant, "micro_step_us", 0)
        if step:
            self.extra["plant.micro_steps"] += -(-span // step)

    def _count_bytes(self, name):
        def count(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                self.extra[name] += os.path.getsize(path)
        return count

    def _count_case(self, args, kwargs, result):
        sc = args[0] if args else kwargs.get("sc")
        self.cases.append(_case_counts(sc, result))


def _run_loop_targets():
    found = _resolve("qapm.sim", "run_loop")
    if found is None:
        raise SystemExit("probe: qapm.sim.run_loop not found")
    return found


def main(argv):
    if "--" not in argv:
        raise SystemExit("usage: probe.py --mode plain|setup|trace --stats FILE -- ARGS...")
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    mode = opts[opts.index("--mode") + 1]
    stats_path = opts[opts.index("--stats") + 1]

    import qapm.cli  # imports every layer

    stats = {"mode": mode, "qapm_file": os.path.abspath(qapm.__file__)}
    kernels = sys.modules.get("qapm.kernels")
    stats["backend"] = getattr(kernels, "BACKEND", None)

    def dump():
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)

    tracer = None
    if mode == "setup":
        owner, name, fn = _run_loop_targets()

        def stop_here(*args, **kwargs):
            stats["run_loop_at"] = time.monotonic()
            dump()
            os._exit(0)

        _rebind(owner, name, fn, stop_here)
    elif mode == "plain":
        owner, name, fn = _run_loop_targets()
        stats["run_loop_s"], stats["sim_s"] = [], []

        def timed(sc, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(sc, *args, **kwargs)
            stats["run_loop_s"].append(time.perf_counter() - t0)
            stats["sim_s"].append(getattr(sc, "duration_s", 0.0))
            return result

        _rebind(owner, name, fn, timed)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    else:
        raise SystemExit(f"probe: unknown mode {mode!r}")

    try:
        rc = qapm.cli.main(cli_args)
    finally:
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            stats.update(spans=tracer.stats, absent=tracer.absent,
                         cases=tracer.cases, extra=tracer.extra)
        dump()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
