"""Layered benchmark for qapm: end-to-end host time and per-layer spans.

    python3 perfbench/run.py --workload table1-run --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run it from the repository root; it imports qapm from ``src/`` there and
nowhere else.  It drives the public command line (``python -m qapm run`` or
``sweep``, through ``probe.py``) as a closed loop: one client, one
invocation at a time.

``--trace 0`` prints the end-to-end metrics over the run's invocations (see
``E2E`` for how each is reduced), measured with no layer wrappers
installed.  ``--trace 1`` alternates untraced and traced invocations for
the run's length (at least two of each) and prints the per-layer metrics,
the exact work counters and the tracing overhead.  Every
invocation's output is checked; an invocation that exits non-zero or fails
its check counts in ``failed``.  The last line of standard output is the
JSON result; the full record, with the environment, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

MIN_SETUPS = 24            # set-up-only invocations per untraced run, at least
INVOCATION_TIMEOUT_S = 150

# Simulated seconds per invocation.  The host's speed changes from one
# second to the next, so invocations are kept to a second or two: a run then
# holds enough of them that its fast tail reflects the program and not a
# stretch of the host's load.
RUN_DURATION_S = "2"
SWEEP_DURATION_S = "0.5"

# End-to-end metric -> (unit, how the run's samples are reduced, power of
# the host factor the result is multiplied by).  Host noise only ever slows
# an invocation down, so the two timings report the fast tail of the run:
# the 10th percentile of the wall times and the 90th of the simulation
# speeds.  Set-up and memory report the median.
E2E = {
    "wall_s": ("s", "p10", -1),
    "sim_speed_x": ("s/s", "p90", 1),
    "setup_s": ("s", "median", -1),
    "peak_rss_mb": ("MB", "median", 0),
}

# The host's speed also drifts by 10-30 % over minutes, for every program
# on it.  After each timed invocation the benchmark times one block of
# REF_REPS runs of a fixed reference computation, about 0.1 s.  The run's
# host factor is the 10th percentile of those block times divided by
# REF_NOMINAL_S, about their 10th percentile in quiet runs on a 2-vCPU Xeon
# VM with Python 3.11.  Times are divided by the factor and speeds
# multiplied by it, so they read as on that host.  The blocks are long
# enough to average over the host's millisecond-scale stalls as the
# invocations do; 3 ms blocks slip between them and under-correct.  The
# reference shares no code with qapm: no change to the program moves it.
REF_NOMINAL_S = 0.100
REF_REPS = 30


def _deriv(a, b, n, x, u, out):
    for i in range(n):
        acc = b[i] * u
        row = i * n
        for j in range(n):
            acc += a[row + j] * x[j]
        out[i] = acc


def reference_work():
    """Fixed pure-Python work shaped like the plant kernel: 600 RK4 steps
    of a third-order linear system under a square-wave input."""
    a = [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, -6.0, -11.0, -6.0]
    b = [0.0, 0.0, 1.0]
    n = 3
    x = [0.0] * n
    k1, k2, k3, k4, xt = ([0.0] * n for _ in range(5))
    h = 1e-4
    for step in range(600):
        u = 1.0 if step % 200 < 100 else -1.0
        _deriv(a, b, n, x, u, k1)
        for i in range(n):
            xt[i] = x[i] + 0.5 * h * k1[i]
        _deriv(a, b, n, xt, u, k2)
        for i in range(n):
            xt[i] = x[i] + 0.5 * h * k2[i]
        _deriv(a, b, n, xt, u, k3)
        for i in range(n):
            xt[i] = x[i] + h * k3[i]
        _deriv(a, b, n, xt, u, k4)
        for i in range(n):
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
    return x


def time_reference() -> float:
    """Seconds for one block of REF_REPS runs of ``reference_work``."""
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        reference_work()
    return time.perf_counter() - t0


def _decile(vals, k):
    """The k-th decile of ``vals`` (inclusive method), or the only value."""
    if len(vals) < 2:
        return vals[0]
    return statistics.quantiles(vals, n=10, method="inclusive")[k - 1]


_REDUCE = {"p10": lambda v: _decile(v, 1), "p90": lambda v: _decile(v, 9),
           "median": statistics.median}

# The four loops of the builtin table1 scenario, as a scenario file spells
# them (the file format is the program's public interface).
_TABLE1_LOOPS = [
    (1, [1.0], [50.0, 1000.0], 10000.0, 400.0, 0.0, 10.0, 40.0),
    (2, [1.0], [20.0, 10.0, 1.0], 30.0, 70.0, 0.0, 7.0, 30.0),
    (3, [1.0], [10.0, 6.0, 0.5], 100.0, 200.0, 2.0, 8.0, 30.0),
    (4, [1.0], [20.0, 10.0, 1.0], 200.0, 350.0, 3.0, 9.0, 40.0),
]


def jitter_scenario(seed: int) -> dict:
    """table1 on cpu-4 with seeded execution-time jitter and switch stalls."""
    return {
        "name": "table1-jitter",
        "mode": "qapm",
        "duration_s": 12.0,
        "perturbation_s": 1.0,
        "micro_step_us": 1000,
        "trace_cadence_ms": 10.0,
        "seed": seed,
        "c_jitter": 0.2,
        "switch_overhead_us": 50,
        "cpu": "cpu-4",
        "adaptation": {"beta": 40.0, "e_min": 0.02, "e_max": 0.3},
        "loops": [
            {"id": lid, "plant": {"num": num, "den": den},
             "gains": {"kp": kp, "ki": ki, "kd": kd},
             "c_nom_ms": 2.0, "h0_ms": h0, "h_max_ms": h_max}
            for lid, num, den, kp, ki, kd, h0, h_max in _TABLE1_LOOPS
        ],
    }


class Workload:
    """One set of inputs.  ``argv(work, out)`` builds the command line, with
    ``out`` a fresh directory, or None when the workload writes no output.
    ``scenario(seed)``, when given, is written to ``work/scenario.yaml``."""

    def __init__(self, name, why, argv, writes_out, scenario=None):
        self.name, self.why, self.argv = name, why, argv
        self.writes_out, self.scenario = writes_out, scenario

    def prepare(self, work: str, seed: int) -> None:
        if self.scenario is not None:
            import yaml
            with open(os.path.join(work, "scenario.yaml"), "w", encoding="utf-8") as fh:
                yaml.safe_dump(self.scenario(seed), fh, sort_keys=False)


# Why each workload was chosen.  The three share every layer but load them
# differently, so each per-layer change has a workload that exercises it and
# one that predicts no change.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "table1-run",
            "The canonical interactive run, cut to 2 simulated seconds: run "
            "--builtin table1 --cpu cpu-2 --duration 2 --out with the default "
            "1 ms trace.  The kernel does most of the work (plant.integrate "
            "is about 88 % of run_loop), writing trace.csv costs about a "
            "tenth of the run, and trace events are 57 % of all events.",
            lambda work, out: ["run", "--builtin", "table1", "--cpu", "cpu-2",
                               "--duration", RUN_DURATION_S, "--out", out],
            writes_out=True),
        Workload(
            "jitter-cpu4",
            "A table1 variant read from a YAML file, on cpu-4 with c_jitter 0.2 "
            "seeded from the benchmark seed, 50 us switch stalls, 1 ms "
            "micro-steps and a 10 ms trace.  It goes through the YAML loader; "
            "exercises the jitter RNG, the speed guard and switch stalls; hits "
            "the SchedulabilityError saturation path (226 times at seed 1); "
            "takes 1.9 micro-steps per kernel call instead of 6.1, so per-call "
            "overhead shows against per-step cost; and writes no output, so "
            "the metrics writers are bypassed.",
            lambda work, out: ["run", "--scenario",
                               os.path.join(work, "scenario.yaml")],
            writes_out=False, scenario=jitter_scenario),
        Workload(
            "table1-sweep",
            "The throughput workload, cut to 0.5 simulated seconds per case: "
            "sweep --builtin table1 --all-cpus --duration 0.5 --out, six runs "
            "including osDVS mode and the miss-heavy cpu-1.  Only it can show "
            "a gain from a bounded process pool; the other two workloads "
            "predict no change from one.",
            lambda work, out: ["sweep", "--builtin", "table1", "--all-cpus",
                               "--duration", SWEEP_DURATION_S, "--out", out],
            writes_out=True),
    )
}


# --- environment ------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment without QAPM_* variables, importing qapm
    from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QAPM_")}
    env["PYTHONPATH"] = SRC
    return env


def environment(backend) -> dict:
    commit = "unknown"  # the checkout need not be a git repository
    try:
        if os.path.exists(os.path.join(ROOT, ".git")):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "qapm")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "backend": backend,
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


# --- invocations -------------------------------------------------------------

class Invocation:
    """One child process running the qapm command line under ``probe.py``."""

    def __init__(self, mode, cli_args, work, tag, out=None):
        self.mode, self.cli_args, self.out = mode, cli_args, out
        self.stats_path = os.path.join(work, f"{tag}.stats.json")
        self.stdout_path = os.path.join(work, f"{tag}.stdout")
        self.stderr_path = os.path.join(work, f"{tag}.stderr")
        self.proc = None
        self.rc = None
        self.wall_s = None
        self.stats = {}
        self.stdout = ""
        self.problems = []
        self.fingerprint = None

    def start(self, env):
        cmd = [sys.executable, PROBE, "--mode", self.mode,
               "--stats", self.stats_path, "--", *self.cli_args]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.t0 = time.monotonic()
            self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out,
                                         stderr=err, stdin=subprocess.DEVNULL)

    def finish(self):
        # wait() with a timeout polls every 50 ms, which would round the
        # wall time; a blocking wait() returns at the child's exit, and a
        # timer kills a child that runs too long.
        timer = threading.Timer(INVOCATION_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.rc = self.proc.wait()
            end = time.monotonic()
        finally:
            timer.cancel()
            timer.join()
        if self.rc == -signal.SIGKILL and end - self.t0 >= INVOCATION_TIMEOUT_S:
            self.problems.append(f"timed out after {INVOCATION_TIMEOUT_S} s")
            return
        self.wall_s = end - self.t0
        with open(self.stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        if self.rc != 0:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-3:]
            self.problems.append(f"exit code {self.rc}: {' | '.join(tail)}")
        try:
            with open(self.stats_path, encoding="utf-8") as fh:
                self.stats = json.load(fh)
        except (OSError, ValueError):
            self.problems.append("probe wrote no stats")
            return
        qapm_file = self.stats.get("qapm_file", "")
        if not qapm_file.startswith(SRC + os.sep):
            self.problems.append(f"imported qapm from {qapm_file}, not {SRC}")

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    @property
    def ok(self):
        return not self.problems


# --- output checks -------------------------------------------------------------

_SUMMARY = re.compile(r"E_AVG=(\S+) J_SUM=(\S+) misses=(\d+)")
_BACKEND_JSON = re.compile(rb'^\s*"backend": .*\n', re.M)
_BACKEND_TEXT = re.compile(r" backend=\S+")


def _positive(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _check_report(path, problems) -> bytes:
    """Check one report.json; return its bytes without the backend field."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        rep = json.loads(raw)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: {exc}")
        return b""
    j_sum, e_avg = rep.get("j_sum"), rep.get("e_avg")
    if not (_positive(j_sum) and _positive(e_avg)):
        problems.append(f"{path}: J_SUM={j_sum} E_AVG={e_avg} not finite and positive")
    elif e_avg > 1.0 + 1e-9:
        problems.append(f"{path}: E_AVG={e_avg} above full speed")
    per_loop = [v for v in (rep.get("j_per_loop") or {}).values() if _positive(v)]
    if _positive(j_sum) and abs(sum(per_loop) - j_sum) > 1e-5 * j_sum:
        problems.append(f"{path}: j_per_loop does not sum to J_SUM")
    if not isinstance(rep.get("misses"), int) or rep["misses"] < 0:
        problems.append(f"{path}: misses={rep.get('misses')!r}")
    return _BACKEND_JSON.sub(b"", raw)


def _check_run_dir(out, problems) -> bytes:
    canon = _check_report(os.path.join(out, "report.json"), problems)
    try:
        with open(os.path.join(out, "trace.csv"), encoding="utf-8") as fh:
            if not fh.readline().startswith("time_s,"):
                problems.append(f"{out}/trace.csv: missing header")
        with open(os.path.join(out, "scenario.yaml"), "rb") as fh:
            canon += fh.read()
    except OSError as exc:
        problems.append(str(exc))
    return canon


def check_output(inv: Invocation) -> None:
    """Check an invocation's output and set its fingerprint: the hash of
    everything it produced except the kernel backend's name."""
    problems = inv.problems
    if problems:
        return
    summaries = _SUMMARY.findall(inv.stdout)
    if not summaries:
        problems.append("no E_AVG/J_SUM summary on stdout")
    for e_avg, j_sum, _ in summaries:
        if not (_positive(_number(e_avg)) and _positive(_number(j_sum))):
            problems.append(f"summary E_AVG={e_avg} J_SUM={j_sum}")
    canon = _BACKEND_TEXT.sub("", inv.stdout).encode()
    if inv.cli_args[0] == "sweep":
        try:
            with open(os.path.join(inv.out, "summary.json"), "rb") as fh:
                raw = fh.read()
            cases = sorted(json.loads(raw))
        except (OSError, ValueError) as exc:
            problems.append(f"summary.json: {exc}")
            cases = []
        if len(cases) != 6:
            problems.append(f"sweep produced {len(cases)} cases, expected 6")
        for case in cases:
            canon += _check_run_dir(os.path.join(inv.out, case), problems)
        if cases:
            canon += raw
    elif inv.out:
        canon += _check_run_dir(inv.out, problems)
    inv.fingerprint = hashlib.sha256(canon).hexdigest()


def check_repeats(invs) -> None:
    """Invocations of one workload and seed must produce identical output."""
    ref = next((i.fingerprint for i in invs if i.fingerprint), None)
    for inv in invs:
        if inv.fingerprint and inv.fingerprint != ref:
            inv.problems.append("output differs from the run's first invocation")


# --- runs -------------------------------------------------------------------------

class Run:
    """Fresh working directory and invocation bookkeeping for one run."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.work = os.path.join(WORK, "work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        wl.prepare(self.work, seed)
        self.env = child_env()
        self.invocations = []
        self.count = 0

    def new(self, mode) -> Invocation:
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out = os.path.join(self.work, f"{tag}.out") if self.wl.writes_out else None
        inv = Invocation(mode, self.wl.argv(self.work, out), self.work, tag, out)
        self.invocations.append(inv)
        return inv

    def run(self, inv: Invocation) -> None:
        try:
            inv.start(self.env)
            inv.finish()
        finally:
            inv.kill()
        if inv.mode != "setup":
            check_output(inv)
        if inv.out:
            shutil.rmtree(inv.out, ignore_errors=True)

    def setup_once(self) -> Invocation:
        inv = self.new("setup")
        self.run(inv)
        if inv.ok and "run_loop_at" not in inv.stats:
            inv.problems.append("run_loop was never reached")
        return inv

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    @property
    def failed(self):
        return [inv for inv in self.invocations if not inv.ok]

    @property
    def ok(self):
        return all(inv.ok for inv in self.invocations)


def run_untraced(run: Run, seconds: float) -> dict:
    """Timed invocations until ``seconds`` would be exceeded (at least one).
    Set-up-only invocations are spread over the run, so that the set-up
    median samples the whole run, not one stretch of the host's load."""
    run.setup_once()  # warm-up: fills the bytecode cache
    setups, timed, refs = [], [], []

    def setup():
        inv = run.setup_once()
        if inv.ok:
            setups.append(inv.stats["run_loop_at"] - inv.t0)

    start = time.monotonic()
    while True:
        inv = run.new("plain")
        run.run(inv)
        refs.append(time_reference())
        timed.append(inv)
        if inv.ok and not inv.stats.get("run_loop_s"):
            inv.problems.append("run_loop was not observed in the probed process")
        elapsed = time.monotonic() - start
        while len(setups) < MIN_SETUPS * min(1.0, elapsed / seconds) and run.ok:
            setup()
        walls = [i.wall_s for i in timed if i.wall_s is not None]
        if not walls or not run.ok or (
                time.monotonic() - start + statistics.median(walls) > seconds):
            break
    while len(setups) < MIN_SETUPS and run.ok:
        setup()
    check_repeats(timed)

    good = [i for i in timed if i.ok]
    speeds = [sum(i.stats["sim_s"]) / sum(i.stats["run_loop_s"])
              for i in good if sum(i.stats.get("run_loop_s", [])) > 0]
    samples = {
        "wall_s": [i.wall_s for i in good],
        "sim_speed_x": speeds,
        "setup_s": setups,
        "peak_rss_mb": [i.stats["maxrss_kb"] / 1024.0 for i in good],
    }
    factor = _decile(refs, 1) / REF_NOMINAL_S
    out = {}
    for name, vals in samples.items():
        if vals:
            unit, stat, power = E2E[name]
            raw = _REDUCE[stat](vals)
            out[name] = {"value": raw * factor ** power, "unit": unit, "stat": stat,
                         "raw": raw, "n": len(vals), "median": statistics.median(vals),
                         "min": min(vals), "max": max(vals), "samples": vals}
    if out:
        out["wall_s"].update(host_factor=factor, reference_s=refs)
    return out


def _counters(stats) -> dict:
    """The exact part of a traced invocation: call counts, work counters
    and per-case statistics."""
    return {
        "calls": {k: v["calls"] for k, v in stats.get("spans", {}).items()},
        "raised": {k: v["raised"] for k, v in stats.get("spans", {}).items()},
        "extra": stats.get("extra"),
        "cases": stats.get("cases"),
        "absent": stats.get("absent"),
    }


def layer_metrics(traced, untraced) -> dict:
    """Per-layer metrics from traced invocations (times are medians over
    them, counters from the first) and the untraced run_loop time."""
    first = traced[0].stats

    def span(key, field="s"):
        vals = [t.stats.get("spans", {}).get(key, {}).get(field, 0.0) for t in traced]
        return statistics.median(vals)

    def calls(key):
        return first.get("spans", {}).get(key, {}).get("calls", 0)

    def case_sum(field, model=False):
        total = 0
        for case in first.get("cases") or []:
            src = case.get("model", {}) if model else case
            total += src.get(field) or 0
        return total

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    integrate = "qapm.plant:StateSpacePlant.integrate"
    policy = "qapm.policy:policy_step"
    extra = first.get("extra") or {}
    steps = extra.get("plant.micro_steps", 0)
    cases = first.get("cases") or []
    # The overhead compares the fastest traced and untraced run_loop times:
    # host noise only adds time, and medians of a few invocations each
    # differ by more than the overhead.
    untraced_loop = min(sum(u.stats.get("run_loop_s", [])) for u in untraced)
    traced_loop = min(t.stats.get("spans", {}).get("qapm.sim:run_loop", {}).get("s", 0.0)
                      for t in traced)
    e_avgs = [c.get("model", {}).get("e_avg") or 0.0 for c in cases]
    m = {
        "cli.main_s": (span("qapm.cli:main"), "s"),
        "cli.self_s": (span("qapm.cli:main", "self_s"), "s"),
        "scenario.load_s": (span("qapm.scenario:load_scenario")
                            + span("qapm.scenario:builtin_table1"), "s"),
        "scenario.validate_s": (span("qapm.scenario:validate"), "s"),
        "scenario.save_s": (span("qapm.scenario:save_scenario"), "s"),
        "sim.run_loop_s": (span("qapm.sim:run_loop"), "s"),
        "sim.self_s": (span("qapm.sim:run_loop", "self_s"), "s"),
        "sim.trace_overhead_s": (traced_loop - untraced_loop, "s"),
        "sim.jobs": (case_sum("jobs"), "count"),
        "sim.completions": (case_sum("completions"), "count"),
        "sim.segments": (case_sum("segments"), "count"),
        "sim.trace_samples": (case_sum("trace_samples"), "count"),
        "sim.ref_steps": (case_sum("ref_steps"), "count"),
        "plant.integrate_s": (span(integrate), "s"),
        "plant.calls": (calls(integrate), "count"),
        "plant.micro_steps": (steps, "count"),
        "plant.ns_per_micro_step": (per(span(integrate), steps, 1e9), "ns"),
        "plant.us_per_call": (per(span(integrate), calls(integrate), 1e6), "us"),
        "policy.calls": (calls(policy), "count"),
        "policy.s": (span(policy), "s"),
        "policy.us_per_call": (per(span(policy), calls(policy), 1e6), "us"),
        "policy.saturations": (first.get("spans", {}).get(policy, {})
                               .get("raised", {}).get("SchedulabilityError", 0), "count"),
        "pid.calls": (calls("qapm.pid:Pid.compute"), "count"),
        "pid.s": (span("qapm.pid:Pid.compute"), "s"),
        "metrics.trace_rows": (case_sum("trace_rows"), "count"),
        "metrics.trace_add_s": (span("qapm.metrics:TraceRecorder.add"), "s"),
        "metrics.write_csv_s": (span("qapm.metrics:TraceRecorder.write_csv"), "s"),
        "metrics.trace_csv_bytes": (extra.get("metrics.trace_csv_bytes", 0), "bytes"),
        "metrics.write_json_s": (span("qapm.metrics:RunReport.write_json"), "s"),
        "metrics.report_json_bytes": (extra.get("metrics.report_json_bytes", 0), "bytes"),
        "model.j_sum": (case_sum("j_sum", model=True), "1"),
        "model.e_avg": (sum(e_avgs) / len(e_avgs) if e_avgs else 0.0, "1"),
        "model.misses": (case_sum("misses", model=True), "count"),
        "model.speed_changes": (case_sum("speed_changes", model=True), "count"),
        "model.jobs": (case_sum("jobs", model=True), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_traced(run: Run, seconds: float) -> dict:
    """Untraced and traced invocations, one at a time and in alternating
    order, until ``seconds`` would be exceeded (at least two of each)."""
    run.setup_once()  # warm-up: fills the bytecode cache
    pairs = []
    start = time.monotonic()
    order = ("plain", "trace")
    while run.ok:
        for mode in order:
            inv = run.new(mode)
            run.run(inv)
            pairs.append(inv)
        order = order[::-1]
        walls = [i.wall_s for i in pairs if i.wall_s is not None]
        if len(pairs) >= 4 and (
                time.monotonic() - start + 2 * statistics.median(walls) > seconds):
            break
    check_repeats(pairs)
    traced = [i for i in pairs if i.mode == "trace"]
    untraced = [i for i in pairs if i.mode == "plain"]
    if not all(i.ok for i in pairs):
        return {}
    for inv in traced[1:]:
        if _counters(inv.stats) != _counters(traced[0].stats):
            inv.problems.append("work counters differ from the first traced invocation")
    return layer_metrics(traced, untraced)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(wl, seed)
    try:
        metrics = run_traced(run, seconds) if trace else run_untraced(run, seconds)
    finally:
        run.close()
    backend = next((i.stats.get("backend") for i in run.invocations if i.stats), None)
    failed = run.failed
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(backend),
        "attempted": len(run.invocations),
        "failed": len(failed),
        "problems": [f"{inv.mode} #{run.invocations.index(inv) + 1}: {p}"
                     for inv in failed for p in inv.problems],
        "cases": next((i.stats.get("cases") for i in run.invocations
                       if i.mode == "trace" and i.stats.get("cases")), None),
        "absent": next((i.stats.get("absent") for i in run.invocations
                        if i.mode == "trace" and i.ok), None),
        "metrics": metrics,
    }


def report(record: dict) -> dict:
    """Print the human-readable record; return the contract's result line."""
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}"
          f": {record['why']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    factor = record["metrics"].get("wall_s", {}).get("host_factor")
    if factor:
        print(f"# host factor {factor:.4f}: timings below are the unscaled "
              f"value divided by it (speeds multiplied)")
    for name, m in record["metrics"].items():
        extra = ""
        if "n" in m:
            extra = (f"  ({m['stat']} of {m['n']}, unscaled {m['raw']:.6g}; median "
                     f"{m['median']:.6g}, range {m['min']:.6g}..{m['max']:.6g})")
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}{extra}")
    for i, case in enumerate(record["cases"] or []):
        print(f"# case {i + 1}: " + json.dumps(case, sort_keys=True))
    if record["absent"]:
        print("# absent (not wrapped): " + ", ".join(record["absent"]))
    print(f"# failures: {record['failed']} of {record['attempted']} invocations")
    for p in record["problems"]:
        print(f"#   {p}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    metrics = record["metrics"]
    complete = bool(metrics) if record["trace"] else set(metrics) == set(E2E)
    correct = record["failed"] == 0 and complete
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the children's cleanup


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "qapm", "__init__.py")):
        print(f"error: no qapm sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results.append(report(record))
        print(json.dumps(results[-1]), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
