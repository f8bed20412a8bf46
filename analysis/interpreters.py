"""Check that reports are the same bit for bit under several interpreters.

    python analysis/interpreters.py PYTHON [PYTHON ...]

Each interpreter runs, with this checkout's src/ as PYTHONPATH, the six
canonical builtin table1 runs (`cli.SWEEP_CASES`, 12 s each) and the
jitter-cpu4 scenario at seed 1.  The script prints the SHA-256 of each
run's `report.to_json()` and of its trace as `TraceRecorder.write_csv`
writes it, per interpreter, and exits 1 if any two interpreters differ.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

CHILD = """\
import hashlib, os, platform, tempfile
from qapm.cli import SWEEP_CASES
from qapm.scenario import builtin_table1, resolve_cpu
from qapm.sim import run_loop
runs = [(key, builtin_table1(cpu=resolve_cpu(cpu), mode=mode))
        for key, mode, cpu in SWEEP_CASES]
runs.append(("jitter-cpu4", builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
    c_jitter=0.2, seed=1, switch_overhead_us=50, micro_step_us=1000,
    trace_cadence_ms=10.0)))
print("Python", platform.python_version())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    for key, sc in runs:
        result = run_loop(sc)
        result.trace.write_csv(path)
        with open(path, "rb") as fh:
            trace = fh.read()
        report = result.report.to_json().encode()
        print(f"{key:12s} report", hashlib.sha256(report).hexdigest())
        print(f"{key:12s} trace ", hashlib.sha256(trace).hexdigest())
"""


def main(interpreters: list[str]) -> int:
    if not interpreters:
        sys.exit(__doc__)
    env = dict(os.environ, PYTHONPATH=SRC)
    hashes = set()
    for exe in interpreters:
        out = subprocess.run([exe, "-c", CHILD], env=env, check=True,
                             capture_output=True, text=True).stdout
        print(f"{exe}: {out}")
        hashes.add(out.split("\n", 1)[1])
    print("identical" if len(hashes) == 1 else "DIFFERENT")
    return 0 if len(hashes) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
