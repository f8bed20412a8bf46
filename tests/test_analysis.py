"""The timing scripts under ``analysis/`` still run against the package.

Each script reaches into the simulator to record and replay what a run
does, so a change there can break it without any other test noticing.
Each is run once, with ``--repeat 1``, and only the work counts it prints
are checked, never a timing.
"""

import os
import subprocess
import sys

import pytest

ANALYSIS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "analysis")


@pytest.mark.parametrize("script, counts", (
    ("kernel_cost.py", (
        "one 2 s span at 100 us: 20000 micro steps, 2001 samples at 1000 us",
        "replay of the 2 s cpu-2 run's 1356 advance calls, 1 ms trace: ",
        "replay of the 2 s cpu-2 run's 1356 advance calls, no trace: ",
        "replay of the jitter-cpu4 seed 1 run's 6859 advance calls, "
        "no trace: ",
    )),
    ("policy_cost.py", (
        "table1 cpu-2, 2 s: 673 decisions, ",
        "jitter-cpu4 seed 1: 3404 decisions, ",
    )),
))
def test_timing_script_runs(script, counts):
    p = subprocess.run([sys.executable, os.path.join(ANALYSIS, script),
                        "--repeat", "1"],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    for text in counts:
        assert text in p.stdout, (text, p.stdout)
