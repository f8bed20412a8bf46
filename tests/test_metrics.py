"""IAE and energy accounting, trace CSV, report serialization."""

import csv
import json

import pytest

from qapm.metrics import (
    TRACE_COLUMNS,
    RunReport,
    TraceRecorder,
    line_chart_svg,
    sig6,
)
from qapm.plant import StateSpacePlant
from qapm.policy import CpuLevels
from qapm.scenario import Scenario, builtin_table1, resolve_cpu
from qapm.sim import run_loop


# --- IAE --------------------------------------------------------------------

def test_iae_unit_error_for_one_second():
    # A plant at rest with zero input has y = 0; against a unit reference
    # the error is 1 throughout, so one second sums to 1 (up to the
    # rounding of 10 000 micro-step terms of 1e-4 s each).
    p = StateSpacePlant([-1.0], [1.0], [1.0], micro_step_us=100)
    p.integrate(1_000_000, r=1.0)
    assert p.iae == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert p.sample() == 0.0


# --- energy -----------------------------------------------------------------
#
# The simulator keeps the speed and its change list; the report's energy
# integral is summed from that list.

def one_loop(cpu, mode, duration_s):
    """Table 1's first loop alone: one 2 ms job every 10 ms."""
    sc = Scenario(name="one", loops=builtin_table1().loops[:1], cpu=cpu,
                  mode=mode, duration_s=duration_s)
    return run_loop(sc).report


def test_half_speed_for_two_seconds_costs_half():
    # dvs-only quantizes the 0.2 workload onto {0.5, 1.0} at the first
    # release, at tick 0
    rep = one_loop(resolve_cpu("cpu-1"), "dvs-only", 2.0)
    assert rep.speed_changes == [(0, 1.0), (0, 0.5)]
    assert rep.energy_integral == pytest.approx(0.5)


def test_full_speed_baseline():
    rep = one_loop(CpuLevels((1.0,), name="full"), "dvs-only", 3.0)
    assert rep.speed_changes == [(0, 1.0)]
    assert rep.energy_integral == pytest.approx(3.0)


def test_zero_duration_integral_is_zero():
    rep = run_loop(builtin_table1().with_(duration_s=0.0)).report
    assert rep.speed_changes == [(0, 1.0)]
    assert rep.energy_integral == 0.0


def recompute(changes, end_tick: int) -> float:
    """Re-integrate from a speed-change list, same operation order."""
    total = 0.0
    for i, (t0, a) in enumerate(changes):
        t1 = changes[i + 1][0] if i + 1 < len(changes) else end_tick
        total += a * a * (t1 - t0) * 1e-6
    return total


@pytest.fixture
def speed_runs(bench_runs, overload_scenario):
    """The benchmark runs, an overloaded run and a run with jitter and
    switch stalls, as (processor, report) pairs."""
    jitter = builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
        duration_s=2.0, c_jitter=0.2, seed=7, switch_overhead_us=50)
    return [(sc.cpu, run_loop(sc).report) for sc in (overload_scenario, jitter)] + [
        (resolve_cpu("cpu-ideal" if key == "osdvs" else key), res.report)
        for key, res in bench_runs.items()]


def test_piecewise_segments(speed_runs):
    # The speed is piecewise constant between changes: the energy integral
    # is the sum of alpha^2 times the length of each segment, and the
    # segments tile the run from tick 0 to its end.  A change at the tick
    # of the one before it leaves a zero-length segment that costs nothing.
    spans = []
    for _, rep in speed_runs:
        changes = rep.speed_changes
        end_tick = round(rep.duration_s * 1e6)
        bounds = [t for t, _ in changes[1:]] + [end_tick]
        segments = [(t0, t1, a) for (t0, a), t1 in zip(changes, bounds)]
        assert segments[0][0] == 0 and segments[-1][1] == end_tick
        assert all(s[1] == n[0] for s, n in zip(segments, segments[1:]))
        spans.append(sum(1 for t0, t1, _ in segments if t1 > t0))
        expected = sum(a * a * (t1 - t0) for t0, t1, a in segments) * 1e-6
        assert rep.energy_integral == pytest.approx(expected, rel=1e-12)
    # the osDVS baseline holds one speed; every other run changes it often
    assert min(spans) == 1 and sorted(spans)[1] > 10


def test_set_alpha_reports_actual_changes_only(speed_runs):
    # The simulator records a speed change only when the speed differs
    # from the one in force, and only at a level of the run's processor.
    for cpu, rep in speed_runs:
        changes = rep.speed_changes
        assert all(a0 != a1 for (_, a0), (_, a1) in zip(changes, changes[1:]))
        if not cpu.ideal:
            assert all(a in cpu.levels for _, a in changes)
    # a one-level processor never changes speed
    assert one_loop(CpuLevels((1.0,), name="full"), "qapm",
                    1.0).speed_changes == [(0, 1.0)]


def test_recompute_matches_online_integral(speed_runs):
    # The change list starts at full speed at tick 0, its ticks never
    # decrease, and the energy integral is its in-order sum, bit for bit.
    for _, rep in speed_runs:
        changes = rep.speed_changes
        assert len(changes) > 1
        assert changes[0] == (0, 1.0)
        assert all(t0 <= t1 for (t0, _), (t1, _) in zip(changes, changes[1:]))
        end_tick = round(rep.duration_s * 1e6)
        assert rep.energy_integral == recompute(changes, end_tick)
        assert rep.e_avg == rep.energy_integral / rep.duration_s


# --- serialization helpers ---------------------------------------------------

def test_sig6():
    assert sig6(0.9176420135) == 0.917642
    assert sig6(1234567.89) == 1234570.0
    assert sig6(0.0) == 0.0


def test_trace_csv_round_trip(tmp_path):
    # two visits of two loops: (time_s, r, alpha, energy draw) per visit,
    # (loop id, y, u, h_eff_ms) per loop
    rec = TraceRecorder(
        [(0.001, 1.0, 0.5, 0.25), (0.002, 0.0, 1.0, 1.0)],
        [(1, [0.25, -0.0], [12.5, 12.5], [10.0, 10.0]),
         (2, [0.3333333333333333, 0.1], [-1.0, 0.0], [7.0, 8.0])],
    )
    path = tmp_path / "trace.csv"
    rec.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == 5
    # rows in order of visit, then loop, e = r - y; floats are written
    # with repr, so they parse back exactly
    assert [(float(t), int(loop)) for t, loop, *_ in rows[1:]] == [
        (0.001, 1), (0.001, 2), (0.002, 1), (0.002, 2)]
    assert float(rows[2][3]) == 0.3333333333333333
    assert rows[3][3:5] == ["-0.0", "0.0"]
    parsed = [(float(row[0]), int(row[1]), *map(float, row[2:]))
              for row in rows[1:]]
    assert parsed == rec.rows
    assert rec.rows[1][4] == 1.0 - 0.3333333333333333
    assert TraceRecorder([], [(1, [], [], [])]).rows == []


def make_report():
    return RunReport(
        scenario="table1", mode="qapm", cpu="cpu-2", duration_s=12.0,
        seed=0, j={1: 1.25, 2: 2.5}, j_sum=3.75,
        e_avg=0.523, energy_integral=6.276, misses=0,
        period_stats_ms={1: {"min": 9.0, "max": 40.0, "mean": 20.0, "count": 100}},
        utilization=[(0.0, 0.9, 1.0)], speed_changes=[(0, 1.0), (5, 0.92)],
    )


def test_report_json_round_trip(tmp_path):
    rep = make_report()
    d = json.loads(rep.to_json())
    assert d == rep.to_json_dict()
    assert d["scenario"] == "table1"
    assert d["j_sum"] == 3.75
    path = tmp_path / "report.json"
    rep.write_json(path)
    assert json.loads(path.read_text()) == d


def test_report_json_stable():
    rep = make_report()
    assert rep.to_json() == rep.to_json()


def test_zero_duration_report_has_no_average():
    rep = make_report()
    rep.e_avg = None
    d = rep.to_json_dict()
    assert d["e_avg"] is None


def test_line_chart_svg():
    svg = line_chart_svg(
        {"alpha": [(0.0, 1.0), (1.0, 0.5)], "ideal": [(0.0, 0.9), (1.0, 0.4)]},
        title="speed", x_label="t", y_label="alpha",
    )
    assert svg.lstrip().startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "speed" in svg
