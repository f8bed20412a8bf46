"""IAE and energy accounting, trace CSV, report serialization."""

import csv
import json
import random

import pytest

from qapm.metrics import (
    TRACE_COLUMNS,
    EnergyAccumulator,
    RunReport,
    TraceRecorder,
    line_chart_svg,
    sig6,
)
from qapm.plant import StateSpacePlant


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

def test_half_speed_for_two_seconds_costs_half():
    acc = EnergyAccumulator()
    acc.set_alpha(0, 0.5)
    assert acc.finalize(2_000_000) == pytest.approx(0.5)


def test_full_speed_baseline():
    acc = EnergyAccumulator()
    assert acc.finalize(3_000_000) == pytest.approx(3.0)


def test_piecewise_segments():
    acc = EnergyAccumulator()
    acc.set_alpha(1_000_000, 0.5)   # 1 s at 1.0, then 1 s at 0.5
    total = acc.finalize(2_000_000)
    assert total == pytest.approx(1.0 + 0.25)


def test_set_alpha_reports_actual_changes_only():
    acc = EnergyAccumulator()
    assert acc.set_alpha(10, 1.0) is False
    assert acc.set_alpha(10, 0.64) is True
    assert acc.set_alpha(20, 0.64) is False
    assert acc.changes == [(0, 1.0), (10, 0.64)]


def test_time_must_not_go_backwards():
    acc = EnergyAccumulator()
    acc.set_alpha(100, 0.5)
    with pytest.raises(ValueError):
        acc.set_alpha(99, 0.7)


def test_zero_duration_integral_is_zero():
    acc = EnergyAccumulator()
    assert acc.finalize(0) == 0.0


def recompute(changes, end_tick: int) -> float:
    """Re-integrate from a speed-change list, same operation order."""
    total = 0.0
    for i, (t0, a) in enumerate(changes):
        t1 = changes[i + 1][0] if i + 1 < len(changes) else end_tick
        total += a * a * (t1 - t0) * 1e-6
    return total


def test_recompute_matches_online_integral():
    rng = random.Random(11)
    acc = EnergyAccumulator()
    t = 0
    for _ in range(500):
        t += rng.randint(1, 50_000)
        acc.set_alpha(t, rng.choice((0.285, 0.5, 0.64, 0.92, 1.0)))
    end = t + 10_000
    online = acc.finalize(end)
    replay = recompute(acc.changes, end)
    assert abs(online - replay) <= 1e-12


# --- serialization helpers ---------------------------------------------------

def test_sig6():
    assert sig6(0.9176420135) == 0.917642
    assert sig6(1234567.89) == 1234570.0
    assert sig6(0.0) == 0.0


def test_trace_csv_round_trip(tmp_path):
    rec = TraceRecorder()
    rec.rows = [
        (0.001, 1, 1.0, 0.25, 0.75, 12.5, 10.0, 0.5, 0.25),
        (0.002, 2, 1.0, 0.3333333333333333, 2.0 / 3.0, -1.0, 7.0, 1.0, 1.0),
    ]
    path = tmp_path / "trace.csv"
    rec.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == 3
    # floats are written with repr, so they parse back exactly
    assert float(rows[2][3]) == 0.3333333333333333


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
