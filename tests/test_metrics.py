"""IAE and energy accounting, trace CSV, report serialization."""

import csv
import io
import json
import tracemalloc

import pytest

from qapm.metrics import (
    _BLOCK,
    RunReport,
    TraceRecorder,
    line_chart_svg,
    sig6,
)
from qapm.plant import StateSpacePlant, TransferFunction
from qapm.policy import CpuLevels
from qapm.scenario import Scenario, builtin_table1, resolve_cpu
from qapm.sim import run_loop

from conftest import long_rows, recompute


# --- IAE --------------------------------------------------------------------

def test_iae_unit_error_for_one_second():
    # A plant at rest with zero input has y = 0; against a unit reference
    # the error is 1 throughout, so one second sums to 1 (up to the
    # rounding of 10 000 micro-step terms of 1e-4 s each).
    p = StateSpacePlant(TransferFunction((1.0,), (1.0, 1.0)),
                        micro_step_us=100)
    y = p.advance(1_000_000, 1.0, 0.0)
    assert p.iae == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert y == 0.0


# --- energy -----------------------------------------------------------------
#
# The simulator keeps the speed and its change list; the report's average
# power is the energy integral summed from that list, over the duration.

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
    assert recompute(rep.speed_changes, 2_000_000) == pytest.approx(0.5)


def test_full_speed_baseline():
    rep = one_loop(CpuLevels((1.0,), name="full"), "dvs-only", 3.0)
    assert rep.speed_changes == [(0, 1.0)]
    assert recompute(rep.speed_changes, 3_000_000) == pytest.approx(3.0)


def test_zero_duration_integral_is_zero():
    rep = run_loop(builtin_table1().with_(duration_s=0.0)).report
    assert rep.speed_changes == [(0, 1.0)]
    assert recompute(rep.speed_changes, 0) == 0.0
    assert rep.e_avg is None


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
        assert recompute(changes, end_tick) == pytest.approx(expected,
                                                             rel=1e-12)
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
    # decrease, and the average power is its in-order sum over the
    # duration, bit for bit.
    for _, rep in speed_runs:
        changes = rep.speed_changes
        assert len(changes) > 1
        assert changes[0] == (0, 1.0)
        assert all(t0 <= t1 for (t0, _), (t1, _) in zip(changes, changes[1:]))
        end_tick = round(rep.duration_s * 1e6)
        assert rep.e_avg == recompute(changes, end_tick) / rep.duration_s


# --- serialization helpers ---------------------------------------------------

def test_sig6():
    assert sig6(0.9176420135) == 0.917642
    assert sig6(1234567.89) == 1234570.0
    assert sig6(0.0) == 0.0


TABLE1_HEADER = ("time_s,r,alpha,y1,u1,h_eff_ms1,y2,u2,h_eff_ms2,"
                 "y3,u3,h_eff_ms3,y4,u4,h_eff_ms4\r\n")


def long_rows_from_csv(path) -> list[tuple]:
    """The long rows (see `conftest.long_rows`) rebuilt from a trace.csv:
    loop ids from the y<id> columns, e = r - y, energy_inst = alpha**2."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    ids = [int(name[1:]) for name in header[3::3]]
    assert header == ["time_s", "r", "alpha"] + [
        f"{name}{lid}" for lid in ids for name in ("y", "u", "h_eff_ms")]
    out = []
    for row in rows:
        t, r, alpha = map(float, row[:3])
        ys, us, hs = (map(float, row[c::3]) for c in (3, 4, 5))
        for lid, y, u, h in zip(ids, ys, us, hs):
            out.append((t, lid, r, y, r - y, u, h, alpha, alpha * alpha))
    return out


def test_trace_csv_round_trip(tmp_path):
    # two visits of two loops: (tick, r, alpha, periods in seconds, u) per
    # visit, (loop id, y) per loop
    rec = TraceRecorder(
        [(1000, 1.0, 0.5, [0.010, 0.007], (12.5, -1.0)),
         (2000, 0.0, 1.0, [0.010, 0.008], (12.5, 0.0))],
        [(1, [0.25, -0.0]), (2, [0.3333333333333333, 0.1])],
    )
    path = tmp_path / "trace.csv"
    rec.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # one row per visit: time_s = tick * 1e-6, then y, u and h_eff_ms =
    # h * 1000.0 of each loop; floats are written with repr, so they parse
    # back exactly
    assert rows == [
        ["time_s", "r", "alpha", "y1", "u1", "h_eff_ms1",
         "y2", "u2", "h_eff_ms2"],
        ["0.001", "1.0", "0.5", "0.25", "12.5", "10.0",
         "0.3333333333333333", "-1.0", "7.0"],
        ["0.002", "0.0", "1.0", "-0.0", "12.5", "10.0", "0.1", "0.0", "8.0"]]
    # the long rows, e and energy_inst included, are rebuilt exactly
    assert repr(long_rows_from_csv(path)) == repr(long_rows(rec))
    assert long_rows(rec)[1][4] == 1.0 - 0.3333333333333333
    # the chart series: E(t) = alpha * alpha and h<loop id> = h_eff_ms
    assert rec.energy_series() == {"E(t)": [(0.001, 0.25), (0.002, 1.0)]}
    assert rec.period_series() == {"h1": [(0.001, 10.0), (0.002, 10.0)],
                                   "h2": [(0.001, 7.0), (0.002, 8.0)]}


@pytest.mark.parametrize("loops, header", [
    ((), "time_s,r,alpha"),
    ((2, 0), "time_s,r,alpha,y1,u1,h_eff_ms1,y3,u3,h_eff_ms3"),
], ids=["no-loops", "ids-3-then-1"])
def test_trace_csv_columns_follow_the_task_ids(tmp_path, loops, header):
    sc = builtin_table1().with_(duration_s=0.0405)
    res = run_loop(sc.with_(loops=tuple(sc.loops[i] for i in loops)))
    assert len(res.trace.visits) == 41
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    text = path.read_bytes()
    assert text.startswith(header.encode() + b"\r\n")
    assert text.count(b"\r\n") == 42
    assert text == csv_oracle(res.trace)
    assert repr(long_rows_from_csv(path)) == repr(long_rows(res.trace))


@pytest.mark.parametrize("key", ["cpu-2-2s", "overload", "off-grid-cadence"])
def test_trace_csv_holds_every_long_row(tmp_path, overload_scenario, key):
    # Each row of the one-row-per-loop layout, e and energy_inst included,
    # is rebuilt from the file bit for bit.
    sc = {"cpu-2-2s": builtin_table1(cpu=resolve_cpu("cpu-2")).with_(
              duration_s=2.0),
          "overload": overload_scenario,
          "off-grid-cadence": PARITY_RUNS["off-grid-cadence"]()}[key]
    res = run_loop(sc)
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    rebuilt = long_rows_from_csv(path)
    assert len(rebuilt) == len(res.trace.visits) * 4
    assert repr(rebuilt) == repr(long_rows(res.trace))


# --- writer parity -------------------------------------------------------------
#
# write_csv and to_json build their text block by block and entry by entry;
# the standard library's writers over plain rows and dicts are the oracles.

def csv_oracle(trace) -> bytes:
    """trace.csv as `csv.writer` writes the trace one row per visit."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time_s", "r", "alpha"] + [
        f"{name}{lid}" for lid, _ in trace.loops
        for name in ("y", "u", "h_eff_ms")])
    for k, (tick, r, alpha, periods, us) in enumerate(trace.visits):
        row = [tick * 1e-6, r, alpha]
        for i, (_, y) in enumerate(trace.loops):
            row += [y[k], us[i], periods[i] * 1000.0]
        writer.writerow(row)
    return buf.getvalue().encode()


def json_dict(report) -> dict:
    """report.json's content: the report's fields, numbers rounded by
    `sig6`, speed-change ticks as seconds."""
    return {
        "scenario": report.scenario,
        "mode": report.mode,
        "cpu": report.cpu,
        "duration_s": sig6(report.duration_s),
        "seed": report.seed,
        "j_per_loop": {str(k): sig6(v) for k, v in report.j.items()},
        "j_sum": sig6(report.j_sum),
        "e_avg": None if report.e_avg is None else sig6(report.e_avg),
        "misses": report.misses,
        "period_stats_ms": {
            str(k): {kk: sig6(vv) if isinstance(vv, float) else vv
                     for kk, vv in st.items()}
            for k, st in report.period_stats_ms.items()
        },
        "utilization": [
            [sig6(t), sig6(ai), sig6(a)] for t, ai, a in report.utilization
        ],
        "speed_changes": [
            [sig6(tick * 1e-6), sig6(a)] for tick, a in report.speed_changes
        ],
    }


def json_oracle(report) -> str:
    return json.dumps(json_dict(report), indent=2) + "\n"


PARITY_RUNS = {
    "one-loop": lambda: Scenario(name="one", loops=builtin_table1().loops[:1],
                                 cpu=resolve_cpu("cpu-2"), duration_s=0.5),
    "off-grid-cadence": lambda: builtin_table1(
        cpu=resolve_cpu("cpu-3")).with_(duration_s=0.3, trace_cadence_ms=0.3),
    "dvs-only-cpu-1": lambda: builtin_table1(
        cpu=resolve_cpu("cpu-1"), mode="dvs-only").with_(duration_s=0.5),
}


def assert_writers_match_oracles(res, tmp_path):
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    assert path.read_bytes() == csv_oracle(res.trace)
    assert res.report.to_json() == json_oracle(res.report)
    res.report.write_json(tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == json_oracle(res.report)


@pytest.mark.parametrize("key", PARITY_RUNS)
def test_writers_match_the_standard_library(tmp_path, key):
    assert_writers_match_oracles(run_loop(PARITY_RUNS[key]()), tmp_path)


@pytest.mark.parametrize("visits", (1, _BLOCK, _BLOCK + 1))
def test_writers_match_the_standard_library_around_a_block(tmp_path, visits):
    # visits at 0, 1, ..., visits - 1 ms
    res = run_loop(builtin_table1().with_(duration_s=(2 * visits - 1) / 2000))
    assert len(res.trace.visits) == visits
    assert_writers_match_oracles(res, tmp_path)


def test_writers_match_the_standard_library_at_zero_duration(tmp_path):
    res = run_loop(builtin_table1().with_(duration_s=0.0))
    assert res.trace.visits == []
    assert_writers_match_oracles(res, tmp_path)
    assert (tmp_path / "trace.csv").read_bytes() == TABLE1_HEADER.encode()
    assert '"utilization": [],' in res.report.to_json()


def test_writers_match_the_standard_library_on_overload(tmp_path,
                                                        overload_scenario):
    res = run_loop(overload_scenario)
    assert res.report.misses > 0
    assert_writers_match_oracles(res, tmp_path)


def test_writers_keep_the_sign_of_zero(tmp_path):
    # Zeros are never cached as text: 0.0 and -0.0 are equal keys.
    rec = TraceRecorder(
        [(0, 0.0, 1.0, [0.010, 0.010], (0.0, -0.0)),
         (1000, -0.0, 1.0, [0.010, 0.010], (-0.0, 0.0)),
         (2000, 0.0, 1.0, [0.010, 0.010], (0.0, 0.0))],
        [(1, [0.0, -0.0, 0.0]), (2, [-0.0, 0.0, -0.0])],
    )
    path = tmp_path / "trace.csv"
    rec.write_csv(path)
    text = path.read_bytes()
    assert text == csv_oracle(rec)
    assert b"-0.0" in text and b",0.0," in text
    rep = make_report()
    rep.utilization, rep.speed_changes = [], []
    assert rep.to_json() == json_oracle(rep)
    assert rep.to_json().endswith('"utilization": [],\n  "speed_changes": []\n}\n')


def test_write_csv_holds_a_block_not_the_file(tmp_path):
    # The peak memory of writing the 2 s cpu-2 trace stays far below the
    # file's size: text is formed and written a block at a time.
    res = run_loop(builtin_table1(cpu=resolve_cpu("cpu-2")).with_(
        duration_s=2.0))
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res.trace.write_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == 478_787
    assert peak < size / 2, (peak, size)


def make_report():
    return RunReport(
        scenario="table1", mode="qapm", cpu="cpu-2", duration_s=12.0,
        seed=0, j={1: 1.25, 2: 2.5}, j_sum=3.75,
        e_avg=0.523, misses=0,
        period_stats_ms={1: {"min": 9.0, "max": 40.0, "mean": 20.0, "count": 100}},
        utilization=[(0.0, 0.9, 1.0)], speed_changes=[(0, 1.0), (5, 0.92)],
    )


def test_report_json_round_trip(tmp_path):
    rep = make_report()
    d = json.loads(rep.to_json())
    assert d == json_dict(rep)
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
    assert json.loads(rep.to_json())["e_avg"] is None


def test_line_chart_svg():
    svg = line_chart_svg(
        {"alpha": [(0.0, 1.0), (1.0, 0.5)], "ideal": [(0.0, 0.9), (1.0, 0.4)]},
        title="speed", x_label="t", y_label="alpha",
    )
    assert svg.lstrip().startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "speed" in svg
