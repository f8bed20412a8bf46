"""Acceptance gate: the eight headline criteria for the benchmark study.

Each test prints one [PASS]/[FAIL] line (bypassing capture so the verdicts
always appear) and then asserts.  Criteria 2 and 4 fail honestly on this
engine: the measured values and their distance from each bound are listed
under "Tests" in the README and, per change, in CHANGES.md.  The results
do not depend on the trace cadence (see
``test_sim.test_results_do_not_depend_on_trace_cadence``), so each verdict
is a property of the scenario.
"""

import math
import random

import pytest

from qapm.plant import StateSpacePlant
from qapm.policy import (
    AdaptationParams,
    CpuLevels,
    TaskSpec,
    ideal_speed,
    quantize_speed,
    reclaim_periods,
)
from qapm.scenario import TransferFunction, builtin_table1, resolve_cpu
from qapm.sim import run_loop

from conftest import scale_factors

ADAPTIVE = ("cpu-1", "cpu-2", "cpu-3", "cpu-4", "cpu-ideal")
MULTI_LEVEL = ("cpu-1", "cpu-2", "cpu-3", "cpu-4")

E_TARGETS = {
    "cpu-1": 0.796, "cpu-2": 0.694, "cpu-3": 0.636,
    "cpu-4": 0.614, "cpu-ideal": 0.504,
}
J_TARGETS = {
    "osdvs": 7.588, "cpu-1": 7.895, "cpu-2": 8.034,
    "cpu-3": 8.006, "cpu-4": 8.020, "cpu-ideal": 8.164,
}
J1_OSDVS_TARGET = 1.205


def report_line(capsys, ok: bool, num: int, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1_osdvs_exactness(bench_runs, capsys):
    rep = bench_runs["osdvs"].report
    expect = (1207.0 / 1260.0) ** 2
    alphas = {a for _, _, a in rep.utilization}
    ok = abs(rep.e_avg - 0.918) <= 0.001 and len(alphas) == 1
    detail = (f"osDVS E_AVG={rep.e_avg:.5f} (target 0.918 +/- 0.001, "
              f"analytic {expect:.5f}), constant alpha={len(alphas) == 1}")
    line = report_line(capsys, ok, 1, detail)
    assert ok, line


def test_criterion_2_energy_reproduction(bench_runs, capsys):
    e = {k: bench_runs[k].report.e_avg for k in bench_runs}
    order = ["osdvs", "cpu-1", "cpu-2", "cpu-3", "cpu-4", "cpu-ideal"]
    ordered = all(e[a] > e[b] for a, b in zip(order, order[1:]))
    devs = {k: e[k] - E_TARGETS[k] for k in ADAPTIVE}
    within = {k: abs(d) <= 0.08 for k, d in devs.items()}
    ok = ordered and all(within.values())
    detail = (
        "E_AVG vs published targets (tolerance 0.08): "
        + ", ".join(f"{k} {e[k]:.3f} vs {E_TARGETS[k]:.3f} ({devs[k]:+.3f})"
                    for k in ADAPTIVE)
        + f"; strict ordering {'holds' if ordered else 'broken'}"
    )
    line = report_line(capsys, ok, 2, detail)
    assert ok, line


def test_criterion_3_qoc_reproduction(bench_runs, capsys):
    j = {k: bench_runs[k].report.j_sum for k in bench_runs}
    rel = {k: (j[k] - J_TARGETS[k]) / J_TARGETS[k] for k in j}
    within = all(abs(r) <= 0.15 for r in rel.values())
    baseline_floor = all(j[k] >= j["osdvs"] for k in ADAPTIVE)
    ideal_rise = (j["cpu-ideal"] - j["osdvs"]) / j["osdvs"]
    ok = within and baseline_floor and ideal_rise <= 0.15
    detail = (
        "J_SUM within 15% of targets: "
        + ", ".join(f"{k} {j[k]:.3f} ({rel[k]:+.1%})" for k in j)
        + f"; adaptive >= osDVS {baseline_floor}; "
        f"ideal rise {ideal_rise:.1%} (limit 15%)"
    )
    line = report_line(capsys, ok, 3, detail)
    assert ok, line


def test_criterion_4_loop1_qoc(bench_runs, capsys):
    j1 = {k: bench_runs[k].report.j[1] for k in bench_runs}
    base_ok = abs(j1["osdvs"] - J1_OSDVS_TARGET) / J1_OSDVS_TARGET <= 0.15
    worst_key = max(MULTI_LEVEL, key=lambda k: j1[k])
    rise = (j1[worst_key] - j1["osdvs"]) / j1["osdvs"]
    ok = base_ok and rise <= 0.10
    detail = (
        f"loop-1 IAE: osDVS {j1['osdvs']:.4f} vs target {J1_OSDVS_TARGET} "
        f"({(j1['osdvs'] - J1_OSDVS_TARGET) / J1_OSDVS_TARGET:+.1%}, limit 15%); "
        f"worst multiple-voltage run {worst_key} {j1[worst_key]:.4f} "
        f"(+{rise:.2%} over osDVS, limit 10%)"
    )
    line = report_line(capsys, ok, 4, detail)
    assert ok, line


def test_criterion_5_zero_deadline_misses(bench_runs, capsys):
    misses = {k: bench_runs[k].report.misses for k in bench_runs}
    total = sum(misses.values())
    ok = total == 0
    offenders = ", ".join(f"{k}: {m}" for k, m in misses.items() if m)
    detail = (
        f"{total} deadline misses over the six 12 s runs"
        + (f" ({offenders}); a miss means the demand released into some "
           f"interval exceeded the speed there, which the power manager's "
           f"in-flight demand check (qapm.policy.decide, applied "
           f"in qapm.sim) is meant to rule out"
           if total else "")
    )
    line = report_line(capsys, ok, 5, detail)
    assert ok, line


def test_criterion_6_policy_property_suite(capsys):
    rng = random.Random(618)
    # eta: range, monotonicity in the error, continuity at both thresholds
    for _ in range(100_000):
        beta = rng.uniform(0.5, 120.0)
        e_min = rng.uniform(0.0, 0.4)
        e_max = e_min + rng.uniform(1e-3, 0.6)
        ratio = rng.uniform(1.0, 12.0)
        spec = TaskSpec(1, 1.0, 10.0, 10.0 * ratio,
                        AdaptationParams(beta, e_min, e_max))
        e1 = rng.uniform(0.0, e_max * 1.5)
        e2 = rng.uniform(0.0, e_max * 1.5)
        factor = scale_factors(spec)
        f1 = factor(e1)
        f2 = factor(e2)
        assert 1.0 - 1e-12 <= f1 <= ratio + 1e-12
        if e1 != e2:
            lo_f, hi_f = (f1, f2) if e1 < e2 else (f2, f1)
            assert lo_f >= hi_f - 1e-9
        assert abs(factor(e_min) - ratio) <= 1e-9 * ratio
        assert abs(factor(e_max) - 1.0) <= 1e-9
    # quantization equals brute force on randomized level sets
    for _ in range(10_000):
        n = rng.randint(1, 9)
        lv = sorted(set(round(rng.uniform(0.05, 0.99), 3) for _ in range(n)))
        cpu = CpuLevels(tuple(lv + [1.0]))
        a = rng.uniform(1e-3, 1.0)
        assert quantize_speed(a, cpu) == min(
            l for l in cpu.levels if l >= a - 1e-12)
    # reclaiming restores utilization 1 exactly
    checked = 0
    while checked < 10_000:
        n = rng.randint(1, 6)
        cs = [rng.uniform(1e-4, 5e-3) for _ in range(n)]
        hs = [c / rng.uniform(0.01, 0.9 / n) for c in cs]
        ai = ideal_speed(zip(cs, hs))
        if ai > 1.0:
            continue
        lv = sorted(set(round(rng.uniform(0.05, 0.99), 3) for _ in range(5)))
        alpha = quantize_speed(ai, CpuLevels(tuple(lv + [1.0])))
        eff = reclaim_periods(hs, ai, alpha)
        u = sum(c / h for c, h in zip(cs, eff))
        assert abs(u / alpha - 1.0) <= 1e-9
        checked += 1
    detail = ("eta range/monotonicity/continuity on 100000 samples, "
              "quantization brute-force equality on 10000 level sets, "
              "post-reclaim utilization == 1 within 1e-9 on 10000 task sets")
    line = report_line(capsys, True, 6, detail)
    assert line


def test_criterion_7_integrator_oracle(capsys):
    tf = TransferFunction((1.0,), (20.0, 10.0, 1.0))
    r5 = math.sqrt(5.0)
    p1, p2 = -5.0 + r5, -5.0 - r5
    c1 = 1.0 / (p1 * (p1 - p2))
    c2 = 1.0 / (p2 * (p2 - p1))

    def analytic(t):
        return 0.05 + c1 * math.exp(p1 * t) + c2 * math.exp(p2 * t)

    def max_err(micro_us, horizon_us, chunk_us):
        plant = StateSpacePlant(tf, micro_step_us=micro_us)
        worst, t = 0.0, 0
        while t < horizon_us:
            y = plant.advance(plant.time_us + chunk_us, 0.0, 1.0)
            t += chunk_us
            worst = max(worst, abs(y - analytic(t * 1e-6)))
        return worst

    err100 = max_err(100, 3_000_000, 10_000)
    e800 = max_err(800, 500_000, 4_000)
    e400 = max_err(400, 500_000, 4_000)
    ratio = e800 / e400
    ok = err100 <= 1e-6 and 12.0 <= ratio <= 20.0
    detail = (f"max step-response error {err100:.2e} at 100 us "
              f"(limit 1e-6); halving 800->400 us cuts error {ratio:.1f}x "
              f"(expect ~16x)")
    line = report_line(capsys, ok, 7, detail)
    assert ok, line


def test_criterion_8_determinism(tmp_path, capsys):
    sc = builtin_table1(cpu=resolve_cpu("cpu-2"))
    blobs = []
    for name in ("a", "b"):
        res = run_loop(sc)
        d = tmp_path / name
        d.mkdir()
        res.trace.write_csv(d / "trace.csv")
        res.report.write_json(d / "report.json")
        blobs.append(((d / "trace.csv").read_bytes(),
                      (d / "report.json").read_bytes()))
    ok = blobs[0] == blobs[1]
    detail = ("repeated identical-seed runs produce byte-identical "
              "trace.csv and report.json" if ok else
              "reruns differ byte-for-byte")
    line = report_line(capsys, ok, 8, detail)
    assert ok, line
