"""Scenario assembly, builtin benchmark, validation, YAML persistence."""

import pytest

from qapm.policy import ConfigurationError
from qapm.scenario import (
    MODES,
    builtin_cpus,
    builtin_table1,
    from_mapping,
    load_scenario,
    resolve_cpu,
    save_scenario,
    to_mapping,
    validate,
)


# --- builtin benchmark -------------------------------------------------------

def test_builtin_has_four_loops_and_12s_horizon():
    sc = builtin_table1()
    assert len(sc.loops) == 4
    assert sc.duration_s == 12.0
    assert sc.perturbation_s == 1.0
    assert sc.mode == "qapm"
    assert sc.name == "table1"


def test_builtin_loop2_row():
    lp = builtin_table1().loops[1]
    assert lp.task.id == 2
    assert lp.task.c_nom == 0.002
    assert lp.task.h0 == 0.007
    assert lp.task.h_max == 0.030
    # 1/(s^2 + 10 s + 20), ascending coefficients
    assert lp.plant.num == (1.0,)
    assert lp.plant.den == (20.0, 10.0, 1.0)
    assert (lp.gains.kp, lp.gains.ki, lp.gains.kd) == (30.0, 70.0, 0.0)


def test_builtin_workload_is_feasible():
    sc = builtin_table1()
    u = sum(lp.task.c_nom / lp.task.h0 for lp in sc.loops)
    assert u == pytest.approx(1207.0 / 1260.0, rel=1e-15)
    assert u <= 1.0


def test_builtin_adaptation_settings_shared():
    for lp in builtin_table1().loops:
        assert lp.task.adaptation.beta == 40.0
        assert lp.task.adaptation.e_min == 0.02
        assert lp.task.adaptation.e_max == 0.3


def test_builtin_cpus():
    cpus = builtin_cpus()
    assert set(cpus) == {"cpu-1", "cpu-2", "cpu-3", "cpu-4", "cpu-ideal"}
    assert len(cpus["cpu-1"].levels) == 2
    assert len(cpus["cpu-2"].levels) == 4
    assert len(cpus["cpu-3"].levels) == 7
    assert len(cpus["cpu-4"].levels) == 16
    assert cpus["cpu-ideal"].ideal
    for name, cpu in cpus.items():
        if not cpu.ideal:
            assert cpu.levels[-1] == 1.0
            assert all(a < b for a, b in zip(cpu.levels, cpu.levels[1:]))


def test_resolve_cpu_unknown_name():
    with pytest.raises(ConfigurationError, match="cpu-9"):
        resolve_cpu("cpu-9")


def test_modes():
    assert MODES == ("qapm", "osdvs", "dvs-only")


# --- validation ---------------------------------------------------------------

def test_builtin_validates_clean():
    assert validate(builtin_table1()) == []


def test_validate_flags_bad_mode_and_duration():
    sc = builtin_table1().with_(mode="turbo", duration_s=-1.0)
    errs = validate(sc)
    assert any(e.startswith("mode:") for e in errs)
    assert any(e.startswith("duration_s:") for e in errs)


def test_validate_flags_subtick_duration():
    sc = builtin_table1().with_(duration_s=1.0000000001)
    assert any(e.startswith("duration_s:") for e in validate(sc))


def test_validate_flags_jitter_and_cadence():
    sc = builtin_table1().with_(c_jitter=0.9, trace_cadence_ms=0.0)
    errs = validate(sc)
    assert any(e.startswith("c_jitter:") for e in errs)
    assert any(e.startswith("trace_cadence_ms:") for e in errs)


def test_validate_flags_duplicate_ids():
    sc = builtin_table1()
    sc = sc.with_(loops=(sc.loops[0], sc.loops[0]))
    assert any("duplicate task ids" in e for e in validate(sc))


def test_validate_flags_overload():
    sc = builtin_table1()
    heavy = []
    for lp in sc.loops:
        task = type(lp.task)(
            id=lp.task.id, c_nom=0.006, h0=lp.task.h0,
            h_max=lp.task.h_max, adaptation=lp.task.adaptation,
        )
        heavy.append(type(lp)(task=task, plant=lp.plant, gains=lp.gains))
    errs = validate(sc.with_(loops=tuple(heavy)))
    assert any(e.startswith("loops:") and "exceeds 1" in e for e in errs)


# --- mapping and YAML round trip -----------------------------------------------

def test_mapping_round_trip():
    sc = builtin_table1(cpu=resolve_cpu("cpu-2"), mode="dvs-only")
    assert from_mapping(to_mapping(sc)) == sc


def test_yaml_round_trip(tmp_path):
    sc = builtin_table1(cpu=resolve_cpu("cpu-4"))
    path = tmp_path / "s.yaml"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_yaml_round_trip_with_overrides(tmp_path):
    sc = builtin_table1(mode="osdvs").with_(
        duration_s=3.0, seed=7, c_jitter=0.25, switch_overhead_us=50,
        trace_cadence_ms=2.0, micro_step_us=200,
    )
    path = tmp_path / "s.yaml"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_null_trace_cadence_round_trips(tmp_path):
    sc = builtin_table1().with_(trace_cadence_ms=None)
    assert validate(sc) == []
    assert to_mapping(sc)["trace_cadence_ms"] is None
    assert from_mapping(to_mapping(sc)) == sc
    path = tmp_path / "s.yaml"
    save_scenario(sc, path)
    assert "trace_cadence_ms: null" in path.read_text()
    assert load_scenario(path) == sc


def test_from_mapping_reports_field_paths():
    m = to_mapping(builtin_table1())
    m["loops"][0]["c_nom_ms"] = 8.0
    m["loops"][0]["h0_ms"] = 7.0
    with pytest.raises(ConfigurationError, match=r"loops\[0\]"):
        from_mapping(m)


def test_from_mapping_requires_loops():
    with pytest.raises(ConfigurationError, match="loops"):
        from_mapping({"name": "x"})


def test_from_mapping_rejects_descending_levels():
    m = to_mapping(builtin_table1())
    m["cpu"] = {"levels": [1.0, 0.5], "name": "bad"}
    with pytest.raises(ConfigurationError, match="ascending"):
        from_mapping(m)


def test_from_mapping_rejects_overloaded_set():
    m = to_mapping(builtin_table1())
    for lm in m["loops"]:
        lm["c_nom_ms"] = 6.0
    with pytest.raises(ConfigurationError, match="exceeds 1"):
        from_mapping(m)


def test_load_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\nloops: {")
    with pytest.raises(ConfigurationError, match="line"):
        load_scenario(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigurationError, match="empty"):
        load_scenario(path)


def test_with_returns_modified_copy():
    sc = builtin_table1()
    sc2 = sc.with_(seed=42)
    assert sc2.seed == 42
    assert sc.seed == 0
    assert sc2.loops == sc.loops
