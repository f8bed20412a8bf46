"""Scenario assembly, builtin benchmark, validation, YAML persistence."""

import copy
import math
import pickle
import re
import sys

import pytest
import yaml

from qapm.pid import PidGains
from qapm.policy import AdaptationParams, ConfigurationError, CpuLevels, Value
from qapm.scenario import (
    MODES,
    _block,
    _NeedsYaml,
    _read_block,
    _yaml_load,
    builtin_cpus,
    builtin_table1,
    from_mapping,
    load_scenario,
    resolve_cpu,
    save_scenario,
    to_mapping,
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


def test_builtin_cpus_are_built_once():
    # resolve_cpu hands out the one table's processors; the dict
    # builtin_cpus returns is the caller's own.
    assert resolve_cpu("cpu-2") is resolve_cpu("cpu-2")
    cpus = builtin_cpus()
    assert cpus["cpu-2"] is resolve_cpu("cpu-2")
    cpus["cpu-2"] = resolve_cpu("cpu-1")
    del cpus["cpu-3"]
    assert resolve_cpu("cpu-2").levels == (0.45, 0.64, 0.92, 1.0)
    assert resolve_cpu("cpu-3").name == "cpu-3"
    assert set(builtin_cpus()) == {"cpu-1", "cpu-2", "cpu-3", "cpu-4",
                                   "cpu-ideal"}


def test_resolve_cpu_unknown_name():
    with pytest.raises(ConfigurationError, match="cpu-9"):
        resolve_cpu("cpu-9")


def test_modes():
    assert MODES == ("qapm", "osdvs", "dvs-only")


# --- validation ---------------------------------------------------------------
#
# A scenario is checked as it is built: the constructor, and so every
# `with_`, raises one ConfigurationError whose one line lists every
# problem, each starting with its field, joined by "; ".

def rejection(**changes) -> str:
    """The one-line message building the builtin with ``changes`` raises."""
    with pytest.raises(ConfigurationError) as info:
        builtin_table1().with_(**changes)
    message = str(info.value)
    assert "\n" not in message
    return message


def test_builtin_validates_clean():
    sc = builtin_table1()
    assert sc.with_() == sc


def test_validate_flags_bad_mode_and_duration():
    message = rejection(mode="turbo", duration_s=-1.0)
    assert message.startswith("mode: ")
    assert "; duration_s: " in message


def test_validate_flags_subtick_duration():
    assert rejection(duration_s=1.0000000001).startswith("duration_s: ")


def test_validate_flags_jitter_and_cadence():
    message = rejection(c_jitter=0.9, trace_cadence_ms=0.0)
    assert message.startswith("trace_cadence_ms: ")
    assert "; c_jitter: " in message


def test_validate_flags_micro_step_range():
    for micro in (0, 1001):
        assert rejection(micro_step_us=micro) == \
            f"micro_step_us: must be in [1, 1000], got {micro}"
    for micro in (1, 1000):
        assert builtin_table1().with_(micro_step_us=micro).micro_step_us == micro


def test_validate_flags_duplicate_ids():
    lp = builtin_table1().loops[0]
    assert rejection(loops=(lp, lp)) == "loops: duplicate task ids [1, 1]"


def test_validate_flags_overload():
    heavy = tuple(lp.with_(task=lp.task.with_(c_nom=0.006))
                  for lp in builtin_table1().loops)
    assert rejection(loops=heavy) == (
        "loops: nominal workload sum(c_nom/h0) = 2.873810 exceeds 1; "
        "task set infeasible")


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
    assert to_mapping(sc)["trace_cadence_ms"] is None
    assert from_mapping(to_mapping(sc)) == sc
    path = tmp_path / "s.yaml"
    save_scenario(sc, path)
    assert "trace_cadence_ms: null" in path.read_text()
    assert load_scenario(path) == sc


def _writer_cases():
    """(label, scenario) pairs covering every value kind `to_mapping` holds."""
    for cpu in builtin_cpus().values():
        for mode in MODES:
            yield f"{cpu.name}/{mode}", builtin_table1(cpu=cpu, mode=mode)
    sc = builtin_table1(cpu=resolve_cpu("cpu-4"))
    yield "jitter-cpu4", sc.with_(
        name="table1-jitter", c_jitter=0.2, seed=1, switch_overhead_us=50,
        micro_step_us=1000, trace_cadence_ms=10.0)
    yield "null cadence", sc.with_(trace_cadence_ms=None)
    yield "ints in float fields", sc.with_(
        duration_s=2, perturbation_s=1, c_jitter=0,
        cpu=CpuLevels((0.5, 1), name="two-level"))
    lp = sc.loops[0]
    odd = lp.with_(gains=PidGains(kp=1e17, ki=math.inf, kd=-math.inf))
    yield "odd floats", sc.with_(
        c_jitter=1e-05, duration_s=1e17, loops=(odd,) + sc.loops[1:])
    yield "no loops", sc.with_(loops=())
    for name in ("yes", "a: b", "\u00e9", "Off", "NULL", "1x", "x y", ""):
        if name:
            yield f"name {name!r}", sc.with_(name=name)
        yield f"cpu name {name!r}", sc.with_(
            cpu=CpuLevels((0.5, 1.0), name=name))


def _edited_mappings() -> dict:
    """Mappings of values no valid scenario holds, edited into a scenario's,
    so that the writer and reader still cover them."""
    m = to_mapping(builtin_table1(cpu=resolve_cpu("cpu-4")))
    return {"nan and inf": {**m, "perturbation_s": math.inf,
                            "trace_cadence_ms": math.nan},
            "name ''": {**m, "name": ""}}


def test_saved_file_is_what_pyyaml_writes(tmp_path):
    path = tmp_path / "s.yaml"
    for label, sc in _writer_cases():
        save_scenario(sc, path)
        expected = yaml.safe_dump(to_mapping(sc), sort_keys=False)
        assert path.read_text(encoding="utf-8") == expected, label
    # .nan and .inf are written as PyYAML writes them; a name it quotes is
    # left to it.
    edited = _edited_mappings()
    m = edited["nan and inf"]
    assert "".join(_block(m, "")) == yaml.safe_dump(m, sort_keys=False)
    with pytest.raises(_NeedsYaml):
        "".join(_block(edited["name ''"], ""))


def _jitter_cpu4_text():
    """A scenario file shaped as the benchmark's jitter-cpu4 one: a cpu by
    name and one adaptation block for every loop, dumped by PyYAML."""
    sc = builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
        name="table1-jitter", c_jitter=0.2, seed=1, switch_overhead_us=50,
        micro_step_us=1000, trace_cadence_ms=10.0)
    m = to_mapping(sc)
    m["cpu"] = "cpu-4"
    m["adaptation"] = [lm.pop("adaptation") for lm in m["loops"]][0]
    return yaml.safe_dump(m, sort_keys=False)


def _outcome(load, path):
    """The scenario ``load(path)`` returns, or its configuration error."""
    try:
        return load(path)
    except ConfigurationError as exc:
        return str(exc)


def _load_with_pyyaml(path):
    with open(path, encoding="utf-8") as fh:
        return from_mapping(_yaml_load(fh, path))


def test_saved_layout_is_read_without_pyyaml(tmp_path, monkeypatch):
    # The reader reads every file the block writer wrote, and only those,
    # into PyYAML's mapping; load_scenario then needs no PyYAML at all.
    # A file of values no valid scenario holds loads to the same error
    # either way.
    path = tmp_path / "s.yaml"
    saved = []
    for label, sc in _writer_cases():
        save_scenario(sc, path)
        saved.append((label, to_mapping(sc), path.read_text(encoding="utf-8")))
    saved += [(label, m, yaml.safe_dump(m, sort_keys=False))
              for label, m in _edited_mappings().items()]
    files = []
    for label, m, text in saved:
        try:
            "".join(_block(m, ""))
        except _NeedsYaml:
            with pytest.raises(_NeedsYaml):
                _read_block(text)
            continue
        files.append((label, text))
    files.append(("jitter-cpu4", _jitter_cpu4_text()))
    for label, text in files:
        path.write_text(text, encoding="utf-8")
        # repr tells 1 from 1.0 and -0.0 from 0.0, and nan equals nan
        assert repr(_read_block(text)) == repr(yaml.safe_load(text)), label
        expected = _outcome(_load_with_pyyaml, path)
        with monkeypatch.context() as mp:
            mp.setitem(sys.modules, "yaml", None)  # importing it fails
            assert _outcome(load_scenario, path) == expected, label


# (what, old, new, read): edits of the jitter-cpu4 file at the edge of the
# layout, and whether the reader reads the result or leaves it to PyYAML.
NEAR_MISSES = (
    ("int -0", "seed: 1", "seed: -0", True),
    ("float -0.0", "c_jitter: 0.2", "c_jitter: -0.0", True),
    ("signed exponent", "duration_s: 12.0", "duration_s: 1.2e+1", True),
    ("leading zero float", "duration_s: 12.0", "duration_s: 012.0", True),
    ("comment line", "seed: 1\n", "seed: 1  # the jitter seed\n", False),
    ("comment line alone", "seed: 1\n", "# seed\nseed: 1\n", False),
    ("blank line", "seed: 1\n", "seed: 1\n\n", False),
    ("duplicate key", "seed: 1\n", "seed: 1\nseed: 2\n", True),
    ("quoted name", "name: table1-jitter", "name: 'table1-jitter'", False),
    ("bool word", "name: table1-jitter", "name: Yes", False),
    ("flow list", "num:\n    - 1.0", "num: [1.0]", False),
    ("tab", "seed: 1", "seed:\t1", False),
    ("document start", "name: ", "---\nname: ", False),
    ("tilde", "trace_cadence_ms: 10.0", "trace_cadence_ms: ~", False),
    ("1e3", "duration_s: 12.0", "duration_s: 1e3", False),
    ("unsigned exponent", "duration_s: 12.0", "duration_s: 1.2e1", False),
    ("+1", "seed: 1", "seed: +1", False),
    ("007", "seed: 1", "seed: 007", False),
    ("1_000", "switch_overhead_us: 50", "switch_overhead_us: 1_000", False),
    ("1:30", "seed: 1", "seed: 1:30", False),
    (".Inf", "duration_s: 12.0", "duration_s: .Inf", False),
    ("odd indent", "  e_min: 0.02", "   e_min: 0.02", False),
    ("deeper list", "    - 1.0\n    den", "      - 1.0\n    den", False),
    ("dedent to no level", "  e_max: 0.3", " e_max: 0.3", False),
    ("key with no value", "seed: 1", "seed:", False),
    ("trailing space", "seed: 1", "seed: 1 ", False),
)


@pytest.mark.parametrize("what,old,new,read", NEAR_MISSES,
                         ids=[c[0] for c in NEAR_MISSES])
def test_near_miss_files_load_as_pyyaml_reads_them(tmp_path, what, old, new, read):
    text = _jitter_cpu4_text()
    assert old in text
    text = text.replace(old, new, 1)
    if read:
        assert repr(_read_block(text)) == repr(yaml.safe_load(text))
    else:
        with pytest.raises(_NeedsYaml):
            _read_block(text)
    path = tmp_path / "s.yaml"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_scenario, path) == _outcome(_load_with_pyyaml, path)


def test_value_types_are_frozen_values():
    sc = builtin_table1(cpu=resolve_cpu("cpu-4"))
    task = sc.loops[0].task
    for value, field in ((sc, "seed"), (task, "h0"), (sc.cpu, "levels")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    twin = builtin_table1(cpu=resolve_cpu("cpu-4"))
    assert twin == sc and hash(twin) == hash(sc)
    assert sc.with_(seed=1) != sc
    assert PidGains(40.0, 0.02, 0.3) != AdaptationParams(40.0, 0.02, 0.3)
    with pytest.raises(ConfigurationError):
        task.with_(h_max=task.h0 / 2)
    for clone in (pickle.loads(pickle.dumps(sc)), copy.copy(sc), copy.deepcopy(sc)):
        assert clone == sc


_LOOP = builtin_table1().loops[0]
_CPU1 = resolve_cpu("cpu-1")


@pytest.mark.parametrize("value, changes, field", (
    (_LOOP.task, {"adaptation": None}, "adaptation"),
    (_LOOP.task, {"id": "x"}, "id"),
    (_LOOP.task, {"id": 1.5}, "id"),
    (_LOOP.task, {"c_nom": "0.002"}, "c_nom"),
    (_LOOP.task.adaptation, {"beta": "x"}, "beta"),
    (_LOOP.gains, {"kp": True, "ki": 0.0, "kd": 0.0}, "kp"),  # a bool is no number
    (_CPU1, {"levels": ("0.5", 1.0)}, "levels[0]"),
    (_CPU1, {"ideal": "yes"}, "ideal"),
    (_CPU1, {"name": 5}, "name"),
    (_LOOP.plant, {"num": ("1.0",)}, "num[0]"),
    (_LOOP, {"task": None}, "task"),
    (_LOOP, {"plant": "x"}, "plant"),
    (_LOOP, {"gains": (1.0, 0.0, 0.0)}, "gains"),
), ids=("TaskSpec-adaptation", "TaskSpec-id-str", "TaskSpec-id-float",
        "TaskSpec-c_nom", "AdaptationParams-beta", "PidGains-bool",
        "CpuLevels-str-level", "CpuLevels-ideal", "CpuLevels-name",
        "TransferFunction-str-coefficient", "LoopSpec-task", "LoopSpec-plant",
        "LoopSpec-gains"))
def test_value_types_reject_a_field_of_the_wrong_kind(value, changes, field):
    # Each value type checks the kinds of its own fields as it is built
    # and raises only a one-line ConfigurationError naming the field.
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(field)}: [^\n]*$"):
        value.with_(**changes)


def test_every_value_type_gives_each_field_one_kind():
    # A field added later without a kind would be neither checked nor
    # stored.
    types, todo = [], [Value]
    while todo:
        subs = todo.pop().__subclasses__()
        types += subs
        todo += subs
    assert {t.__name__ for t in types} >= {
        "AdaptationParams", "TaskSpec", "CpuLevels", "TransferFunction",
        "PidGains", "LoopSpec", "Scenario"}
    for t in types:
        assert len(t._kinds) == len(t._fields), t.__name__


def test_ints_in_float_fields_save_as_floats(tmp_path):
    # An int given for a float field is stored as that float, so it saves
    # as the float does and loads back equal.
    loops = builtin_table1().loops
    built = {}
    for label, duration, gains in (("ints", 2, PidGains(1, 0, 0)),
                                   ("floats", 2.0, PidGains(1.0, 0.0, 0.0))):
        built[label] = builtin_table1().with_(
            duration_s=duration,
            loops=(loops[0].with_(gains=gains),) + loops[1:])
    texts = []
    for label, sc in built.items():
        path = tmp_path / f"{label}.yaml"
        save_scenario(sc, path)
        texts.append(path.read_bytes())
        assert load_scenario(path) == sc
    assert texts[0] == texts[1]
    assert b"duration_s: 2.0\n" in texts[0]
    assert built["ints"] == built["floats"]


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
