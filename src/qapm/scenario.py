"""Scenario definition, validation, builtin benchmark, YAML persistence.

A scenario bundles everything one run needs: the control loops (plant,
controller gains, timing spec), the processor level set, the operating
mode, and the timing/trace knobs.  Scenarios are frozen; the simulator
never mutates them.

File format is YAML with millisecond/microsecond-suffixed keys; see
``to_mapping`` for the exact layout.  ``load_scenario(save_scenario(s))``
reproduces ``s`` exactly.  Both directions handle the block layout that
``yaml.safe_dump(m, sort_keys=False)`` writes themselves, so saving or
loading such a file never imports PyYAML.  PyYAML reads every other file
(comments, quotes, flow collections, other scalar forms or indents) and
writes a name that needs quoting.
"""

from __future__ import annotations

import math
import re

from .pid import PidGains
from .plant import TransferFunction
from .policy import (AdaptationParams, ConfigurationError, CpuLevels, TaskSpec,
                     Value, ideal_speed)

__all__ = [
    "MODES",
    "LoopSpec",
    "Scenario",
    "builtin_table1",
    "builtin_cpus",
    "resolve_cpu",
    "load_scenario",
    "save_scenario",
    "to_mapping",
    "from_mapping",
    "validate",
]

MODES = ("qapm", "osdvs", "dvs-only")
# Largest plant integration micro step accepted.
MAX_MICRO_STEP_US = 1000

# Benchmark adaptation settings shared by all four loops.
_ADAPT = AdaptationParams(beta=40.0, e_min=0.02, e_max=0.3)


class LoopSpec(Value):
    """One control loop: timing spec, plant model, controller gains."""

    _fields = ("task", "plant", "gains")

    def __init__(self, task: TaskSpec, plant: TransferFunction, gains: PidGains):
        self._set(task=task, plant=plant, gains=gains)


class Scenario(Value):
    _fields = ("name", "loops", "cpu", "mode", "duration_s", "perturbation_s",
               "micro_step_us", "trace_cadence_ms", "seed", "c_jitter",
               "switch_overhead_us")

    def __init__(self, name: str, loops, cpu: CpuLevels, mode: str = "qapm",
                 duration_s: float = 12.0, perturbation_s: float = 1.0,
                 micro_step_us: int = 100,
                 # None records no trace.
                 trace_cadence_ms: float | None = 1.0,
                 seed: int = 0,
                 # Per-job execution time factor drawn uniformly from
                 # [1 - c_jitter, 1 + c_jitter]; 0 disables the draw entirely.
                 c_jitter: float = 0.0,
                 switch_overhead_us: int = 0):
        self._set(name=name, loops=tuple(loops), cpu=cpu, mode=mode,
                  duration_s=duration_s, perturbation_s=perturbation_s,
                  micro_step_us=micro_step_us,
                  trace_cadence_ms=trace_cadence_ms, seed=seed,
                  c_jitter=c_jitter, switch_overhead_us=switch_overhead_us)


def builtin_cpus() -> dict[str, CpuLevels]:
    """The five benchmark processors, keyed by name."""
    return {
        "cpu-1": CpuLevels((0.5, 1.0), name="cpu-1"),
        "cpu-2": CpuLevels((0.45, 0.64, 0.92, 1.0), name="cpu-2"),
        "cpu-3": CpuLevels((0.36, 0.55, 0.64, 0.73, 0.82, 0.91, 1.0), name="cpu-3"),
        "cpu-4": CpuLevels(
            (0.285, 0.333, 0.380, 0.428, 0.476, 0.523, 0.571, 0.619,
             0.666, 0.714, 0.761, 0.809, 0.857, 0.904, 0.952, 1.0),
            name="cpu-4",
        ),
        "cpu-ideal": CpuLevels((1.0,), ideal=True, name="cpu-ideal"),
    }


def resolve_cpu(name: str) -> CpuLevels:
    cpus = builtin_cpus()
    try:
        return cpus[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown cpu {name!r}; builtins: {', '.join(sorted(cpus))}"
        ) from None


def _loop(lid, num, den, kp, ki, kd, c_nom_ms, h0_ms, h_max_ms) -> LoopSpec:
    return LoopSpec(
        task=TaskSpec(
            id=lid,
            c_nom=c_nom_ms / 1000.0,
            h0=h0_ms / 1000.0,
            h_max=h_max_ms / 1000.0,
            adaptation=_ADAPT,
        ),
        plant=TransferFunction(num=num, den=den),
        gains=PidGains(kp=kp, ki=ki, kd=kd),
    )


def builtin_table1(cpu: CpuLevels | None = None, mode: str = "qapm") -> Scenario:
    """The four-loop benchmark configuration.

    Plants are given as (num, den) in ascending powers of s; all loops
    share c_nom = 2 ms and the adaptation settings beta=40,
    e_min=0.02, e_max=0.3.
    """
    loops = (
        _loop(1, (1.0,), (50.0, 1000.0), 1e4, 400.0, 0.0, 2.0, 10.0, 40.0),
        _loop(2, (1.0,), (20.0, 10.0, 1.0), 30.0, 70.0, 0.0, 2.0, 7.0, 30.0),
        _loop(3, (1.0,), (10.0, 6.0, 0.5), 100.0, 200.0, 2.0, 2.0, 8.0, 30.0),
        _loop(4, (1.0,), (20.0, 10.0, 1.0), 200.0, 350.0, 3.0, 2.0, 9.0, 40.0),
    )
    return Scenario(
        name="table1",
        loops=loops,
        cpu=cpu if cpu is not None else resolve_cpu("cpu-ideal"),
        mode=mode,
    )


def _tick_exact(seconds: float) -> bool:
    """True when the duration is a whole number of microseconds."""
    us = seconds * 1e6
    return math.isfinite(us) and abs(us - round(us)) < 1e-6


def validate(sc: Scenario) -> list[str]:
    """Cross-field invariant checks; returns error strings with field paths.

    Structural validity of the nested pieces (level ordering, h0 <= h_max,
    proper transfer functions) is enforced at construction; this covers
    what only the assembled scenario can know.  A scenario built in code
    may hold any type, so first each scalar's kind is checked as a file's
    is, and the type of the processor, of each loop and of its parts; the
    range checks run only once every kind is right.
    """
    errors = []
    reader = _MappingReader(errors)
    for key, kind in _SCALARS:
        value = getattr(sc, key)
        if not (key == "trace_cadence_ms" and value is None):  # no trace
            reader.get({key: value}, "", key, kind)
    reader.get({"cpu": sc.cpu}, "", "cpu", CpuLevels)
    for i, lp in enumerate(sc.loops):
        path = f"loops[{i}]"
        if reader.get({path: lp}, "", path, LoopSpec) is not None:
            for key, kind in zip(LoopSpec._fields,
                                 (TaskSpec, TransferFunction, PidGains)):
                reader.get({key: getattr(lp, key)}, path + ".", key, kind)
    if errors:
        return errors
    if sc.mode not in MODES:
        errors.append(f"mode: {sc.mode!r} not one of {'/'.join(MODES)}")
    if not sc.name:
        errors.append("name: must be non-empty")
    if sc.duration_s < 0 or not _tick_exact(sc.duration_s):
        errors.append(
            f"duration_s: must be a non-negative whole number of microseconds, "
            f"got {sc.duration_s}"
        )
    if sc.perturbation_s <= 0 or not _tick_exact(sc.perturbation_s):
        errors.append(
            f"perturbation_s: must be a positive whole number of microseconds, "
            f"got {sc.perturbation_s}"
        )
    if not 1 <= sc.micro_step_us <= MAX_MICRO_STEP_US:
        errors.append(f"micro_step_us: must be in [1, {MAX_MICRO_STEP_US}], "
                      f"got {sc.micro_step_us}")
    if sc.trace_cadence_ms is not None and (
            sc.trace_cadence_ms <= 0
            or not _tick_exact(sc.trace_cadence_ms / 1000.0)):
        errors.append(
            f"trace_cadence_ms: must be null or a positive whole number of "
            f"microseconds, got {sc.trace_cadence_ms}"
        )
    if sc.seed < 0:
        errors.append(f"seed: must be a non-negative integer, got {sc.seed!r}")
    if not 0.0 <= sc.c_jitter <= 0.5:
        errors.append(f"c_jitter: must be in [0, 0.5], got {sc.c_jitter}")
    if sc.switch_overhead_us < 0:
        errors.append(
            f"switch_overhead_us: must be a non-negative integer, "
            f"got {sc.switch_overhead_us!r}"
        )
    ids = [lp.task.id for lp in sc.loops]
    if len(set(ids)) != len(ids):
        errors.append(f"loops: duplicate task ids {ids}")
    if sc.loops:
        u = ideal_speed((lp.task.c_nom, lp.task.h0) for lp in sc.loops)
        if u > 1.0 + 1e-9:
            errors.append(
                f"loops: nominal workload sum(c_nom/h0) = {u:.6f} exceeds 1; "
                f"task set infeasible"
            )
    return errors


# --- mapping <-> scenario -------------------------------------------------
#
# The mapping layer is what the YAML file holds.  Numeric keys carry unit
# suffixes; times under loops are milliseconds, global durations seconds.

def to_mapping(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "mode": sc.mode,
        "duration_s": sc.duration_s,
        "perturbation_s": sc.perturbation_s,
        "micro_step_us": sc.micro_step_us,
        "trace_cadence_ms": sc.trace_cadence_ms,
        "seed": sc.seed,
        "c_jitter": sc.c_jitter,
        "switch_overhead_us": sc.switch_overhead_us,
        "cpu": {
            "name": sc.cpu.name,
            "ideal": sc.cpu.ideal,
            "levels": list(sc.cpu.levels),
        },
        "loops": [
            {
                "id": lp.task.id,
                "plant": {"num": list(lp.plant.num), "den": list(lp.plant.den)},
                "gains": {"kp": lp.gains.kp, "ki": lp.gains.ki, "kd": lp.gains.kd},
                "c_nom_ms": lp.task.c_nom * 1000.0,
                "h0_ms": lp.task.h0 * 1000.0,
                "h_max_ms": lp.task.h_max * 1000.0,
                "adaptation": {
                    "beta": lp.task.adaptation.beta,
                    "e_min": lp.task.adaptation.e_min,
                    "e_max": lp.task.adaptation.e_max,
                },
            }
            for lp in sc.loops
        ],
    }


# Each kind of field accepts its own type, and an int is accepted, and
# converted, where a float is expected; a bool, though an int, is no number.
_ACCEPTS = {float: (int, float)}


class _MappingReader:
    """Pulls typed fields out of a nested dict, collecting path-tagged errors."""

    def __init__(self, errors: list[str]):
        self.errors = errors

    def get(self, m, path, key, kind, default=None, required=False):
        if key not in m:
            if required:
                self.errors.append(f"{path}{key}: missing")
            return default
        v = m[key]
        if not isinstance(v, _ACCEPTS.get(kind, kind)) or (
                isinstance(v, bool) and kind is not bool):
            self.errors.append(f"{path}{key}: expected {kind.__name__}, got {v!r}")
            return default
        if kind is float:
            try:
                return float(v)
            except OverflowError:
                self.errors.append(f"{path}{key}: integer out of float range")
                return default
        return v


# The top-level scalar fields of a scenario file, in reading order, and the
# kind each holds; a missing one takes its `_DEFAULTS` value.
_SCALARS = (
    ("name", str),
    ("mode", str),
    ("duration_s", float),
    ("perturbation_s", float),
    ("micro_step_us", int),
    ("trace_cadence_ms", float),
    ("seed", int),
    ("c_jitter", float),
    ("switch_overhead_us", int),
)
# Every field after name, loops and cpu has a default; so has a file's name.
_DEFAULTS = dict(zip(Scenario._fields[3:], Scenario.__init__.__defaults__),
                 name="scenario")


def from_mapping(m: dict) -> Scenario:
    """Build a Scenario from a plain mapping; raises ConfigurationError
    listing every problem found, each tagged with its field path."""
    if not isinstance(m, dict):
        raise ConfigurationError(f"scenario root: expected mapping, got {type(m).__name__}")
    errors: list[str] = []
    r = _MappingReader(errors)

    scalars = {}
    for key, kind in _SCALARS:
        if key == "trace_cadence_ms" and key in m and m[key] is None:
            scalars[key] = None  # records no trace
        else:
            scalars[key] = r.get(m, "", key, kind, default=_DEFAULTS[key])

    cpu = resolve_cpu("cpu-ideal")
    cpu_field = m.get("cpu", "cpu-ideal")
    if isinstance(cpu_field, str):
        try:
            cpu = resolve_cpu(cpu_field)
        except ConfigurationError as exc:
            errors.append(f"cpu: {exc}")
    elif isinstance(cpu_field, dict):
        cm = cpu_field
        levels = r.get(cm, "cpu.", "levels", list, default=[1.0], required=True)
        try:
            cpu = CpuLevels(
                levels=tuple(float(v) for v in levels),
                ideal=r.get(cm, "cpu.", "ideal", bool, default=False),
                name=r.get(cm, "cpu.", "name", str, default="custom"),
            )
        except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
            errors.append(f"cpu.levels: {exc}")
    else:
        errors.append(f"cpu: expected name or mapping, got {cpu_field!r}")

    default_adapt = {"beta": _ADAPT.beta, "e_min": _ADAPT.e_min,
                     "e_max": _ADAPT.e_max}
    adapt_m = r.get(m, "", "adaptation", dict, default=None)
    if adapt_m is not None:
        for k in default_adapt:
            default_adapt[k] = r.get(adapt_m, "adaptation.", k, float,
                                     default=default_adapt[k])

    loops: list[LoopSpec] = []
    loop_list = r.get(m, "", "loops", list, default=[], required=True) or []
    for i, lm in enumerate(loop_list):
        path = f"loops[{i}]."
        if not isinstance(lm, dict):
            errors.append(f"loops[{i}]: expected mapping, got {lm!r}")
            continue
        lid = r.get(lm, path, "id", int, default=i + 1)
        plant_m = r.get(lm, path, "plant", dict, default=None, required=True)
        gains_m = r.get(lm, path, "gains", dict, default=None, required=True)
        c_nom_ms = r.get(lm, path, "c_nom_ms", float, default=None, required=True)
        h0_ms = r.get(lm, path, "h0_ms", float, default=None, required=True)
        h_max_ms = r.get(lm, path, "h_max_ms", float, default=None, required=True)
        la = dict(default_adapt)
        la_m = r.get(lm, path, "adaptation", dict, default=None)
        if la_m is not None:
            for k in la:
                la[k] = r.get(la_m, path + "adaptation.", k, float, default=la[k])
        if None in (plant_m, gains_m, c_nom_ms, h0_ms, h_max_ms):
            continue
        try:
            plant = TransferFunction(
                num=tuple(float(v) for v in r.get(plant_m, path + "plant.", "num",
                                                  list, default=[], required=True)),
                den=tuple(float(v) for v in r.get(plant_m, path + "plant.", "den",
                                                  list, default=[], required=True)),
            )
        except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
            errors.append(f"{path}plant: {exc}")
            continue
        try:
            gains = PidGains(
                kp=r.get(gains_m, path + "gains.", "kp", float, default=0.0),
                ki=r.get(gains_m, path + "gains.", "ki", float, default=0.0),
                kd=r.get(gains_m, path + "gains.", "kd", float, default=0.0),
            )
            task = TaskSpec(
                id=lid,
                c_nom=c_nom_ms / 1000.0,
                h0=h0_ms / 1000.0,
                h_max=h_max_ms / 1000.0,
                adaptation=AdaptationParams(**la),
            )
        except (ConfigurationError, ValueError) as exc:
            errors.append(f"loops[{i}]: {exc}")
            continue
        loops.append(LoopSpec(task=task, plant=plant, gains=gains))

    if errors:
        raise ConfigurationError("; ".join(errors))

    sc = Scenario(loops=tuple(loops), cpu=cpu, **scalars)
    problems = validate(sc)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return sc


def load_scenario(path) -> Scenario:
    """Read a scenario file: one in the layout `save_scenario` writes by the
    reader below, any other through PyYAML."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = _read_block(fh.read())
        except _NeedsYaml:
            fh.seek(0)
            data = _yaml_load(fh, path)
    if data is None:
        raise ConfigurationError(f"{path}: empty scenario file")
    return from_mapping(data)


def _yaml_load(fh, path):
    import yaml  # on use: a file in the saved layout never loads it

    try:
        return yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        # One line: PyYAML's own text spans several, with the file's name
        # again on each mark.
        problem = getattr(exc, "problem", None)
        if problem is None:  # no marks, e.g. a character YAML forbids
            problem = " ".join(str(exc).split())
        where = _at(getattr(exc, "problem_mark", None))
        message = f"{path}: parse error{where}: {problem}"
        context = getattr(exc, "context", None)
        if context:
            message += f" ({context}{_at(getattr(exc, 'context_mark', None))})"
        raise ConfigurationError(message) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigurationError(f"{path}: {exc}") from exc


def _at(mark) -> str:
    """`` at line L, column C`` for a PyYAML mark, 1-based; '' for None."""
    return f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""


def save_scenario(sc: Scenario, path) -> None:
    """Write ``to_mapping(sc)`` as ``yaml.safe_dump(m, sort_keys=False)``
    writes it; PyYAML is imported only for a string it would quote."""
    m = to_mapping(sc)
    try:
        text = "".join(_block(m, ""))
    except _NeedsYaml:
        import yaml

        text = yaml.safe_dump(m, sort_keys=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- the block-style YAML layout: writer and reader ------------------------
#
# The writer writes what `to_mapping` holds: mappings, lists of scalars or
# of mappings, None, bools, ints, floats and plain strings.  A string is
# plain when it is an identifier-like word that YAML 1.1 does not read as a
# bool or null.  Any other value raises `_NeedsYaml` and PyYAML writes the
# file.  The reader reads that layout back, byte form by byte form, and
# raises `_NeedsYaml` on anything else, which PyYAML then reads.

_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_YAML11_WORDS = frozenset(("yes", "no", "on", "off", "true", "false", "null"))


class _NeedsYaml(Exception):
    """A value or line outside the block layout."""


def _scalar(v) -> str:
    kind = type(v)
    if v is None:
        return "null"
    if kind is bool:
        return "true" if v else "false"
    if kind is int:
        return str(v)
    if kind is float:
        if v != v:
            return ".nan"
        if v in (math.inf, -math.inf):
            return ".inf" if v > 0 else "-.inf"
        text = repr(v).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)  # 1e17 -> 1.0e17
        return text
    if kind is str and _PLAIN.fullmatch(v) and v.lower() not in _YAML11_WORDS:
        return v
    if kind is list and not v:
        return "[]"
    raise _NeedsYaml(v)


def _block(m: dict, pad: str):
    """Lines of the non-empty mapping ``m``, its keys at indent ``pad``."""
    for k, v in m.items():
        if type(v) is dict and v:
            yield f"{pad}{k}:\n"
            yield from _block(v, pad + "  ")
        elif type(v) is list and v:
            yield f"{pad}{k}:\n"
            for item in v:
                if type(item) is dict and item:
                    # the first key goes on the dash's line
                    lines = _block(item, pad + "  ")
                    yield pad + "- " + next(lines)[len(pad) + 2:]
                    yield from lines
                else:
                    yield f"{pad}- {_scalar(item)}\n"
        else:
            yield f"{pad}{k}: {_scalar(v)}\n"


# One line of the layout: its indent, an optional "- ", then "key:" with an
# optional " scalar", or, after a dash, a scalar alone.
_LINE = re.compile(r"( *)(- )?(?:([A-Za-z][A-Za-z0-9_-]*):(?: (.+))?|(.+))")
_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?")
_CONSTANTS = {"null": None, "true": True, "false": False,
              ".inf": math.inf, "-.inf": -math.inf, ".nan": math.nan}


def _value(text: str, path: str, errors: list[str]):
    """The value of a scalar as `_scalar` writes it; ``path`` names its field
    in the error an int past Python's digit limit adds to ``errors``."""
    if text in _CONSTANTS:
        return _CONSTANTS[text]
    if text == "[]":
        return []
    if _FLOAT.fullmatch(text):
        return float(text)
    if _INT.fullmatch(text):
        try:
            return int(text)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if _PLAIN.fullmatch(text) and text.lower() not in _YAML11_WORDS:
        return text
    raise _NeedsYaml(text)


def _read_block(text: str) -> dict:
    """The non-empty mapping ``text`` holds in the layout `_block` writes:
    a nested mapping two spaces in, a list at its key's indent, and a
    list item's mapping two spaces in from its dash."""
    entries = []  # (indent, key or None for a dash, scalar text or None)
    errors: list[str] = []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        m = _LINE.fullmatch(line)
        if m is None or (m[5] is not None and m[2] is None):
            raise _NeedsYaml(line)
        pad, dash, key, value, item = m.groups()
        indent = len(pad)
        if dash:
            entries.append((indent, None, item))
            indent += 2  # the item's first key
        if key is not None:
            if key.lower() in _YAML11_WORDS:
                raise _NeedsYaml(key)
            entries.append((indent, key, value))
    pos = 0

    def at(indent, dash):
        return (pos < len(entries) and entries[pos][0] == indent
                and (entries[pos][1] is None) == dash)

    def mapping(indent, path):
        nonlocal pos
        out = {}
        while at(indent, False):
            _, key, value = entries[pos]
            pos += 1
            if value is not None:
                out[key] = _value(value, path + key, errors)
            elif at(indent, True):
                out[key] = sequence(indent, path + key)
            elif at(indent + 2, False):
                out[key] = mapping(indent + 2, path + key + ".")
            else:
                raise _NeedsYaml(key)
        return out

    def sequence(indent, path):
        nonlocal pos
        out = []
        while at(indent, True):
            item = entries[pos][2]
            pos += 1
            sub = f"{path}[{len(out)}]"
            out.append(_value(item, sub, errors) if item is not None
                       else mapping(indent + 2, sub + "."))
        return out

    data = mapping(0, "")
    if not data or pos < len(entries):
        raise _NeedsYaml(text)
    if errors:
        raise ConfigurationError("; ".join(errors))
    return data
