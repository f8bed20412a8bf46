"""Scenario definition, builtin benchmark, YAML persistence.

A scenario bundles everything one run needs: the control loops (plant,
controller gains, timing spec), the processor level set, the operating
mode, and the timing/trace knobs.  Scenarios and their parts are frozen
and checked as they are built, each value type its own fields only, by
the one kind rule of `policy.checked`; the simulator trusts them and
never mutates them.

File format is YAML with millisecond/microsecond-suffixed keys; see
``to_mapping`` for the exact layout.  A file is read part by part through
the value types' own fields and kinds: a key that names no field is an
error, and each error starts with the dotted path of the field at fault,
or of the part whose range check failed.  ``load_scenario(save_scenario(s))``
reproduces ``s`` when each loop time is a millisecond value / 1000.0, as a
file's and the builtin's are; the ``_ms`` keys hold ``x * 1000.0``, so
``c_nom=4.9e-05`` set in code reloads as ``4.9000000000000005e-05``.  An
int given for a float field is stored, and so saved, as that float.  Both
directions handle the block layout that ``yaml.safe_dump(m,
sort_keys=False)`` writes themselves, so saving or loading such a file
never imports PyYAML.  PyYAML reads every other file (comments, quotes,
flow collections, other scalar forms or indents) and writes a name that
needs quoting, or a NaN or infinity, which no valid scenario holds.
"""

from __future__ import annotations

import math
import re

from .pid import PidGains
from .plant import TransferFunction
from .policy import (ONE_SLACK, AdaptationParams, ConfigurationError,
                     CpuLevels, TaskSpec, Value, checked, ideal_speed)

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
]

MODES = ("qapm", "dvs-only")
# Largest plant integration micro step accepted.
MAX_MICRO_STEP_US = 1000

# Benchmark adaptation settings shared by all four loops.
_ADAPT = AdaptationParams(beta=40.0, e_min=0.02, e_max=0.3)


class LoopSpec(Value):
    """One control loop: timing spec, plant model, controller gains."""

    _fields = ("task", "plant", "gains")
    _kinds = (TaskSpec, TransferFunction, PidGains)

    def __init__(self, task: TaskSpec, plant: TransferFunction, gains: PidGains):
        self._set(task, plant, gains)


class Scenario(Value):
    """Everything one run needs, checked as it is built.

    The constructor, and so `with_`, raises one `ConfigurationError` listing
    every problem with its field path, as `from_mapping` does for a file:
    first the kind of each field, then, once all are right, the ranges and
    cross-field checks.  Each loop is a `LoopSpec`, which checked its own
    parts as it was built.
    """

    _fields = ("name", "loops", "cpu", "mode", "duration_s", "perturbation_s",
               "micro_step_us", "trace_cadence_ms", "seed", "c_jitter",
               "switch_overhead_us")
    _kinds = (str, (LoopSpec,), CpuLevels, str, float, float, int,
              float | None, int, float, int)

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
        (name, loops, cpu, mode, duration_s, perturbation_s, micro_step_us,
         trace_cadence_ms, seed, c_jitter, switch_overhead_us) = self._set(
            name, loops, cpu, mode, duration_s, perturbation_s, micro_step_us,
            trace_cadence_ms, seed, c_jitter, switch_overhead_us)
        errors: list[str] = []
        if mode not in MODES:
            errors.append(f"mode: {mode!r} not one of {'/'.join(MODES)} "
                          f"(the osDVS baseline is dvs-only on cpu-ideal)")
        if not name:
            errors.append("name: must be non-empty")
        if duration_s < 0 or not _tick_exact(duration_s):
            errors.append(f"duration_s: must be a non-negative whole number "
                          f"of microseconds, got {duration_s}")
        if perturbation_s <= 0 or not _tick_exact(perturbation_s):
            errors.append(f"perturbation_s: must be a positive whole number "
                          f"of microseconds, got {perturbation_s}")
        if not 1 <= micro_step_us <= MAX_MICRO_STEP_US:
            errors.append(f"micro_step_us: must be in [1, {MAX_MICRO_STEP_US}], "
                          f"got {micro_step_us}")
        if trace_cadence_ms is not None and (
                trace_cadence_ms <= 0
                or not _tick_exact(trace_cadence_ms / 1000.0)):
            errors.append(f"trace_cadence_ms: must be null or a positive whole "
                          f"number of microseconds, got {trace_cadence_ms}")
        if seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {seed!r}")
        if not 0.0 <= c_jitter <= 0.5:
            errors.append(f"c_jitter: must be in [0, 0.5], got {c_jitter}")
        if switch_overhead_us < 0:
            errors.append(f"switch_overhead_us: must be a non-negative "
                          f"integer, got {switch_overhead_us!r}")
        ids = [lp.task.id for lp in loops]
        if len(set(ids)) != len(ids):
            errors.append(f"loops: duplicate task ids {ids}")
        if loops:
            u = ideal_speed((lp.task.c_nom, lp.task.h0) for lp in loops)
            if u > 1.0 + ONE_SLACK:
                errors.append(f"loops: nominal workload sum(c_nom/h0) = "
                              f"{u:.6f} exceeds 1; task set infeasible")
        if errors:
            raise ConfigurationError("; ".join(errors))


# The five benchmark processors, keyed by name; built once, as the values
# are immutable.
_CPUS = {
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


def builtin_cpus() -> dict[str, CpuLevels]:
    """The five benchmark processors, keyed by name, in a new dict."""
    return dict(_CPUS)


def resolve_cpu(name: str) -> CpuLevels:
    try:
        return _CPUS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown cpu {name!r}; builtins: {', '.join(sorted(_CPUS))}"
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


# --- mapping <-> scenario -------------------------------------------------
#
# The mapping layer is what the YAML file holds.  Numeric keys carry unit
# suffixes; times under loops are milliseconds, global durations seconds.

# The scalar fields of a scenario file's top level, in file order, and of
# each of its loops, with the kind each holds.
_SCALARS = {key: kind for key, kind in zip(Scenario._fields, Scenario._kinds)
            if key not in ("loops", "cpu")}
_LOOP_SCALARS = {"id": TaskSpec._kinds[0], "c_nom_ms": float, "h0_ms": float,
                 "h_max_ms": float}
# Every field after name, loops and cpu has a default; so has a file's name.
_DEFAULTS = dict(zip(Scenario._fields[3:], Scenario.__init__.__defaults__),
                 name="scenario")


def to_mapping(sc: Scenario) -> dict:
    m = {key: getattr(sc, key) for key in _SCALARS}
    m["cpu"] = {"name": sc.cpu.name, "ideal": sc.cpu.ideal,
                "levels": list(sc.cpu.levels)}
    m["loops"] = [
        {
            "id": lp.task.id,
            "plant": {"num": list(lp.plant.num), "den": list(lp.plant.den)},
            "gains": dict(zip(PidGains._fields, lp.gains._values())),
            "c_nom_ms": lp.task.c_nom * 1000.0,
            "h0_ms": lp.task.h0 * 1000.0,
            "h_max_ms": lp.task.h_max * 1000.0,
            "adaptation": dict(zip(AdaptationParams._fields,
                                   lp.task.adaptation._values())),
        }
        for lp in sc.loops
    ]
    return m


def _get(m: dict, path: str, key: str, kind, errors: list[str], defaults):
    """Field ``key`` of the file's mapping ``m`` as a ``kind`` (see
    `checked`), named ``path + key`` in ``errors``; ``defaults[key]`` when
    ``m`` leaves it out, and missing when ``defaults`` has none either."""
    if key not in m:
        if key not in defaults:
            errors.append(f"{path}{key}: missing")
        return defaults.get(key)
    v = m[key]
    if type(kind) is tuple and type(v) is not list:
        kind = list  # so the error names the form a file gives
    return checked(errors, path + key, v, kind)


def _read(m: dict, path: str, kinds: dict, errors: list[str], defaults,
          parts=()) -> dict:
    """The fields ``kinds`` names, each read by its kind (see `_get`), from
    the file's mapping ``m`` at ``path``; a key of ``m`` that is neither
    one of them nor one of ``parts`` is an unknown field."""
    errors.extend(f"{path}{key}: unknown field" for key in m
                  if key not in kinds and key not in parts)
    return {key: _get(m, path, key, kind, errors, defaults)
            for key, kind in kinds.items()}


def _build(path: str, errors: list[str], make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None and its range error under ``path``."""
    try:
        return make(*args, **kwargs)
    except ConfigurationError as exc:
        errors.append(f"{path}: {exc}")


def _part(kind, m: dict, key: str, path: str, errors: list[str], defaults):
    """The ``kind`` value that the mapping ``m[key]`` describes in the
    type's own ``_fields`` and ``_kinds`` (see `_read`), built under
    ``path + key``; None when it is missing or anything in it is at fault."""
    part = _get(m, path, key, dict, errors, {})
    if part is None:
        return None
    n = len(errors)
    fields = _read(part, f"{path}{key}.", dict(zip(kind._fields, kind._kinds)),
                   errors, defaults)
    return _build(path + key, errors, kind, **fields) if len(errors) == n else None


def from_mapping(m: dict) -> Scenario:
    """Build a Scenario from a plain mapping; raises ConfigurationError
    listing every problem found, each starting with the dotted path of its
    field, or of the part whose range check failed."""
    if not isinstance(m, dict):
        raise ConfigurationError(f"scenario root: expected mapping, got {type(m).__name__}")
    errors: list[str] = []
    scalars = _read(m, "", _SCALARS, errors, _DEFAULTS,
                    ("cpu", "loops", "adaptation"))

    cpu = m.get("cpu", "cpu-ideal")
    if isinstance(cpu, str):
        cpu = _build("cpu", errors, resolve_cpu, cpu)
    elif isinstance(cpu, dict):
        cpu = _part(CpuLevels, m, "cpu", "", errors,
                    {"ideal": False, "name": "custom"})
    else:
        errors.append(f"cpu: expected name or mapping, got {cpu!r}")

    # The file's adaptation is the default of each loop's, field by field;
    # the builtin's stands in for one at fault, which is reported already.
    adapt = _ADAPT if "adaptation" not in m else _part(
        AdaptationParams, m, "adaptation", "", errors, vars(_ADAPT)) or _ADAPT

    loops: list[LoopSpec] = []
    for i, lm in enumerate(_get(m, "", "loops", list, errors, {}) or ()):
        path = f"loops[{i}]."
        if not isinstance(lm, dict):
            errors.append(f"loops[{i}]: expected mapping, got {lm!r}")
            continue
        n = len(errors)
        lid, c_nom_ms, h0_ms, h_max_ms = _read(
            lm, path, _LOOP_SCALARS, errors, {"id": i + 1},
            ("plant", "gains", "adaptation")).values()
        plant = _part(TransferFunction, lm, "plant", path, errors, {})
        gains = _part(PidGains, lm, "gains", path, errors,
                      dict.fromkeys(PidGains._fields, 0.0))
        adaptation = adapt if "adaptation" not in lm else _part(
            AdaptationParams, lm, "adaptation", path, errors, vars(adapt))
        task = len(errors) == n and _build(
            f"loops[{i}]", errors, TaskSpec, lid, c_nom_ms / 1000.0,
            h0_ms / 1000.0, h_max_ms / 1000.0, adaptation)
        if task:
            loops.append(LoopSpec(task, plant, gains))

    if errors:
        raise ConfigurationError("; ".join(errors))
    return Scenario(loops=loops, cpu=cpu, **scalars)


def load_scenario(path) -> Scenario:
    """Read a scenario file: one in the layout `save_scenario` writes by the
    reader below, any other through PyYAML."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = _read_block(fh.read())
        except UnicodeDecodeError as exc:  # not a text file
            raise ConfigurationError(str(exc)) from exc
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
        text = repr(v).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)  # 1e17 -> 1.0e17
        if _FLOAT.fullmatch(text):  # finite; PyYAML writes .inf and .nan
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
_CONSTANTS = {"null": None, "true": True, "false": False}


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
