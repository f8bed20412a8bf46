"""Scenario definition, validation, builtin benchmark, YAML persistence.

A scenario bundles everything one run needs: the control loops (plant,
controller gains, timing spec), the processor level set, the operating
mode, and the timing/trace knobs.  Scenarios are frozen; the simulator
never mutates them.

File format is YAML with millisecond/microsecond-suffixed keys; see
``to_mapping`` for the exact layout.  ``load_scenario(save_scenario(s))``
reproduces ``s`` exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, asdict, dataclass, fields, replace

from .pid import PidGains
from .plant import MAX_MICRO_STEP_US, TransferFunction
from .policy import AdaptationParams, ConfigurationError, CpuLevels, TaskSpec

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

# Benchmark adaptation settings shared by all four loops.
_ADAPT = AdaptationParams(beta=40.0, e_min=0.02, e_max=0.3)


@dataclass(frozen=True)
class LoopSpec:
    """One control loop: timing spec, plant model, controller gains."""

    task: TaskSpec
    plant: TransferFunction
    gains: PidGains


@dataclass(frozen=True)
class Scenario:
    name: str
    loops: tuple[LoopSpec, ...]
    cpu: CpuLevels
    mode: str = "qapm"
    duration_s: float = 12.0
    perturbation_s: float = 1.0
    micro_step_us: int = 100
    # None records no trace.
    trace_cadence_ms: float | None = 1.0
    seed: int = 0
    # Per-job execution time factor drawn uniformly from
    # [1 - c_jitter, 1 + c_jitter]; 0 disables the draw entirely.
    c_jitter: float = 0.0
    switch_overhead_us: int = 0

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)


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
    what only the assembled scenario can know.
    """
    errors = []
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
    if not isinstance(sc.seed, int) or sc.seed < 0:
        errors.append(f"seed: must be a non-negative integer, got {sc.seed!r}")
    if not 0.0 <= sc.c_jitter <= 0.5:
        errors.append(f"c_jitter: must be in [0, 0.5], got {sc.c_jitter}")
    if not isinstance(sc.switch_overhead_us, int) or sc.switch_overhead_us < 0:
        errors.append(
            f"switch_overhead_us: must be a non-negative integer, "
            f"got {sc.switch_overhead_us!r}"
        )
    ids = [lp.task.id for lp in sc.loops]
    if len(set(ids)) != len(ids):
        errors.append(f"loops: duplicate task ids {ids}")
    if sc.loops:
        u = sum(lp.task.c_nom / lp.task.h0 for lp in sc.loops)
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


# The types each kind of field accepts.  An int is accepted, and converted,
# where a float is expected; a bool, though an int, is no number here.
_ACCEPTS = {
    float: (int, float),
    int: (int,),
    bool: (bool,),
    str: (str,),
    list: (list,),
    dict: (dict,),
}


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
        if not isinstance(v, _ACCEPTS[kind]) or (
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
# kind each holds; a missing one takes the `Scenario` default.
_SCALARS = (
    ("mode", str),
    ("duration_s", float),
    ("perturbation_s", float),
    ("micro_step_us", int),
    ("trace_cadence_ms", float),
    ("seed", int),
    ("c_jitter", float),
    ("switch_overhead_us", int),
)
_DEFAULTS = {f.name: f.default for f in fields(Scenario)
             if f.default is not MISSING}


def from_mapping(m: dict) -> Scenario:
    """Build a Scenario from a plain mapping; raises ConfigurationError
    listing every problem found, each tagged with its field path."""
    if not isinstance(m, dict):
        raise ConfigurationError(f"scenario root: expected mapping, got {type(m).__name__}")
    errors: list[str] = []
    r = _MappingReader(errors)

    name = r.get(m, "", "name", str, default="scenario")
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

    default_adapt = asdict(_ADAPT)
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

    sc = Scenario(name=name, loops=tuple(loops), cpu=cpu, **scalars)
    problems = validate(sc)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return sc


def load_scenario(path) -> Scenario:
    import yaml  # on use: a builtin run never loads the YAML parser

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigurationError(f"{path}: parse error{where}: {exc}") from exc
    if data is None:
        raise ConfigurationError(f"{path}: empty scenario file")
    return from_mapping(data)


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


# --- the block-style YAML writer ------------------------------------------
#
# It writes what `to_mapping` holds: mappings, lists of scalars or of
# mappings, None, bools, ints, floats and plain strings.  A string is plain
# when it is an identifier-like word that YAML 1.1 does not read as a bool
# or null.  Any other value raises `_NeedsYaml` and PyYAML writes the file.

_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_YAML11_WORDS = frozenset(("yes", "no", "on", "off", "true", "false", "null"))


class _NeedsYaml(Exception):
    """A value the block writer does not cover."""


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
