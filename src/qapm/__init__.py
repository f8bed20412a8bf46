"""Control/scheduling co-simulator for QoC-aware power management.

Simulates periodic control tasks on a single voltage-scalable processor
under preemptive EDF, with a power manager that adapts sampling periods to
runtime control quality, quantizes the CPU speed onto the available level
set, and reclaims the quantization slack by shrinking periods.
"""

from .metrics import EnergyAccumulator, RunReport
from .pid import Pid, PidGains
from .plant import (
    DivergenceError,
    StateSpacePlant,
    TransferFunction,
    tf_to_state_space,
)
from .policy import (
    AdaptationParams,
    ConfigurationError,
    CpuLevels,
    PolicyDecision,
    SchedulabilityError,
    TaskSpec,
    adapt_period,
    ideal_speed,
    period_scale_factor,
    policy_step,
    quantize_speed,
    reclaim_periods,
)
from .scenario import (
    MODES,
    LoopSpec,
    Scenario,
    builtin_cpus,
    builtin_table1,
    load_scenario,
    resolve_cpu,
    save_scenario,
    validate,
)
from .sim import Job, SimResult, Simulator, edf_select, run_loop

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AdaptationParams",
    "ConfigurationError",
    "CpuLevels",
    "DivergenceError",
    "EnergyAccumulator",
    "Job",
    "LoopSpec",
    "MODES",
    "Pid",
    "PidGains",
    "PolicyDecision",
    "RunReport",
    "Scenario",
    "SchedulabilityError",
    "SimResult",
    "Simulator",
    "StateSpacePlant",
    "TaskSpec",
    "TransferFunction",
    "adapt_period",
    "builtin_cpus",
    "builtin_table1",
    "edf_select",
    "ideal_speed",
    "load_scenario",
    "period_scale_factor",
    "policy_step",
    "quantize_speed",
    "reclaim_periods",
    "resolve_cpu",
    "run_loop",
    "save_scenario",
    "tf_to_state_space",
    "validate",
]
