"""QoC and energy accumulation, end-of-run reports, trace/chart emission.

IAE is accumulated by each plant at micro-step resolution (see
`plant.StateSpacePlant`) and read into the report.  Energy is integrated
exactly: the speed is piecewise constant between policy decisions, so the
integral is a finite sum over the recorded speed-change list.  The trace
is held by column, as the simulator recorded it, and written to CSV from
the columns; its rows are built only when asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import sub

__all__ = [
    "EnergyAccumulator",
    "RunReport",
    "TraceRecorder",
    "line_chart_svg",
    "sig6",
]

TRACE_COLUMNS = (
    "time_s", "loop", "r", "y", "e", "u", "h_eff_ms", "alpha", "energy_inst",
)


def sig6(v: float) -> float:
    """Round to 6 significant digits for report serialization."""
    return float(f"{v:.6g}")


class EnergyAccumulator:
    """Integral of alpha(t)^2 with alpha piecewise constant between changes.

    Time is integer microsecond ticks; each segment contributes
    alpha^2 * span_ticks * 1e-6 exactly (no quadrature error).
    """

    def __init__(self, alpha0: float = 1.0):
        self._alpha = alpha0
        self._last_tick = 0
        self._integral = 0.0
        self.changes: list[tuple[int, float]] = [(0, alpha0)]

    @property
    def alpha(self) -> float:
        return self._alpha

    def set_alpha(self, tick: int, alpha: float) -> bool:
        """Record a speed change; returns True when alpha actually changed."""
        if tick < self._last_tick:
            raise ValueError(f"time went backwards: {tick} < {self._last_tick}")
        if alpha == self._alpha:
            return False
        self._integral += self._alpha * self._alpha * (tick - self._last_tick) * 1e-6
        self._last_tick = tick
        self._alpha = alpha
        self.changes.append((tick, alpha))
        return True

    def finalize(self, end_tick: int) -> float:
        """Close the last segment and return the full integral."""
        self._integral += self._alpha * self._alpha * (end_tick - self._last_tick) * 1e-6
        self._last_tick = end_tick
        return self._integral


class TraceRecorder:
    """The trace of a run by column, rows in `TRACE_COLUMNS` order.

    ``visits`` holds (time_s, r, alpha, energy draw) per trace visit, and
    ``loops`` holds (loop id, y, u, h_eff_ms) per loop, each of the three
    lists one value per visit.  Row k * len(loops) + i is loop i's at visit
    k, with e = r - y.
    """

    def __init__(self, visits, loops):
        self.visits = visits
        self.loops = loops

    @property
    def rows(self) -> list[tuple]:
        """The rows as tuples, built on each read."""
        if not self.visits:
            return []
        t, r, alpha, energy = zip(*self.visits)
        per_loop = [
            zip(t, repeat(lid), r, y, map(sub, r, y), u, h, alpha, energy)
            for lid, y, u, h in self.loops
        ]
        return list(chain.from_iterable(zip(*per_loop)))

    def write_csv(self, path) -> None:
        """The rows as `csv.writer` writes them: each float in its shortest
        round-trip form, CRLF line ends, no quoting (no field needs it)."""
        # t, r, alpha and the energy draw are formatted once per visit, u
        # and h_eff once per distinct value; y and e rarely repeat.
        text = _FloatText()
        r = [v[1] for v in self.visits]
        heads = [repr(v[0]) for v in self.visits]
        mids = [repr(x) for x in r]
        tails = [f"{text[v[2]]},{text[v[3]]}\r\n" for v in self.visits]
        # One lazy line stream per loop, so no list of lines is held; the
        # loop id goes in through zip, which binds it when the stream is made.
        per_loop = [
            (f"{t},{i},{rt},{yk!r},{rk - yk!r},{text[uk]},{text[hk]},{tail}"
             for t, i, rt, rk, yk, uk, hk, tail
             in zip(heads, repeat(lid), mids, r, y, u, h, tails))
            for lid, y, u, h in self.loops
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            # in order of visit, then loop
            fh.writelines(chain.from_iterable(zip(*per_loop)))


class _FloatText(dict):
    """repr of a float, each nonzero value formatted once.  Zeros are not
    kept: 0.0 and -0.0 are equal keys but print differently."""

    def __missing__(self, v):
        text = repr(v)
        if v:
            self[v] = text
        return text


@dataclass
class RunReport:
    """Everything measured over one run; immutable once built."""

    scenario: str
    mode: str
    cpu: str
    duration_s: float
    seed: int
    j: dict[int, float]
    j_sum: float
    e_avg: float | None
    energy_integral: float
    misses: int
    period_stats_ms: dict[int, dict[str, float]]
    # (time_s, alpha_ideal, alpha) per policy invocation
    utilization: list[tuple[float, float, float]] = field(default_factory=list)
    # (tick, alpha) per actual speed change, tick 0 included
    speed_changes: list[tuple[int, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "cpu": self.cpu,
            "duration_s": sig6(self.duration_s),
            "seed": self.seed,
            "j_per_loop": {str(k): sig6(v) for k, v in self.j.items()},
            "j_sum": sig6(self.j_sum),
            "e_avg": None if self.e_avg is None else sig6(self.e_avg),
            "misses": self.misses,
            "period_stats_ms": {
                str(k): {kk: sig6(vv) if isinstance(vv, float) else vv
                         for kk, vv in st.items()}
                for k, st in self.period_stats_ms.items()
            },
            "utilization": [
                [sig6(t), sig6(ai), sig6(a)] for t, ai, a in self.utilization
            ],
            "speed_changes": [
                [sig6(tick * 1e-6), sig6(a)] for tick, a in self.speed_changes
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


# --- minimal SVG line charts ------------------------------------------------

_PALETTE = ("#1f6fb2", "#d1495b", "#3e885b", "#b07d2b", "#6b4f9e", "#46767e")


def line_chart_svg(series: dict[str, list[tuple[float, float]]],
                   title: str, x_label: str, y_label: str,
                   width: int = 760, height: int = 360) -> str:
    """Static polyline chart; no external assets, suitable for file drops."""
    pad_l, pad_r, pad_t, pad_b = 58, 14, 30, 42
    pw, ph = width - pad_l - pad_r, height - pad_t - pad_b
    pts = [p for s in series.values() for p in s]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    ymargin = 0.05 * (y1 - y0)
    y0, y1 = y0 - ymargin, y1 + ymargin

    def sx(x):
        return pad_l + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return pad_t + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    for k in range(5):
        gx = x0 + k * (x1 - x0) / 4
        gy = y0 + k * (y1 - y0) / 4
        out.append(f'<line x1="{sx(gx):.1f}" y1="{pad_t}" x2="{sx(gx):.1f}" '
                   f'y2="{pad_t + ph}" stroke="#ddd"/>')
        out.append(f'<line x1="{pad_l}" y1="{sy(gy):.1f}" x2="{pad_l + pw}" '
                   f'y2="{sy(gy):.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{sx(gx):.1f}" y="{pad_t + ph + 16}" '
                   f'text-anchor="middle">{gx:.3g}</text>')
        out.append(f'<text x="{pad_l - 6}" y="{sy(gy) + 4:.1f}" '
                   f'text-anchor="end">{gy:.3g}</text>')
    out.append(f'<rect x="{pad_l}" y="{pad_t}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#444"/>')
    for i, (name, s) in enumerate(series.items()):
        if not s:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in s)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.4"/>')
        out.append(f'<text x="{pad_l + pw - 6}" y="{pad_t + 14 + 14 * i}" '
                   f'text-anchor="end" fill="{color}">{name}</text>')
    out.append(f'<text x="{pad_l + pw / 2:.1f}" y="{height - 8}" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="14" y="{pad_t + ph / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {pad_t + ph / 2:.1f})">{y_label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
