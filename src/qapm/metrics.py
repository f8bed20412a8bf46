"""End-of-run reports, trace/chart emission.

A `RunReport` holds what one run measured: the IAE each plant accumulated
at micro-step resolution (see `plant.StateSpacePlant`), and the energy the
simulator summed from its speed-change list (see `sim`).  The trace is
held as the simulator recorded it, one tuple per visit and each plant's
samples; `TraceRecorder` alone reads a visit, and forms the CSV lines and
the chart series from them only when asked for.

The writers give the bytes `csv.writer` and ``json.dumps(indent=2)`` would
give, but build them with C-level ``map``/``zip``/``join`` over columns
rather than with Python code per row or value.  What is left is the
formatting of the numbers, which the bytes of the files fix: each float is
its `repr`, the shortest text that reads back as the same float, and no
cheaper format gives that text.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter, mul

__all__ = [
    "RunReport",
    "TraceRecorder",
    "line_chart_svg",
    "sig6",
]

# Visits per write in `TraceRecorder.write_csv`: a block's text and number
# texts are held whole, so larger blocks raise the peak memory of --out.
_BLOCK = 32


def sig6(v: float) -> float:
    """Round to 6 significant digits for report serialization."""
    return float(f"{v:.6g}")


class TraceRecorder:
    """The trace of a run, one row per visit.

    ``visits`` holds (tick, r, alpha, periods, u) per trace visit, the
    periods in force (seconds) and the held actuator values per loop, and
    ``loops`` holds (loop id, y) per loop, y one sample per visit; all
    three per-loop lists are in the same order, the run's task-id order.
    Row k is visit k: time_s = tick * 1e-6, r and alpha, then per loop, in
    that order, y, u and h_eff_ms = h * 1000.0.
    """

    def __init__(self, visits, loops):
        self.visits = visits
        self.loops = loops

    def energy_series(self) -> dict[str, list[tuple[float, float]]]:
        """The chart series "E(t)": (time_s, energy draw alpha * alpha)."""
        return {"E(t)": [(tick * 1e-6, alpha * alpha)
                         for tick, _, alpha, _, _ in self.visits]}

    def period_series(self) -> dict[str, list[tuple[float, float]]]:
        """A chart series "h<loop id>" per loop: (time_s, h_eff_ms)."""
        return {f"h{lid}": [(tick * 1e-6, periods[i] * 1000.0)
                            for tick, _, _, periods, _ in self.visits]
                for i, (lid, _) in enumerate(self.loops)}

    def write_csv(self, path) -> None:
        """The rows as `csv.writer` writes them under the header
        ``time_s,r,alpha`` and ``y<id>,u<id>,h_eff_ms<id>`` per loop: each
        float in its shortest round-trip form, CRLF line ends, no quoting
        (no field needs it).

        A block of `_BLOCK` visits at a time is transposed into columns and
        written at once, so no Python code runs per row and no more than a
        block's text is held.  t, r and y are formatted once per row,
        alpha, u and h_eff, which repeat often, once per distinct nonzero
        value in the block (`_FloatText`).
        """
        ys = [y for _, y in self.loops]
        visits = self.visits
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["time_s", "r", "alpha"] + [
                f"{name}{lid}" for lid, _ in self.loops
                for name in ("y", "u", "h_eff_ms")]) + "\r\n")
            for k in range(0, len(visits), _BLOCK):
                ticks, rs, alphas, periods, us = zip(*visits[k:k + _BLOCK])
                num = _FloatText().__getitem__
                columns = [map(repr, map(mul, ticks, repeat(1e-6))),
                           map(repr, rs), map(num, alphas)]
                for y, u, h in zip(ys, zip(*us), zip(*periods)):
                    columns += (map(repr, y[k:k + _BLOCK]), map(num, u),
                                map(num, map(mul, h, repeat(1000.0))))
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


class _FloatText(dict):
    """repr of a float, each nonzero value formatted once.  Zeros are not
    kept: 0.0 and -0.0 are equal keys but print differently."""

    def __missing__(self, v):
        text = repr(v)
        if v:
            self[v] = text
        return text


class RunReport:
    """Everything measured over one run; immutable once built."""

    def __init__(self, scenario: str, mode: str, cpu: str, duration_s: float,
                 seed: int, j: dict[int, float], j_sum: float,
                 e_avg: float | None, misses: int,
                 period_stats_ms: dict[int, dict[str, float]],
                 utilization: list[tuple[float, float, float]],
                 speed_changes: list[tuple[int, float]]):
        self.scenario = scenario
        self.mode = mode
        self.cpu = cpu
        self.duration_s = duration_s
        self.seed = seed
        self.j = j
        self.j_sum = j_sum
        self.e_avg = e_avg
        self.misses = misses
        self.period_stats_ms = period_stats_ms
        # (time_s, alpha_ideal, alpha) per policy invocation
        self.utilization = utilization
        # (tick, alpha) per actual speed change, tick 0 included
        self.speed_changes = speed_changes

    def _head(self) -> dict:
        """Every key of the report but its two long lists."""
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
        }

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2)`` lays out its keys,
        the two long lists last.

        The head goes through `json.dumps`; the two long lists, its last
        keys, are written here in the same layout with one %-format per
        entry, as the standard library's encoder runs Python code per value
        when it indents.  Their values are times and speeds of a run, all
        finite, so each prints as its `repr`, as `json` prints it.
        """
        head = json.dumps(self._head(), indent=2)[:-2]
        u, sc = self.utilization, self.speed_changes
        utilization = _json_rows([map(itemgetter(i), u) for i in range(3)])
        speed_changes = _json_rows([
            map(mul, map(itemgetter(0), sc), repeat(1e-6)),
            map(itemgetter(1), sc)])
        return (f'{head},\n  "utilization": {utilization},\n'
                f'  "speed_changes": {speed_changes}\n}}\n')

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _json_rows(columns) -> str:
    """The rows whose values ``columns`` holds, one iterable per column,
    each value rounded as `sig6` rounds it, laid out as ``json.dumps``
    lays out such a list as a value in an ``indent=2`` object."""
    entry = "    [\n" + ",\n".join(["      %r"] * len(columns)) + "\n    ]"
    rounded = [map(float, map(format, c, repeat(".6g"))) for c in columns]
    rows = ",\n".join(map(entry.__mod__, zip(*rounded)))
    return f"[\n{rows}\n  ]" if rows else "[]"


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
