"""Command line interface.

Four subcommands: `constants` recomputes every named constant with a
certified bracket and compares against the published decimals,
`delta11` reports the refined one-handle distance bracket, `plot`
writes a deterministic SVG (plus CSV sidecar) for the two standard
curves, and `verify` runs the invariant checks. Exit codes: 0 on
success, 1 when a comparison or check fails, 2 on usage errors,
including an --out that cannot be written and a --tol below what the
quadrature reaches.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable
from decimal import ROUND_CEILING, ROUND_DOWN, Decimal

import numpy as np

from .gradbounds import (
    EPS2,
    F_pair,
    G_of,
    L0,
    collar_radius_separating,
    collar_radius_simple,
    grad_sq_upper_single,
    r_sys,
    u_factor,
    v_factor,
)
from .hyp2 import (
    INF,
    GeodesicH2,
    MoebiusMap,
    UValue,
    axis_of,
    collar_area,
    translate_geodesic,
    translation_length,
    u_value,
)
from .integrals import (
    BROCK_BROMBERG_11,
    Bracket,
    ConvergenceError,
    c_ratios,
    integral_H,
    integral_K,
    pa_translation_bounds,
    strata_separation,
)
from .riera import _A_SWITCH_T, _TOL, _a_of_u, a_hat, a_of_T, a_stable, riera_R
from .toruscoset import (
    MAX_WORD_LENGTH,
    delta11_bracket,
    enumerate_cosets,
    grad_sq_bracket,
    holonomy,
    identity_coset,
    u_of_coset,
)

# Every published decimal, in output order: record name -> (published
# string, rule, provenance). _reproduces reads each one outward, to five
# places:
# - "enclosure", "(a, b)": lo truncates to a and hi rounds up to b;
# - "window", "[a, b]": the bracket lies inside, with 1e-5 of slack on
#   each side;
# - "lower", "a": lo >= a;
# - "trunc", "a": the midpoint truncates to a, leading zeros ignored.
_PUBLISHED = {
    "delta11_elementary": ("(6.57252, 6.65603)", "enclosure", "paper"),
    "delta11_refined": ("[6.59576, 6.63283]", "window", "paper"),
    "hsum_thin_pair": ("7.61138", "lower", "paper"),
    "h_0_2eps2": ("3.27466", "trunc", "paper"),
    "hs_0_4eps2": ("4.63108", "trunc", "paper"),
    "w1_3678": ("10.76596", "lower", "paper"),
    "w2_2420": ("10.09656", "lower", "paper"),
    "delta04_sqrt2": ("(9.29495, 9.41305)", "enclosure", "paper"),
    "two_delta11": ("13.145", "lower", "paper"),
    "gap_genus": ("0.95535", "lower", "paper"),
    "gap_sphere": ("0.68351", "lower", "paper"),
    "lipschitz_sys": ("2.00423", "trunc", "paper"),
    "c_min_ratio": ("0.94", "lower", "paper"),
    "pa_case_i2": ("1.06205", "lower", "paper"),
    "pa_case_i1": ("1.56949", "lower", "paper"),
    "pa_general": ("0.78474", "lower", "paper"),
    # the published string drops the leading zero
    "brock_bromberg_11": (".53724", "trunc", "derived"),
}


@dataclass(frozen=True)
class ConstantRecord:
    name: str
    lo: float
    hi: float
    paper: str
    provenance: str
    status: str


# Both round the exact binary value of x, so a float an ulp past a
# decimal is never read as that decimal.
def _trunc_str(x: float) -> str:
    """Decimal truncation toward zero, as a five-place string."""
    return str(Decimal(x).quantize(Decimal("1e-5"), ROUND_DOWN))


def _ceil_str(x: float) -> str:
    """Decimal rounding toward +inf, as a five-place string."""
    return str(Decimal(x).quantize(Decimal("1e-5"), ROUND_CEILING))


def _ends(paper: str) -> list[str]:  # the decimals of "(a, b)" or "[a, b]"
    return paper[1:-1].split(", ")


def _reproduces(name: str, lo: float, hi: float) -> bool:
    """Whether [lo, hi] reproduces the published decimal of `name`,
    read outward by its rule in _PUBLISHED."""
    paper, rule, _ = _PUBLISHED[name]
    if rule == "lower":
        return Decimal(lo) >= Decimal(paper)  # exact: float(paper) may round up or down
    if rule == "trunc":
        return _trunc_str(0.5 * (lo + hi)).lstrip("0") == paper.lstrip("0")
    a, b = _ends(paper)
    if rule == "enclosure":
        return _trunc_str(lo) == a and _ceil_str(hi) == b
    if rule == "window":
        return float(a) - 1e-5 <= lo and hi <= float(b) + 1e-5
    raise ValueError(f"unknown comparison rule {rule!r}")


def _lipschitz() -> float:
    """sqrt(2 pi / (1 + G(L0/4, L0/4))), the systole's Lipschitz value."""
    return math.sqrt(2.0 * math.pi / (1.0 + G_of(0.25 * L0, 0.25 * L0)))


# c_min_ratio's 61 log-spaced lengths in [1e-3, 1e2]. _c_min screens
# them at _C_MIN_SCREEN_TOL (or tol, if looser) and integrates to tol
# only those within _C_MIN_MARGIN of the screened least ratio.
_C_MIN_GRID = np.logspace(-3.0, 2.0, 61).tolist()
_C_MIN_SCREEN_TOL = 1e-6
_C_MIN_MARGIN = 1e-3


def _c_min(tol: float) -> float:
    """The least systole ratio at tol over _C_MIN_GRID, the same float
    as min(c_ratios(_C_MIN_GRID, tol)), in three steps.

    1. Bound. For t <= L0 the ratio is at least 1 / sqrt(1 + G(r, r)),
       r = r_sys(t): the ratio is the mean of 1 / sqrt(1 + G) over
       y = sqrt(tau) in [0, sqrt(t)], and below L0 r_sys falls in tau
       and G_of falls in each radius, so that mean is at least its value
       at the end. A length whose bound already exceeds the screened
       least ratio of the lengths above L0, plus the margin, is ruled
       out.
    2. Screen. The other lengths get c_ratios at the screen tol, and those
       within the margin of the least screened ratio survive.
    3. Exact pass. The least c_ratios of the survivors at tol.

    Each c_ratios ratio is bit for bit integral_H(0, t, "systole", tol),
    so the result moves only if the true minimiser is dropped. Where the
    ratio is under 0.99, K(0, t) > 2.5, and even a miss of 331 times the
    screen tol (D9's) moves a screened ratio by under 1.4e-4; two such
    errors fit inside the margin 1e-3.
    """
    screen_tol = max(tol, _C_MIN_SCREEN_TOL)
    high = [t for t in _C_MIN_GRID if t > L0]
    screened = dict(zip(high, c_ratios(high, screen_tol)))
    bar = min(screened.values()) + _C_MIN_MARGIN
    low = [t for t in _C_MIN_GRID if t <= L0 and _c_ratio_floor(t) <= bar]
    screened.update(zip(low, c_ratios(low, screen_tol)))
    bar = min(screened.values()) + _C_MIN_MARGIN
    return min(c_ratios([t for t, c in screened.items() if c <= bar], tol))


def _c_ratio_floor(t: float) -> float:
    """1 / sqrt(1 + G(r, r)) at r = r_sys(t), under the systole ratio
    at any t <= L0 (see _c_min)."""
    r = r_sys(t)
    return 1.0 / math.sqrt(1.0 + G_of(r, r))


# delta11_bracket's (max_word_length, quad_tol) for delta11_refined.
_REFINED = (8, 1e-6)


def compute_constant_records(tol: float = 1e-8) -> list[ConstantRecord]:
    """Recompute every named constant and classify it against its
    published decimals."""
    sep = strata_separation(delta11_bracket(0, min(tol, 1e-9)), tol)
    pa = pa_translation_bounds(tol)
    values = {
        "delta11_elementary": sep.delta11,
        "delta11_refined": delta11_bracket(*_REFINED),
        "hsum_thin_pair": sep.thin_pair,
        "h_0_2eps2": integral_H(0.0, 2.0 * EPS2, "plain", tol),
        "hs_0_4eps2": integral_H(0.0, 4.0 * EPS2, "separating", tol),
        "w1_3678": sep.w1,
        "w2_2420": sep.w2,
        "delta04_sqrt2": sep.sphere_twice,
        "two_delta11": sep.two_delta11,
        "gap_genus": sep.gap_genus,
        "gap_sphere": sep.gap_sphere,
        "lipschitz_sys": _lipschitz(),
        "c_min_ratio": _c_min(tol),
        "pa_case_i2": pa.case_i2,
        "pa_case_i1": pa.case_i1,
        "pa_general": pa.general,
        "brock_bromberg_11": BROCK_BROMBERG_11,
    }
    records = []
    for name, (paper, _, provenance) in _PUBLISHED.items():
        value = values[name]
        lo, hi = (value.lo, value.hi) if isinstance(value, Bracket) else (float(value),) * 2
        status = "reproduced" if _reproduces(name, lo, hi) else "mismatch"
        records.append(ConstantRecord(name, lo, hi, paper, provenance, status))
    return records


def _render_records_text(records: list[ConstantRecord]) -> str:
    rows = [("name", "lo", "hi", "paper", "provenance", "status")]
    for r in records:
        rows.append((r.name, repr(r.lo), repr(r.hi), r.paper, r.provenance, r.status))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _render_records_json(records: list[ConstantRecord]) -> str:
    payload = {
        "constants": [
            {"name": r.name, "lo": r.lo, "hi": r.hi, "paper": r.paper, "status": r.status}
            for r in records
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_records_csv(records: list[ConstantRecord]) -> str:
    rows = [["name", "lo", "hi", "paper", "status"]]
    rows += [[r.name, repr(r.lo), repr(r.hi), r.paper, r.status] for r in records]
    return _csv_text(rows)


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _render(records: list[ConstantRecord], fmt: str) -> str:
    # looked up at call time, so a swapped module attribute is the one called
    return globals()[f"_render_records_{fmt}"](records)


def _write(path: str | None, text: str) -> None:
    # to stdout without a path; main turns an OSError into a usage error
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_constants(args: argparse.Namespace) -> int:
    records = compute_constant_records(args.tol)
    _write(args.out, _render(records, args.format))
    ok = all(r.status == "reproduced" for r in records if r.provenance == "paper")
    return 0 if ok else 1


def cmd_delta11(args: argparse.Namespace) -> int:
    br = delta11_bracket(args.max_word_length, args.tol)
    window = _PUBLISHED["delta11_refined"][0]
    plo, phi = (float(x) for x in _ends(window))
    consistent = not (br.hi < plo or br.lo > phi)
    status = "consistent" if consistent else "inconsistent"
    rec = ConstantRecord("delta11", br.lo, br.hi, window, "paper", status)
    _write(args.out, _render([rec], args.format))
    return 0 if consistent else 1


_PLOT_LEFT = 80.0
_PLOT_RIGHT = 760.0
_PLOT_TOP = 60.0
_PLOT_BOTTOM = 540.0
_BLUE = "#4682b4"
_ORANGE = "#d2691e"


def _line_chart(
    title: str, box: tuple[float, float, float, float], x_ticks: list[tuple[float, str]],
    y_ticks: list[tuple[float, str]], xs: list[float], curves: list[tuple[str, list[float]]],
    legend: tuple[tuple[str, str], ...] = (),
) -> str:
    """An 800 x 600 SVG: axes, (value, text) ticks, one polyline per
    (color, ys) curve over xs in order, then one text per (text, color)
    legend entry. box is (xmin, xmax, ymin, ymax)."""
    xmin, xmax, ymin, ymax = box

    def px(v: float) -> float:
        return _PLOT_LEFT + (v - xmin) * (_PLOT_RIGHT - _PLOT_LEFT) / (xmax - xmin)

    def py(v: float) -> float:
        return _PLOT_BOTTOM - (v - ymin) * (_PLOT_BOTTOM - _PLOT_TOP) / (ymax - ymin)

    stroke = 'stroke="#333333" stroke-width="1"/>'
    label = 'font-family="monospace" font-size="12"'
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect width="800" height="600" fill="#ffffff"/>',
        f'<text x="400" y="30" font-family="monospace" font-size="16" text-anchor="middle" fill="#222222">{title}</text>',
        f'<line x1="{_PLOT_LEFT:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{_PLOT_RIGHT:.2f}" y2="{_PLOT_BOTTOM:.2f}" {stroke}',
        f'<line x1="{_PLOT_LEFT:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{_PLOT_LEFT:.2f}" y2="{_PLOT_TOP:.2f}" {stroke}',
    ]
    for v, text in x_ticks:
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{x:.2f}" y2="{_PLOT_BOTTOM + 6:.2f}" {stroke}')
        parts.append(f'<text x="{x:.2f}" y="{_PLOT_BOTTOM + 22:.2f}" {label} text-anchor="middle" fill="#222222">{text}</text>')
    for v, text in y_ticks:
        y = py(v)
        parts.append(f'<line x1="{_PLOT_LEFT - 6:.2f}" y1="{y:.2f}" x2="{_PLOT_LEFT:.2f}" y2="{y:.2f}" {stroke}')
        parts.append(f'<text x="{_PLOT_LEFT - 10:.2f}" y="{y + 4:.2f}" {label} text-anchor="end" fill="#222222">{text}</text>')
    for color, ys in curves:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
    for i, (text, color) in enumerate(legend):
        parts.append(f'<text x="640" y="{80 + 20 * i}" font-family="monospace" font-size="13" fill="{color}">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot_hsys_ratio(samples: int, tol: float) -> tuple[str, str]:
    ts = np.logspace(-3.0, 2.0, samples).tolist()
    values = c_ratios(ts, tol)
    svg = _line_chart(
        "systole ratio H_sys(0, t) / K(0, t)",
        (-3.0, 2.0, 0.93, 1.01),
        list(zip(range(-3, 3), ["0.001", "0.01", "0.1", "1", "10", "100"])),
        [(0.93 + 0.02 * k, f"{0.93 + 0.02 * k:.2f}") for k in range(5)],
        [math.log10(t) for t in ts],
        [(_BLUE, values)],
    )
    return svg, _csv_text([["t", "value"]] + [[repr(t), repr(v)] for t, v in zip(ts, values)])


def _plot_h_vs_k(samples: int, tol: float) -> tuple[str, str]:
    ts = np.linspace(0.0, 10.0, samples).tolist()
    hs = [0.0] + [integral_H(0.0, t, "plain", tol).midpoint for t in ts[1:]]
    ks = [0.0] + [integral_K(0.0, t) for t in ts[1:]]
    ticks = [(2.0 * k, str(2 * k)) for k in range(6)]
    svg = _line_chart(
        "H(0, t) against the baseline K(0, t)",
        (0.0, 10.0, 0.0, 8.0),
        ticks,
        ticks[:5],
        ts,
        [(_ORANGE, ks), (_BLUE, hs)],
        legend=(("H", _BLUE), ("K", _ORANGE)),
    )
    rows = [[repr(t), repr(h), repr(k)] for t, h, k in zip(ts, hs, ks)]
    return svg, _csv_text([["t", "H", "K"]] + rows)


def cmd_plot(args: argparse.Namespace) -> int:
    plot = _plot_hsys_ratio if args.which == "hsys-ratio" else _plot_h_vs_k
    svg, sidecar = plot(args.samples, args.tol)
    out = args.out or "plot.svg"
    csv_path = out[: out.rfind(".")] + ".csv" if "." in out.rsplit("/", 1)[-1] else out + ".csv"
    _write(out, svg)
    _write(csv_path, sidecar)
    sys.stdout.write(f"wrote {out} and {csv_path}\n")
    return 0


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _verify_collar_identity() -> None:
    _check(abs(collar_area(math.asinh(1.0)) - (math.pi + 2.0)) < 1e-12, "A(arcsinh 1) != pi + 2")
    r_grid = np.linspace(0.05, 20.0, 80)
    areas = [collar_area(float(r)) for r in r_grid]
    _check(all(b > a for a, b in zip(areas, areas[1:])), "collar area not increasing")
    _check(
        abs(collar_area(20.0) * math.exp(-40.0) / (math.pi / 4.0) - 1.0) < 1e-6,
        "collar area asymptote off",
    )


def _verify_kernel_examples() -> None:
    _check(riera_R(UValue(0.0, True)) == -2.0, "R(0) != -2")
    _check(abs(riera_R(UValue(3.0, False)) - (3.0 * math.log(2.0) - 2.0)) < 1e-14, "R(3) off")
    for u in (0.1, 0.3, 0.5, 0.8):
        ev = a_hat(u)
        target = riera_R(UValue(0.5 * (u + 1.0 / u), False)) / (u * u)
        _check(
            ev.value - 1e-12 <= target <= ev.value + ev.tail_bound + 1e-12,
            f"a_hat({u}) bracket misses the kernel identity",
        )


def _verify_kernel_positive() -> None:
    for u in np.logspace(math.log10(1.0 + 1e-6), 6.0, 120):
        _check(riera_R(UValue(float(u), False)) > 0.0, f"R not positive at u={u}")


def _verify_collar_profile() -> None:
    prev = None
    for T in np.logspace(-6.0, math.log10(50.0), 40).tolist():
        v = a_stable(T)
        lo = 8.0 / 3.0
        hi = lo - 2.0 * math.log1p(-math.exp(-2.0 * T))
        _check(lo <= v <= hi + 1e-12, f"a(T) outside pinch at T={T}")
        # weakly: the profile saturates to 8/3 exactly once the tail
        # falls under one ulp
        if prev is not None:
            _check(v <= prev, f"a(T) increasing at T={T}")
        prev = v
        # a_stable's series branch, whose term count _BREAKS tabulates
        if T >= _A_SWITCH_T:
            _check(a_of_T(T) == v, f"a_of_T != a_stable at T={T}")


def _verify_envelope_identity() -> None:
    for la in (0.2, 0.7, 1.5, 3.0, 8.0):
        for lb in (la, la + 0.5, la + 3.0):
            f = F_pair(la, lb)
            g = G_of(collar_radius_simple(la), collar_radius_simple(lb))
            _check(abs(f - g) <= 1e-12 * max(1.0, abs(f)), f"F != G at ({la}, {lb})")


def _word_map(table: dict[int, MoebiusMap], letters: tuple[int, ...]) -> MoebiusMap:
    # the product of table[l] over the letters, left to right
    return reduce(MoebiusMap.compose, map(table.__getitem__, letters))


def _verify_cross_route() -> None:
    point = holonomy(1.3)
    lm = {0: point.A, 1: point.A.inverse(), 2: point.B, 3: point.B.inverse()}
    for kind in ("AA", "AB"):
        for word in enumerate_cosets(kind, 3):
            m = _word_map(lm, word.letters)
            direct = abs(1.0 + 2.0 * m.b * m.c) if kind == "AA" else abs(m.b * m.d - m.a * m.c)
            via_axes = u_of_coset(point, word).value
            _check(abs(direct - via_axes) <= 1e-9 * max(1.0, direct), f"u mismatch for {word}")


def _verify_commutator() -> None:
    for t in np.linspace(0.05, 10.0, 50):
        point = holonomy(float(t))
        comm = point.A @ point.B @ point.A.inverse() @ point.B.inverse()
        _check(abs(comm.trace() + 2.0) < 1e-8, f"commutator trace off at t={t}")


def _verify_crossing_census() -> None:
    for t in (0.4, 1.0, 2.2):
        point = holonomy(t)
        _check(u_of_coset(point, identity_coset()).crossing, "identity coset must cross")
        for word in enumerate_cosets("AB", 3):
            _check(not u_of_coset(point, word).crossing, f"unexpected crossing at {word}")
        for word in enumerate_cosets("AA", 3):
            _check(u_of_coset(point, word).value > 1.0, f"AA coset not disjoint: {word}")


def _verify_bracket_nesting() -> None:
    prev = grad_sq_bracket(1.0, 0)
    for n in (2, 4, 6):
        cur = grad_sq_bracket(1.0, n)
        _check(cur.lo >= prev.lo - 1e-15 and cur.hi <= prev.hi + 1e-15, f"gradient bracket not nested at length {n}")
        prev = cur
    _check(prev.lo >= 2.0 / math.pi, "gradient lower floor violated")
    _check(prev.hi <= (4.0 / math.pi) * math.sinh(0.5), "gradient upper ceiling violated")


def _verify_h_limits() -> None:
    ratio = integral_H(0.0, 1e-6, "plain", 1e-10).midpoint / integral_K(0.0, 1e-6)
    _check(abs(ratio - 1.0) < 1e-3, "H/K does not approach 1")
    for b in (0.5, 2.0, 7.0):
        _check(integral_H(0.0, b, "plain", 1e-8).hi <= integral_K(0.0, b) + 1e-8, f"H exceeds K at b={b}")
    for a, b in ((0.25, 1.0), (1.0, 4.0), (3.0, 11.0)):
        v = integral_H(a, b, "systole", 1e-8)
        _check(
            v.lo >= 2.0 * (math.sqrt(b) - math.sqrt(a)) - 1e-8,
            f"systole H floor violated on ({a}, {b})",
        )


def _verify_quadrature_nesting() -> None:
    rng = np.random.default_rng(20240817)
    for variant in ("plain", "separating", "systole"):
        for _ in range(7):
            a = float(rng.uniform(0.0, 2.0))
            b = a + float(rng.uniform(0.2, 4.0))
            wide = integral_H(a, b, variant, 1e-5)
            tight = integral_H(a, b, variant, 1e-7)
            _check(
                wide.lo - 1e-12 <= tight.lo and tight.hi <= wide.hi + 1e-12,
                f"brackets not nested for {variant} on ({a}, {b})",
            )
            _check(tight.width <= 1e-7 + 1e-12, "tight bracket too wide")


def _verify_elementary_digits() -> None:
    br = delta11_bracket(0, 1e-9)
    _check(_reproduces("delta11_elementary", br.lo, br.hi), "elementary digits off")


def _verify_lipschitz() -> None:
    lip = _lipschitz()
    _check(_reproduces("lipschitz_sys", lip, lip), "lipschitz constant digits off")


def _brute_force_cosets(max_word_length: int) -> dict[str, set[tuple[int, ...]]]:
    # Independent road: all reduced words up to length cap, each
    # stripped of its leading A letters and then of its trailing A
    # letters (an AA coset) or its trailing B letters (an AB coset).
    # Longer words add none: a core of length <= cap is itself a reduced
    # word of length <= cap, and strips to itself.
    inv = (1, 0, 3, 2)
    aa: set[tuple[int, ...]] = set()
    ab: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_word_length):
        frontier = [w + (l,) for w in frontier for l in range(4) if not w or inv[w[-1]] != l]
        for w in frontier:
            n = len(w)
            i = 0
            while i < n and w[i] < 2:
                i += 1
            j = n
            while j > i and w[j - 1] < 2:
                j -= 1
            if 0 < j - i <= max_word_length:
                aa.add(w[i:j])
            j = n
            while j > i and w[j - 1] >= 2:
                j -= 1
            if 0 < j - i <= max_word_length:
                ab.add(w[i:j])
    return {"AA": aa, "AB": ab}


def _verify_brute_force() -> None:
    brute = _brute_force_cosets(5)
    for kind in ("AA", "AB"):
        direct = {w.letters for w in enumerate_cosets(kind, 5)}
        _check(direct == brute[kind], f"{kind} enumeration disagrees with brute force")


def _envelope_ratio_bound(z0: float, z1: float, w0: float, w1: float) -> float:
    """Bound of F(z, w) / (sinh(z/2) sinh^2(w/2)) = a(u) uf(z) vf(w), u =
    tanh(z/4) tanh(w/4), on [z0, z1] x [w0, w1]: a rises in u, uf and vf fall,
    so a(u(z1, w1)) uf(z0) vf(w0), outward: u raised by 2^-48 and the product by
    2^-46 relative (libm's 2 ulps a call), and a's series tail _TOL covered."""
    u = math.tanh(0.25 * z1) * math.tanh(0.25 * w1) * (1.0 + 2.0**-48)
    return (_a_of_u(u) + 0.5 * _TOL) * u_factor(z0) * v_factor(w0) * (1.0 + 2.0**-46)


def _prove_envelope_cap(slack: float) -> None:
    """Prove F(z, w) <= (4 / 3 pi)(1 + slack) sinh(z/2) sinh^2(w/2) on z <= w
    in [1e-4, 40 + 1 ulp], where the sampled grids before it ended, by branch
    and bound from 8 x 8 log-spaced cells on _envelope_ratio_bound. A failing
    box splits at geometric midpoints, lower left first; at depth 24 it is named."""
    cap = 4.0 / (3.0 * math.pi) * (1.0 + slack)
    e = np.logspace(-4.0, math.log10(40.0), 9).tolist()
    e[0], e[-1] = 1e-4, math.nextafter(40.0, math.inf)
    stack = [(e[i], e[i + 1], e[j], e[j + 1], 0) for i in range(7, -1, -1) for j in range(7, i - 1, -1)]
    while stack:
        z0, z1, w0, w1, depth = stack.pop()
        if _envelope_ratio_bound(z0, z1, w0, w1) <= cap:
            continue
        if depth == 24:
            raise AssertionError(f"envelope cap fails on [{z0!r}, {z1!r}] x [{w0!r}, {w1!r}]")
        zm, wm = math.sqrt(z0 * z1), math.sqrt(w0 * w1)
        # a child with z0 >= w1 meets z <= w at most in a corner a sibling holds
        for box in ((zm, z1, wm, w1), (zm, z1, w0, wm), (z0, zm, wm, w1), (z0, zm, w0, wm)):
            if box[0] < box[3]:
                stack.append((*box, depth + 1))


def _verify_cor_grid() -> None:
    for ell in np.logspace(-4.0, math.log10(50.0), 200):
        lf = float(ell)
        lhs = grad_sq_upper_single(lf)
        rhs = (2.0 / math.pi) * (lf + lf * lf * math.exp(0.5 * lf) / 3.0)
        _check(lhs <= rhs * (1.0 + 1e-12), f"coarse upper fails at {lf}")


# separation_monotone, refined_delta11 and path_bracket_contract share
# delta11_bracket(*_REFINED), built at most once per cmd_verify run and
# dropped on return; outside a run each builds its own.
_verify_run: dict[str, Bracket] | None = None


def _refined() -> Bracket:
    if _verify_run is None:
        return delta11_bracket(*_REFINED)
    if "refined" not in _verify_run:
        _verify_run["refined"] = delta11_bracket(*_REFINED)
    return _verify_run["refined"]


def _verify_refined_delta11() -> None:
    br = _refined()
    _check(_reproduces("delta11_refined", br.lo, br.hi), "refined bracket leaves published window")
    _check(br.width <= 0.04, "refined bracket too wide")


def _verify_c_min() -> None:
    c_min = _c_min(1e-7)
    _check(_reproduces("c_min_ratio", c_min, c_min), "systole ratio dips under its floor")
    _check(c_min >= math.sqrt(2.0 / math.pi), "systole ratio under sqrt(2/pi)")


def _verify_pa_sane() -> None:
    pa = pa_translation_bounds(1e-8)
    _check(pa.case_i2 > 1.06, "case i2 bound implausibly low")
    _check(pa.case_i1 > 1.56, "case i1 bound implausibly low")
    # stricter than the table's lower rule: the digits themselves
    _check(_trunc_str(pa.general) == _PUBLISHED["pa_general"][0], "general bound digits off")


def _verify_square_symmetry() -> None:
    t0 = 2.0 * math.asinh(1.0)
    point = holonomy(t0)
    swap = {0: point.B, 1: point.B.inverse(), 2: point.A, 3: point.A.inverse()}
    axis_b = GeodesicH2(-1.0, 1.0)
    direct = []
    swapped = []
    for word in enumerate_cosets("AA", 3):
        direct.append(u_of_coset(point, word).value)
        m = _word_map(swap, word.letters)
        swapped.append(u_value(axis_b, translate_geodesic(m, axis_b)).value)
    for x, y in zip(sorted(direct), sorted(swapped)):
        _check(abs(x - y) <= 1e-9 * max(1.0, x), "square point multisets differ")


def _verify_path_bracket_contract() -> None:
    t0 = 2.0 * math.asinh(1.0)
    h = integral_H(0.0, t0, "plain", 1e-8)
    k = integral_K(0.0, t0)
    ref = _refined()
    _check(2.0 * h.lo - 1e-9 <= ref.lo and ref.hi <= 2.0 * k + 1e-9, "refined bracket escapes the integral envelope")


def _verify_radius_duality() -> None:
    _check(
        abs(collar_radius_separating(4.0 * math.asinh(1.0)) - 2.0 * math.asinh(1.0)) < 1e-12,
        "separating radius identity fails",
    )
    for ell in (0.3, 1.0, 2.0, 5.0):
        simple = collar_radius_simple(ell)
        _check(abs(collar_radius_simple(2.0 * simple) - 0.5 * ell) < 1e-12, f"radius duality fails at {ell}")
        _check(collar_radius_separating(ell) >= simple, f"separating radius under simple at {ell}")


def _verify_factor_limits() -> None:
    _check(u_factor(0.0) == 0.25, "u factor start off")
    _check(abs(v_factor(0.0) - 2.0 / math.pi) < 1e-15, "v factor start off")
    for ell in (0.5, 1.0, 3.0, 10.0, 40.0):
        _check(u_factor(ell) <= (4.0 / 3.0) * math.exp(-0.5 * ell), "u factor cap fails")
        _check(v_factor(ell) <= math.exp(-0.5 * ell), "v factor cap fails")
    _check(abs(r_sys(L0) - 0.25 * L0) < 1e-12, "systole radius kink off")
    _check(
        r_sys(L0) < r_sys(L0 - 0.4) and r_sys(L0) < r_sys(L0 + 0.4),
        "systole radius not minimal at the crossing length",
    )


def _random_unit_map(rng: np.random.Generator) -> MoebiusMap | None:
    a, b, c, d = (float(x) for x in rng.normal(0.0, 1.0, size=4))
    det = a * d - b * c
    if det < 0.1:
        return None
    s = 1.0 / math.sqrt(det)
    return MoebiusMap(a * s, b * s, c * s, d * s)


def _verify_mobius_invariance() -> None:
    rng = np.random.default_rng(61087)
    checked = 0
    while checked < 150:
        pts = [float(x) for x in rng.normal(0.0, 3.0, size=4)]
        if abs(pts[0] - pts[1]) < 0.1 or abs(pts[2] - pts[3]) < 0.1:
            continue
        m = _random_unit_map(rng)
        if m is None:
            continue
        g1 = GeodesicH2(pts[0], pts[1])
        g2 = GeodesicH2(pts[2], pts[3])
        try:
            u1 = u_value(g1, g2)
            u2 = u_value(translate_geodesic(m, g1), translate_geodesic(m, g2))
        except ValueError:
            continue
        if u1.value > 1e6 or abs(u1.value - 1.0) < 1e-9:
            continue
        _check(
            abs(u1.value - u2.value) <= 1e-10 * max(1.0, u1.value),
            "u value not invariant under translation",
        )
        _check(u1.crossing == u2.crossing, "crossing flag not invariant")
        checked += 1


def _verify_axis_conjugation() -> None:
    rng = np.random.default_rng(20319)
    checked = 0
    while checked < 100:
        t = float(rng.uniform(0.1, 3.0))
        g = _random_unit_map(rng)
        if g is None:
            continue
        half = math.exp(0.5 * t)
        m0 = MoebiusMap(half, 0.0, 0.0, 1.0 / half)
        m = g @ m0 @ g.inverse()
        got = axis_of(m)
        want = translate_geodesic(g, axis_of(m0))
        pairs = sorted([got.p, got.q]), sorted([want.p, want.q])
        ok = True
        for x, y in zip(*pairs):
            if x == INF or y == INF:
                ok = ok and x == y
            elif abs(x) > 1e6 or abs(y) > 1e6:
                ok = ok and abs(x - y) <= 1e-4 * max(abs(x), abs(y))
            else:
                ok = ok and abs(x - y) <= 1e-8 * (1.0 + abs(x))
        _check(ok, "axis not equivariant under conjugation")
        _check(
            abs(translation_length(m) - t) <= 1e-10 * (1.0 + t),
            "translation length not conjugation invariant",
        )
        power = m @ m @ m
        _check(
            abs(translation_length(power) - 3.0 * t) <= 1e-9 * (1.0 + t),
            "translation length not additive under powers",
        )
        checked += 1


def _verify_separation_monotone() -> None:
    sep = strata_separation(_refined(), 1e-6)
    _check(sep.delta11.lo > 0.0, "one-handle distance not positive")
    _check(sep.gap_genus > 0.0, "genus routes past one crossing do not clear delta11")
    _check(sep.gap_sphere > 0.0, "sphere routes past two crossings do not clear sqrt(2) delta11")


_ALL_CHECKS = [
    ("collar_identity", _verify_collar_identity),
    ("kernel_examples", _verify_kernel_examples),
    ("kernel_positive", _verify_kernel_positive),
    ("collar_profile", _verify_collar_profile),
    ("envelope_identity", _verify_envelope_identity),
    ("radius_duality", _verify_radius_duality),
    ("factor_limits", _verify_factor_limits),
    ("mobius_invariance", _verify_mobius_invariance),
    ("axis_conjugation", _verify_axis_conjugation),
    ("cross_route_u", _verify_cross_route),
    ("commutator_trace", _verify_commutator),
    ("crossing_census", _verify_crossing_census),
    ("bracket_nesting", _verify_bracket_nesting),
    ("h_limits", _verify_h_limits),
    ("quadrature_nesting", _verify_quadrature_nesting),
    ("separation_monotone", _verify_separation_monotone),
    ("elementary_digits", _verify_elementary_digits),
    ("lipschitz_value", _verify_lipschitz),
    ("brute_force_cosets", _verify_brute_force),
    ("square_symmetry", _verify_square_symmetry),
    ("envelope_grid", lambda: _prove_envelope_cap(1e-12)),
    ("coarse_upper_grid", _verify_cor_grid),
    ("auv_cap", lambda: _prove_envelope_cap(1e-10)),
    ("refined_delta11", _verify_refined_delta11),
    ("path_bracket_contract", _verify_path_bracket_contract),
    ("c_min", _verify_c_min),
    ("pa_bounds", _verify_pa_sane),
]


def cmd_verify(args: argparse.Namespace) -> int:
    global _verify_run
    checks = _ALL_CHECKS  # the module's list at call time, which tests and tracers swap
    failed = 0
    _verify_run = {}
    try:
        for name, fn in checks:
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                sys.stdout.write(f"FAIL {name}: {exc}\n")
            except Exception as exc:
                failed += 1
                sys.stdout.write(f"FAIL {name}: {type(exc).__name__}: {exc}\n")
            else:
                sys.stdout.write(f"ok {name}\n")
    finally:
        _verify_run = None
    sys.stdout.write(f"{len(checks) - failed} passed, {failed} failed\n")
    return 0 if failed == 0 else 1


def _checked(cast: Callable[[str], Any], ok: Callable[[Any], bool], want: str) -> Callable[[str], Any]:
    """argparse type: cast the text, then require ok(value). argparse
    reports a text that cast refuses as "invalid <cast> value"."""

    def check(text: str) -> Any:
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    check.__name__ = cast.__name__
    return check


# a normal float: halving a subnormal tol can round it to 0
_tol = _checked(float, lambda x: sys.float_info.min <= x < math.inf, f"finite and at least {sys.float_info.min!r}")
_word_length = _checked(int, lambda n: 0 <= n <= MAX_WORD_LENGTH, f"in 0..{MAX_WORD_LENGTH}")
_samples = _checked(int, lambda n: 16 <= n <= 100000, "in 16..100000")
# the CSV sidecar takes the SVG path's extension, so .csv would be both
_svg_out = _checked(str, lambda out: not out.endswith(".csv"), "a path not ending in .csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpstrata",
        description="Certified brackets for length-gradient bounds and strata distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_, tol, tol_help in (
        ("constants", cmd_constants, "recompute and compare the named constants", 1e-8, "bracket width target"),
        ("delta11", cmd_delta11, "refined one-handle distance bracket", 1e-6, "quadrature tolerance"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--tol", type=_tol, default=tol, help=tol_help)
        if name == "delta11":
            p.add_argument("--max-word-length", type=_word_length, default=8)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write to this path instead of stdout")
        p.set_defaults(fn=fn)

    pp = sub.add_parser("plot", help="write a deterministic SVG plus CSV sidecar")
    pp.add_argument("which", choices=("hsys-ratio", "h-vs-k"))
    pp.add_argument("--samples", type=_samples, default=64, help="points per curve, 16..100000")
    pp.add_argument("--tol", type=_tol, default=1e-6)
    pp.add_argument("--out", type=_svg_out, help="SVG output path (default plot.svg), not ending in .csv")
    pp.set_defaults(fn=cmd_plot)

    pv = sub.add_parser("verify", help="run the invariant checks")
    pv.add_argument("suite", nargs="?", choices=("all",), default="all")
    pv.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # an output that cannot be written
        parser.error(str(exc))
    except ConvergenceError as exc:  # a --tol below what the quadrature reaches
        parser.error(f"{exc} at --tol {args.tol!r}; try a larger --tol")


if __name__ == "__main__":
    sys.exit(main())
