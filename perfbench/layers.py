"""Traced run: spans and counters at wpstrata's layer boundaries.

The wrappers live here, not in the library. Each replaces a module-level
name that one layer calls the next through, and `installed` puts every
original back on exit. Layer entry points get spans (name, start, end,
parent, op id), kept in memory; scalar kernels are only counted, and
their cost comes from the microbenchmarks at the end of this file.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import Counter, defaultdict

from wpstrata import cli, gradbounds, integrals, riera, toruscoset
from wpstrata.gradbounds import EPS2
from wpstrata.hyp2 import UValue

# `verify all` checks at the seed commit, each reported as
# cli.verify.<name>.self_s (0 when a check of that name is absent).
VERIFY_CHECKS = (
    "collar_identity",
    "kernel_examples",
    "kernel_positive",
    "collar_profile",
    "envelope_identity",
    "radius_duality",
    "factor_limits",
    "mobius_invariance",
    "axis_conjugation",
    "cross_route_u",
    "commutator_trace",
    "crossing_census",
    "bracket_nesting",
    "h_limits",
    "quadrature_nesting",
    "separation_monotone",
    "elementary_digits",
    "lipschitz_value",
    "brute_force_cosets",
    "square_symmetry",
    "envelope_grid",
    "coarse_upper_grid",
    "auv_cap",
    "refined_delta11",
    "path_bracket_contract",
    "c_min",
    "pa_bounds",
)

TABLE_LENGTHS = (8, 10, 12)
H_TOLS = (("1e-7", 1e-7), ("1e-10", 1e-10), ("1e-12", 1e-12))


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[int] = []
        self._child: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.op = -1

    def span(self, name: str, fn, on_return=None):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(idx)
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += t1 - t0
                self.spans[idx] = (name, t0, t1, parent, self.op)
                self.self_s[name] += (t1 - t0) - child
                self.count[name] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapped

    def counted(self, name: str, fn, on_return=None):
        def wrapped(*args, **kwargs):
            self.count[name] += 1
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapped

    # Hooks that read work counts off a layer's arguments and results.

    def _simpson_done(self, args, result) -> None:
        self.count["integrals.adaptive_simpson.evals"] += result[2]

    def _coset_done(self, args, result) -> None:
        maxlen = args[1]
        # Reduced words of length 1..maxlen that start with a B letter.
        self.count["toruscoset.coset_sums.words"] += 3**maxlen - 1
        self.count["toruscoset.coset_sums.pruned"] += result[2]

    def _a_hat_done(self, args, result) -> None:
        self.count["riera.a_hat.terms"] += result.terms_used

    def coset_simpson(self, fn):
        """adaptive_simpson as delta11_bracket calls it. Its integrand is
        wrapped to count lookups of delta11's per-call coset-sum cache;
        the coset sums computed meanwhile are the misses."""
        spanned = self.span("integrals.adaptive_simpson", fn, self._simpson_done)

        def wrapped(f, *args, **kwargs):
            def looked_up(y):
                if y != 0.0:  # y = 0 is the closed-form endpoint value
                    self.count["toruscoset.delta11.lookups"] += 1
                return f(y)

            before = self.count["toruscoset.coset_sums"]
            try:
                return spanned(looked_up, *args, **kwargs)
            finally:
                self.count["toruscoset.delta11.misses"] += self.count["toruscoset.coset_sums"] - before

        return wrapped

    def patches(self):
        """(module, attribute, wrapper factory) for every traced name."""
        sp = self.span
        hyp2 = [
            (mod, n, lambda fn, n=n: sp(f"hyp2.{n}", fn))
            for mod in (cli, toruscoset)
            for n in ("u_value", "compose_many", "translate_geodesic", "axis_of", "translation_length")
            if hasattr(mod, n)
        ]
        return [
            (cli, "compute_constant_records", lambda fn: sp("cli.compute_constant_records", fn)),
            (cli, "_render_records_text", lambda fn: sp("cli.render", fn)),
            (cli, "_render_records_json", lambda fn: sp("cli.render", fn)),
            (cli, "_render_records_csv", lambda fn: sp("cli.render", fn)),
            (cli, "_ALL_CHECKS", lambda checks: [(n, sp(f"cli.verify.{n}", f)) for n, f in checks]),
            (cli, "integral_H", lambda fn: sp("integrals.integral_H", fn)),
            (integrals, "integral_H", lambda fn: sp("integrals.integral_H", fn)),
            (integrals, "adaptive_simpson", lambda fn: sp("integrals.adaptive_simpson", fn, self._simpson_done)),
            (toruscoset, "adaptive_simpson", self.coset_simpson),
            (cli, "delta11_bracket", lambda fn: sp("toruscoset.delta11_bracket", fn)),
            (toruscoset, "delta11_bracket", lambda fn: sp("toruscoset.delta11_bracket", fn)),
            (toruscoset, "_coset_sums", lambda fn: sp("toruscoset.coset_sums", fn, self._coset_done)),
            (cli, "a_of_T", lambda fn: sp("riera.a_of_T", fn)),
            (gradbounds, "_a_of_u", lambda fn: self.counted("riera.a_of_u", fn)),
            (riera, "a_hat", lambda fn: self.counted("riera.a_hat", fn, self._a_hat_done)),
            (integrals, "F_pair", lambda fn: self.counted("gradbounds.F_pair", fn)),
            (integrals, "G_of", lambda fn: self.counted("gradbounds.G_of", fn)),
        ] + hyp2


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the traced names in; restore every original on exit."""
    saved = []
    try:
        for mod, attr, make in tracer.patches():
            if hasattr(mod, attr):
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, make(original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int) -> dict[str, float]:
    """Per-op work counts, self times and ratios of one traced phase."""
    c, s = tr.count, tr.self_s
    words = c["toruscoset.coset_sums.words"]
    lookups = c["toruscoset.delta11.lookups"]
    hyp2_s = sum(v for k, v in s.items() if k.startswith("hyp2."))
    out = {
        "riera.a_of_u.calls": c["riera.a_of_u"] / ops,
        "riera.a_hat.terms_per_call": _ratio(c["riera.a_hat.terms"], c["riera.a_hat"]),
        "riera.a_of_T.self_s": s["riera.a_of_T"] / ops,
        "gradbounds.F_pair.calls": c["gradbounds.F_pair"] / ops,
        "gradbounds.G_of.calls": c["gradbounds.G_of"] / ops,
        "integrals.adaptive_simpson.calls": c["integrals.adaptive_simpson"] / ops,
        "integrals.adaptive_simpson.evals": _ratio(
            c["integrals.adaptive_simpson.evals"], c["integrals.adaptive_simpson"]
        ),
        "integrals.adaptive_simpson.self_s": s["integrals.adaptive_simpson"] / ops,
        "integrals.integral_H.self_s": s["integrals.integral_H"] / ops,
        "integrals.evals_per_op": c["integrals.adaptive_simpson.evals"] / ops,
        "toruscoset.coset_sums.calls": c["toruscoset.coset_sums"] / ops,
        "toruscoset.coset_sums.self_s": s["toruscoset.coset_sums"] / ops,
        "toruscoset.coset_sums.words": words / ops,
        "toruscoset.coset_sums.words_per_s": _ratio(words, s["toruscoset.coset_sums"]),
        "toruscoset.coset_sums.pruned": c["toruscoset.coset_sums.pruned"] / ops,
        "toruscoset.coset_sums.pruned_ratio": _ratio(c["toruscoset.coset_sums.pruned"], words),
        "toruscoset.delta11.cache_hit_ratio": _ratio(
            lookups - c["toruscoset.delta11.misses"], lookups
        ),
        "hyp2.u_value.calls": c["hyp2.u_value"] / ops,
        "hyp2.compose_many.calls": c["hyp2.compose_many"] / ops,
        "hyp2.self_s": hyp2_s / ops,
        "cli.compute_constant_records.self_s": s["cli.compute_constant_records"] / ops,
        "cli.render.self_s": s["cli.render"] / ops,
    }
    for name in VERIFY_CHECKS:
        out[f"cli.verify.{name}.self_s"] = s[f"cli.verify.{name}"] / ops
    return out


def _per_call_ns(fn, args: list, repeats: int = 5) -> float:
    """Median over repeats of the mean ns per call across args."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - t0) / len(args) * 1e9)
    return statistics.median(samples)


def _median_s(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def microbenchmarks() -> dict[str, float]:
    """Scalar kernels in ns per call; coset tables, the coset kernel and
    integral_H at fixed sizes, in seconds. Run with no wrappers installed."""
    grid = [0.05 + 11.95 * i / 399 for i in range(400)]
    series_T = [(0.52 + 4.0 * i / 399,) for i in range(400)]  # u = e^-T below the switch
    closed_T = [(1e-4 + 0.5 * i / 399,) for i in range(400)]
    out = {
        "riera.a_stable.series_ns": _per_call_ns(riera.a_stable, series_T),
        "riera.a_stable.closed_ns": _per_call_ns(riera.a_stable, closed_T),
        "riera.riera_R_ns": _per_call_ns(
            riera.riera_R, [(UValue(1.0 + 0.05 * x * x, False),) for x in grid]
        ),
        "gradbounds.F_pair_ns": _per_call_ns(gradbounds.F_pair, [(x, x) for x in grid]),
        "gradbounds.G_of_ns": _per_call_ns(
            gradbounds.G_of, [(gradbounds.r_sys(x),) * 2 for x in grid]
        ),
    }
    t_self_dual = 2.0 * math.asinh(1.0)
    for n in TABLE_LENGTHS:
        # An uncached build, so the figure does not depend on the workload.
        t0 = time.perf_counter()
        toruscoset._word_tables.__wrapped__(n)
        out[f"toruscoset.word_tables.build_s.L{n}"] = time.perf_counter() - t0
        toruscoset.grad_sq_bracket(t_self_dual, n)  # fills the table cache
        out[f"toruscoset.grad_sq_bracket_s.L{n}"] = _median_s(
            lambda: toruscoset.grad_sq_bracket(t_self_dual, n), 5
        )
    for label, tol in H_TOLS:
        out[f"integrals.integral_H_s.tol{label}"] = _median_s(
            lambda: integrals.integral_H(0.0, 4.0 * EPS2, "plain", tol), 5
        )
    return out
