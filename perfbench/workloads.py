"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every op calls the library through module attributes (`cli.main`,
`integrals.integral_H`, ...) so that the traced run's wrappers see it.
Right after an op, `summary` keeps the little of its output that the
checks and the width figure need, so memory does not grow with the op
count. `check` then returns OK, MISS or WRONG. MISS is a certified
bracket that misses an independent reference by at most GROSS_MISS times
the accuracy the op asked for: the known defect of the adaptive Simpson
error estimate, counted as a failed op. WRONG is any other failed check
and marks the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from wpstrata import cli, integrals, toruscoset
from wpstrata.gradbounds import EPS2

OK, MISS, WRONG = "ok", "miss", "wrong"

# The known-defect misses of integral_H seen at the seed commit reach
# 1.2 times the requested tol; a miss beyond 100 times tol is a wrong
# result, not that defect.
GROSS_MISS = 100.0


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, shuffled.

    Every seed then covers the input range the same way, so a run's
    figures depend on the seed much less than with plain draws.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def classify(lo: float, hi: float, ref: float, ref_err: float, tol: float) -> str:
    """Check a claimed enclosure [lo, hi] against ref +- ref_err.

    A bracket that no reference value can lie in misses. A miss by up
    to GROSS_MISS times tol, the accuracy the op asked for, is MISS;
    anything worse, or a malformed bracket, is WRONG.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        return WRONG
    gap = max(lo - (ref + ref_err), (ref - ref_err) - hi)
    if gap <= 0.0:
        return OK
    return MISS if gap <= GROSS_MISS * tol else WRONG


class Constants:
    """`constants` at its defaults, rendered as text, JSON and CSV."""

    name = "constants"
    SETUP_INPUT = None
    # Records that are enclosures (lo < hi) at the seed commit; the
    # others are bare values. Fixed by name so the width figure keeps
    # its meaning when a record changes kind.
    WIDTH_RECORDS = (
        "delta11_elementary",
        "delta11_refined",
        "hsum_thin_pair",
        "h_0_2eps2",
        "hs_0_4eps2",
        "w1_3678",
        "w2_2420",
        "delta04_sqrt2",
        "two_delta11",
    )
    # Record name -> (status, lo, hi) printed by `wpstrata constants
    # --format json` at the seed commit.
    SEED = {
        "delta11_elementary": ("reproduced", 6.572523603041586, 6.656024983184699),
        "delta11_refined": ("reproduced", 6.603960552668015, 6.604620951235697),
        "hsum_thin_pair": ("reproduced", 7.611384998458309, 7.61138500100601),
        "h_0_2eps2": ("reproduced", 3.2746691874671474, 3.274669190780274),
        "hs_0_4eps2": ("reproduced", 4.631081580050983, 4.6310815820031355),
        "w1_3678": ("reproduced", 10.765965090572596, 10.765965093682397),
        "w2_2420": ("reproduced", 10.096569881448058, 10.096569884314029),
        "delta04_sqrt2": ("reproduced", 9.294952018438693, 9.413040802713954),
        "two_delta11": ("reproduced", 13.145047206083172, 13.312049966369399),
        "gap_genus": ("reproduced", 0.9553600152736097, 0.9553600152736097),
        "gap_sphere": ("reproduced", 0.6835290787341037, 0.6835290787341037),
        "lipschitz_sys": ("reproduced", 2.004234641126507, 2.004234641126507),
        "c_min_ratio": ("reproduced", 0.9440259133912422, 0.9440259133912422),
        "pa_case_i2": ("mismatch", 1.0620466190803166, 1.0620466190803166),
        "pa_case_i1": ("mismatch", 1.569484391229756, 1.569484391229756),
        "pa_general": ("reproduced", 0.784742195614878, 0.784742195614878),
        "brock_bromberg_11": ("mismatch", 0.5398708252471472, 0.5398708252471472),
    }

    def inputs(self, seed: int) -> list:
        return [None]

    def op(self, _):
        records = cli.compute_constant_records()
        rendered = (
            cli._render_records_text(records),
            cli._render_records_json(records),
            cli._render_records_csv(records),
        )
        return records, rendered

    def summary(self, _, out):
        """(verdict, widths of WIDTH_RECORDS); checked now, as no
        reference is needed."""
        records, (text, js, csv_text) = out
        by_name = {r.name: r for r in records}
        if set(by_name) != set(self.SEED) or len(records) != len(self.SEED):
            return WRONG, ()
        widths = tuple(by_name[n].hi - by_name[n].lo for n in self.WIDTH_RECORDS)
        for name, (status, lo, hi) in self.SEED.items():
            r = by_name[name]
            if r.status != status or r.hi < lo or r.lo > hi:
                return WRONG, widths
        n = len(records) + 1
        rows = json.loads(js)["constants"]
        if ([row["name"] for row in rows] != [r.name for r in records]
                or len(text.splitlines()) != n or len(csv_text.splitlines()) != n):
            return WRONG, widths
        return OK, widths

    def references(self, inputs: list) -> list:
        return [None] * len(inputs)

    def check(self, _, summary, ref) -> str:
        return summary[0]

    def widths(self, _, summary) -> list[float]:
        return list(summary[1])


class Delta11L10:
    """`delta11_bracket(10, quad_tol)`, quad_tol log-uniform in [1e-8, 1e-6]."""

    name = "delta11-l10"
    SETUP_INPUT = 1e-7
    WORD_LENGTH = 10
    PASS = 16
    # delta11_bracket(12, 1e-6) at the seed commit.
    L12 = (6.604238722457195, 6.6044517639871305)

    def inputs(self, seed: int) -> list[float]:
        # One draw in each of 16 strata of log quad_tol, visited in
        # bit-reversed order: the ~3 passes a run makes end part-way
        # through one, and any prefix of this order still spans the
        # range evenly, so the timed ops' mix does not drift with the seed.
        rng = np.random.default_rng([seed, 2])
        jitter = rng.random(self.PASS)
        bits = self.PASS.bit_length() - 1  # PASS is a power of 2
        strata = [int(f"{k:0{bits}b}"[::-1], 2) for k in range(self.PASS)]
        return [float(10.0 ** (-8.0 + 2.0 * (j + jitter[j]) / self.PASS)) for j in strata]

    def op(self, quad_tol: float):
        return toruscoset.delta11_bracket(self.WORD_LENGTH, quad_tol)

    def references(self, inputs: list) -> list:
        import reference

        return [reference.delta11_elementary()] * len(inputs)

    def summary(self, _, br):
        return br.lo, br.hi

    def check(self, _, bracket, elementary) -> str:
        lo, hi = bracket
        e_lo, e_hi = elementary
        if not (e_lo <= lo <= hi <= e_hi):
            return WRONG
        if hi < self.L12[0] or lo > self.L12[1]:
            return WRONG
        return OK

    def widths(self, _, bracket) -> list[float]:
        return [bracket[1] - bracket[0]]


class HSweep:
    """Seeded `integral_H(a, b, variant, tol)` draws; no coset work."""

    name = "h-sweep"
    SETUP_INPUT = (0.0, 4.0 * EPS2, "plain", 1e-10)
    PASS = 6765  # a Fibonacci number, with LATTICE the one before it
    LATTICE = 4181
    VARIANTS = ("plain", "separating", "systole")
    B_MAX = 12.0

    def inputs(self, seed: int) -> list[tuple[float, float, str, float]]:
        # (b, log tol), which set an op's cost and width, come from a
        # randomly shifted Fibonacci lattice, so every seed spreads its
        # draws over that square, corners included, the same way.
        rng = np.random.default_rng([seed, 3])
        i = np.arange(self.PASS)
        shift_b, shift_t = rng.random(2)
        u_b = (i / self.PASS + shift_b) % 1.0
        u_t = (i * self.LATTICE / self.PASS + shift_t) % 1.0
        u_a = _stratified(rng, self.PASS)
        variant = rng.permutation(self.PASS) % 3
        out = []
        for k in rng.permutation(self.PASS):
            # Half the draws start at 0, the rest anywhere below 4 EPS2;
            # b runs up to 12, across the systole kink at L0 ~ 2.44.
            a = 0.0 if u_a[k] < 0.5 else float((2.0 * u_a[k] - 1.0) * 4.0 * EPS2)
            b = a + (self.B_MAX - a) * max(float(u_b[k]), 1e-6)
            tol = float(10.0 ** (-12.0 + 5.0 * u_t[k]))
            out.append((a, b, self.VARIANTS[variant[k]], tol))
        return out

    def op(self, x):
        a, b, variant, tol = x
        return integrals.integral_H(a, b, variant, tol)

    def references(self, inputs: list) -> list:
        import reference

        return reference.h_references([x[:3] for x in inputs])

    def summary(self, _, br):
        return br.lo, br.hi

    def check(self, x, bracket, ref) -> str:
        return classify(*bracket, *ref, x[3])

    def widths(self, _, bracket) -> list[float]:
        return [bracket[1] - bracket[0]]


class VerifyAll:
    """`wpstrata verify all`, in process."""

    name = "verify-all"
    SETUP_INPUT = None
    # Checks in `verify all` at the seed commit. A later change may add
    # checks, so the check asks for at least this many `ok` lines.
    MIN_OK = 27

    def inputs(self, seed: int) -> list:
        return [None]

    def op(self, _):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "all"])
        return rc, buf.getvalue()

    def summary(self, _, out) -> str:
        rc, text = out
        lines = text.splitlines()
        n_ok = sum(1 for line in lines if line.startswith("ok "))
        if rc != 0 or n_ok < self.MIN_OK or any(l.startswith("FAIL") for l in lines):
            return WRONG
        return OK

    def references(self, inputs: list) -> list:
        return [None] * len(inputs)

    def check(self, _, summary, ref) -> str:
        return summary

    def widths(self, _, summary) -> list[float]:
        # verify prints no bracket. Its width figure is that of the two
        # brackets it holds against published windows: the L = 8 delta11
        # bracket (refined_delta11) and H(0, 2 arcsinh 1) at 1e-8
        # (path_bracket_contract), with the arguments those checks use.
        t0 = 2.0 * math.asinh(1.0)
        return [
            toruscoset.delta11_bracket(8, 1e-6).width,
            integrals.integral_H(0.0, t0, "plain", 1e-8).width,
        ]


WORKLOADS = {w.name: w for w in (Constants(), Delta11L10(), HSweep(), VerifyAll())}
