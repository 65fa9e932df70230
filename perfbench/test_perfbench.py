"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wpstrata import cli, gradbounds, integrals, riera, toruscoset  # noqa: E402


def test_shifted_bracket_is_counted_as_a_miss():
    w = workloads.WORKLOADS["h-sweep"]
    x = (0.0, 2.0 * gradbounds.EPS2, "plain", 1e-8)
    lo, hi = w.summary(x, w.op(x))
    ref = reference.h_references([x[:3]])[0]
    assert w.check(x, (lo, hi), ref) == workloads.OK
    value, err = ref
    width, tol = hi - lo, x[3]
    above = value + err + 0.1 * tol
    below = value - err - 0.1 * tol
    assert w.check(x, (above, above + width), ref) == workloads.MISS
    assert w.check(x, (below - width, below), ref) == workloads.MISS
    far = value + err + 2.0 * workloads.GROSS_MISS * tol
    assert w.check(x, (far, far + width), ref) == workloads.WRONG
    assert w.check(x, (math.nan, hi), ref) == workloads.WRONG


def test_h_reference_agrees_with_mpmath():
    for a, b, variant in ((0.0, 3.5, "plain"), (0.4, 9.0, "systole"), (1.0, 12.0, "separating")):
        value, err = reference.h_references([(a, b, variant)])[0]
        f = reference.h_integrand(variant)
        cuts = [math.sqrt(a), math.sqrt(b)]
        if variant == "systole":
            cuts.insert(1, math.sqrt(gradbounds.L0))
        other = float(sum(mpmath.quad(lambda y: f(float(y)), [y0, y1])
                          for y0, y1 in zip(cuts, cuts[1:])))
        assert abs(other - value) <= err


def test_envelopes_agree_with_mpmath():
    def mp_profile(u):
        return (2 * (1 + u * u) * mpmath.atanh(u) / u - 2) / (u * u)

    def mp_pair(p):
        s, c = mpmath.sinh(p / 2), mpmath.cosh(p / 2)
        return (mp_profile(mpmath.tanh(p / 4) ** 2) * (2 * c + 1) / (3 * (c + 1) ** 2)
                / (mpmath.atan(1 / s) * c * c + s) * s**3)

    def mp_systole(t):
        r = max(t / 4, mpmath.asinh(1 / mpmath.sinh(t / 2)))
        area = 2 * mpmath.atan(mpmath.sinh(r)) * mpmath.cosh(r) ** 2 + 2 * mpmath.sinh(r)
        return mp_profile(mpmath.exp(-2 * r)) * (mpmath.exp(-r) + mpmath.exp(-3 * r) / 3) / area

    with mpmath.workdps(60):
        for u in (1e-9, 0.01, 0.3, 0.5, 0.5000001, 0.6, 0.9, 0.999):
            assert reference.collar_profile(u) == pytest.approx(float(mp_profile(mpmath.mpf(u))),
                                                                rel=1e-14)
        for t in (1e-6, 0.1, 1.0, reference.L0, 3.0, 7.5, 12.0):
            mt = mpmath.mpf(t)
            assert reference.ENVELOPES["plain"](t) == pytest.approx(float(mp_pair(mt)), rel=1e-14)
            assert reference.ENVELOPES["separating"](t) == pytest.approx(
                float(mp_pair(mt / 2)), rel=1e-14)
            assert reference.ENVELOPES["systole"](t) == pytest.approx(
                float(mp_systole(mt)), rel=1e-14)
        kink = mpmath.mpf(reference.L0)
        assert abs(mpmath.sinh(kink / 4) * mpmath.sinh(kink / 2) - 1) < 1e-15


def _h_sweep_failures(draws) -> int:
    w = workloads.WORKLOADS["h-sweep"]
    refs = reference.h_references([x[:3] for x in draws])
    return sum(w.check(x, w.summary(x, w.op(x)), ref) != workloads.OK
               for x, ref in zip(draws, refs))


def test_wrong_envelope_values_are_caught(monkeypatch):
    draws = [(0.0, b, v, 1e-11) for b in (2.0 * gradbounds.EPS2, 9.0)
             for v in ("plain", "separating", "systole")]
    assert _h_sweep_failures(draws) == 0

    # An envelope off by one part in 1e8.
    f_pair = integrals.F_pair
    monkeypatch.setattr(integrals, "F_pair", lambda p, q: f_pair(p, q) * (1.0 + 1e-8))
    assert _h_sweep_failures(draws[:2] + draws[3:5]) == 4
    monkeypatch.undo()

    # A collar profile off by one part in 1e8, for every variant.
    a_of_u = gradbounds._a_of_u
    monkeypatch.setattr(gradbounds, "_a_of_u", lambda u: a_of_u(u) * (1.0 + 1e-8))
    assert _h_sweep_failures(draws) == len(draws)


def test_delta11_elementary_matches_word_length_zero():
    lo, hi = reference.delta11_elementary()
    br = toruscoset.delta11_bracket(0, 1e-10)
    assert abs(br.lo - lo) < 1e-9 and abs(br.hi - hi) < 1e-9


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.inputs(3) == w.inputs(3)
    for name in ("h-sweep", "delta11-l10"):
        w = workloads.WORKLOADS[name]
        assert w.inputs(3) != w.inputs(4)
    tols = workloads.WORKLOADS["delta11-l10"].inputs(7)
    assert all(1e-8 <= t <= 1e-6 for t in tols)
    for a, b, _, tol in workloads.WORKLOADS["h-sweep"].inputs(7):
        assert 0.0 <= a < b <= 12.0 and 1e-12 <= tol <= 1e-7


def test_installed_restores_every_name():
    names = [(cli, "integral_H"), (cli, "_ALL_CHECKS"), (integrals, "adaptive_simpson"),
             (toruscoset, "_coset_sums"), (gradbounds, "_a_of_u"), (riera, "a_hat"),
             (integrals, "F_pair"), (integrals, "G_of"), (toruscoset, "adaptive_simpson")]
    before = [getattr(m, n) for m, n in names]
    tracer = layers.Tracer()
    try:
        with layers.installed(tracer):
            assert all(getattr(m, n) is not b for (m, n), b in zip(names, before))
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    assert all(getattr(m, n) is b for (m, n), b in zip(names, before))


def test_traced_delta11_counts():
    tracer = layers.Tracer()
    with layers.installed(tracer):
        toruscoset.delta11_bracket(3, 1e-4)
    got = layers.layer_metrics(tracer, 1)
    calls = got["toruscoset.coset_sums.calls"]
    assert calls > 0 and got["toruscoset.coset_sums.words"] == calls * (3**3 - 1)
    assert got["integrals.adaptive_simpson.calls"] == 2
    assert 0.0 < got["toruscoset.delta11.cache_hit_ratio"] < 1.0
    names = [s[0] for s in tracer.spans]
    assert names.count("toruscoset.delta11_bracket") == 1
    top = names.index("toruscoset.delta11_bracket")
    assert all(s[3] >= top for s in tracer.spans[top + 1:])


def test_tail_has_ten_ops_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert sum(1 for x in lat if x > value) == 10 and pct == 90.0


def test_result_line_carries_every_metric(capsys):
    assert run.main(["--workload", "h-sweep", "--seed", "1", "--seconds", "0.3"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    # The counts cover one pass of the inputs, however short the run.
    assert last["attempted"] == workloads.HSweep.PASS and last["correct"] is True
