"""The library names that the benchmark under perfbench/ reads, and the
constants it pins.

perfbench/ loads wpstrata through module attributes, and its tracer
skips a name it cannot find, so a renamed or removed name would first
show as a broken or silently empty benchmark run. These tests load its
two library-facing modules by path and check every such name here,
and that each H integrand reaches its envelope and the collar series
through the names the tracer patches.

The constants workload holds every record to the seed commit's output:
bare values bit for bit, enclosures meeting, statuses equal. A changed
bit would first show as an incorrect benchmark run; a test here applies
the workload's own check instead. The h-sweep workload has no such
record, so the last test pins integral_H brackets bit for bit: a change
to the scalar path that moves one fails here, not in a benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from wpstrata import cli, gradbounds, hyp2, integrals, riera, toruscoset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"constants", "delta11-l10", "h-sweep", "verify-all"}
    assert workloads.HSweep.SETUP_INPUT == _H_RECORDS[0][0]
    assert callable(cli.main)


def test_every_traced_name_exists(layers):
    for mod, attr, _ in layers.Tracer().patches():
        assert hasattr(mod, attr), f"{mod.__name__}.{attr}"
    assert {n for n, _ in cli._ALL_CHECKS} == set(layers.VERIFY_CHECKS)


def test_microbenchmark_names(layers):
    assert layers.UValue is hyp2.UValue
    riera.a_stable(1.0)
    riera.riera_R(hyp2.UValue(2.0, False))
    gradbounds.F_pair(1.0, 1.0)
    gradbounds.G_of(gradbounds.r_sys(1.0), gradbounds.r_sys(1.0))
    assert toruscoset._word_tables.__wrapped__(2) == toruscoset._word_tables(2)
    toruscoset.grad_sq_bracket(1.0, 2)
    integrals.integral_H(0.0, 4.0 * gradbounds.EPS2, "plain", 1e-6)



@pytest.mark.parametrize("variant", sorted(integrals._VARIANTS))
def test_integrands_run_through_the_traced_names(variant, monkeypatch):
    # perfbench's tracer and its wrong-envelope test patch
    # gradbounds._a_of_u, integrals.F_pair and integrals.G_of; an integrand
    # that reached the collar series or its envelope by another route
    # would hide from both
    integrand = integrals._VARIANTS[variant]
    envelope = "G_of" if variant == "systole" else "F_pair"
    for y in (0.5, 2.0, 3.4):  # y^2 <= 12
        value = integrand(y)
        with monkeypatch.context() as m:
            a_of_u = gradbounds._a_of_u
            m.setattr(gradbounds, "_a_of_u", lambda u: a_of_u(u) * (1.0 + 1e-8))
            assert integrand(y) != value, (variant, y)
        with monkeypatch.context() as m:
            calls = []
            f = getattr(integrals, envelope)
            m.setattr(integrals, envelope, lambda *args: calls.append(args) or f(*args))
            assert integrand(y) == value and len(calls) == 1, (variant, y)


def test_constants_keep_the_seed_records():
    constants = _load("workloads").WORKLOADS["constants"]
    verdict, widths = constants.summary(None, constants.op(None))
    assert verdict == "ok"
    assert len(widths) == len(constants.WIDTH_RECORDS)


# (a, b, variant, tol) -> lo, hi and error budget, recorded at commit
# 36cef04: the h-sweep set-up input, and one draw per variant at the
# sweep's tightest tol with b near its top, the systole one from a > 0.
_H_RECORDS = [
    (
        (0.0, 4.0 * gradbounds.EPS2, "plain", 1e-10),
        4.336715809540702,
        4.336715809573739,
        {"quadrature": 1.6490228858338333e-11, "series_tail": 2.816449145519726e-14, "evals": 449.0},
    ),
    (
        (0.0, 11.0, "plain", 1e-12),
        5.276460523855529,
        5.2764605238558895,
        {"quadrature": 1.309142536852955e-13, "series_tail": 4.9749371855330996e-14, "evals": 3105.0},
    ),
    (
        (0.0, 11.0, "separating", 1e-12),
        6.906213251622489,
        6.906213251623056,
        {"quadrature": 2.336445273365406e-13, "series_tail": 4.9749371855330996e-14, "evals": 1909.0},
    ),
    (
        (1.5, 11.0, "systole", 1e-12),
        4.940440906144026,
        4.940440906144493,
        {"quadrature": 2.018675157589023e-13, "series_tail": 3.137819878445716e-14, "evals": 1310.0},
    ),
]


@pytest.mark.parametrize("args, lo, hi, budget", _H_RECORDS, ids=["setup", "plain", "separating", "systole"])
def test_h_sweep_keeps_the_recorded_brackets(args, lo, hi, budget):
    br = integrals.integral_H(*args)
    assert (br.lo, br.hi, br.error_budget) == (lo, hi, budget)
