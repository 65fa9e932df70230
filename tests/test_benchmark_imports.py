"""The library names that the benchmark under perfbench/ reads, and the
constants it pins.

perfbench/ loads wpstrata through module attributes, and its tracer
skips a name it cannot find, so a renamed or removed name would first
show as a broken or silently empty benchmark run. These tests load its
two library-facing modules by path and check every such name here.

The constants workload holds every record to the seed commit's output:
bare values bit for bit, enclosures meeting, statuses equal. A changed
bit would first show as an incorrect benchmark run; the last test here
applies the workload's own check instead.
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



def test_constants_keep_the_seed_records():
    constants = _load("workloads").WORKLOADS["constants"]
    verdict, widths = constants.summary(None, constants.op(None))
    assert verdict == "ok"
    assert len(widths) == len(constants.WIDTH_RECORDS)
