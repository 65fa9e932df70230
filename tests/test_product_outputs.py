"""The product outputs, byte for byte.

Each case runs cli.main in process and compares the sha256 of what it
writes, stdout or the plot files, with a recorded hash. The hashes are
this platform's libm bits, as test_benchmark_imports._H_RECORDS are: a
libm that rounds one call differently can move a byte. A change that
moves a byte on purpose re-records the hash here and names the record
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from wpstrata import cli

# (argv, exit code, sha256 of stdout); constants exits 1 for its three
# reported mismatches.
_STDOUT = [
    (["constants"], 1, "a9612be2cf7389f0f307705215858a04d1cb55ab85ae383fc8d254a9e824fcea"),
    (["constants", "--format", "json"], 1, "996bdd249ee53cf5dbe474d1b839e42049e1f49cc69afadffa588df7d4fcc536"),
    (["constants", "--format", "csv"], 1, "1de6e6d8f3508e804522c9e8246228fb25f541c4f2263cd03b5db8dc24f37ecb"),
    (["constants", "--tol", "1e-12"], 1, "e7f02ce33141563b63d6cb346b23913c1d8dce3a7a83bd0db051736f1509b99e"),
    (["delta11"], 0, "566a1e109b0cffa59be104ded730d07fad8b97f7c5733086b566b6f2bcfcca5a"),
    (
        ["delta11", "--max-word-length", "12", "--tol", "1e-8"],
        0,
        "1176055acbb5f9fd5700100129c8a54d8c31742031ef04e63537807eede68573",
    ),
    (["verify"], 0, "b374d688f708321f8bed095ccb7c096ed8585db6a115d93a293eb5c76885f36f"),
    (["verify", "all"], 0, "b374d688f708321f8bed095ccb7c096ed8585db6a115d93a293eb5c76885f36f"),
]

# plot at its defaults: sha256 of the SVG and of its CSV sidecar
_PLOTS = {
    "hsys-ratio": (
        "d5c187b5edf13f82422cb6e279254ea8faa10ee200562d01ee7a71f8a36cc092",
        "feee189861c1174dee9d1702451d62962ec5fd6f9a36cba99f2ae8d24b2c6b13",
    ),
    "h-vs-k": (
        "b4f250026e135f2bdc3685f709fa03c8bd1f1d2cffdccf12f2abcc20eda54c03",
        "dce1ac15a12bdb8cdd324ac9f44305555470a8d2b4e63ad8c889c5091f89bbed",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, code, digest", _STDOUT, ids=[" ".join(c[0]) for c in _STDOUT])
def test_stdout_is_byte_identical(argv, code, digest, capsys):
    assert cli.main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("which", sorted(_PLOTS))
def test_plot_files_are_byte_identical(which, tmp_path, capsys):
    svg = tmp_path / f"{which}.svg"
    assert cli.main(["plot", which, "--out", str(svg)]) == 0
    assert capsys.readouterr().out == f"wrote {svg} and {svg.with_suffix('.csv')}\n"
    assert (_sha256(svg.read_bytes()), _sha256(svg.with_suffix(".csv").read_bytes())) == _PLOTS[which]
