"""End-to-end checks of the command line interface."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import wpstrata
from wpstrata import cli
from wpstrata.cli import compute_constant_records, main
from wpstrata.gradbounds import u_factor
from wpstrata.integrals import c_ratios, integral_H, integral_K
from wpstrata.riera import a_of_T, a_stable

EXPECTED_NAMES = [
    "delta11_elementary",
    "delta11_refined",
    "hsum_thin_pair",
    "h_0_2eps2",
    "hs_0_4eps2",
    "w1_3678",
    "w2_2420",
    "delta04_sqrt2",
    "two_delta11",
    "gap_genus",
    "gap_sphere",
    "lipschitz_sys",
    "c_min_ratio",
    "pa_case_i2",
    "pa_case_i1",
    "pa_general",
    "brock_bromberg_11",
]

# The comparisons that genuinely disagree with the published decimals.
KNOWN_MISMATCHES = {"pa_case_i2", "pa_case_i1", "brock_bromberg_11"}


@pytest.fixture(scope="module")
def records():
    return compute_constant_records()


class TestRecords:
    def test_names_and_order(self, records):
        assert [r.name for r in records] == EXPECTED_NAMES

    def test_statuses(self, records):
        by_name = {r.name: r for r in records}
        mismatched = {r.name for r in records if r.status == "mismatch"}
        assert mismatched == KNOWN_MISMATCHES
        assert by_name["delta11_elementary"].status == "reproduced"
        assert by_name["delta11_refined"].status == "reproduced"

    def test_provenance_split(self, records):
        derived = {r.name for r in records if r.provenance == "derived"}
        assert derived == {"brock_bromberg_11"}
        assert all(r.provenance in ("paper", "derived") for r in records)

    def test_bracket_sanity(self, records):
        for r in records:
            assert r.lo <= r.hi
            assert r.paper


class TestComparisonRule:
    """_reproduces and its digit helpers on literal cases, each rule
    under a stub entry rather than a published one."""

    def test_trunc_toward_zero(self):
        assert cli._trunc_str(1.234569) == "1.23456"
        assert cli._trunc_str(0.999999) == "0.99999"
        assert cli._trunc_str(2.0) == "2.00000"
        assert cli._trunc_str(-1.234569) == "-1.23456"
        assert cli._trunc_str(-1e-7) == "-0.00000"
        # an ulp under a decimal that is no float truncates below it
        assert cli._trunc_str(math.nextafter(2.81783, 0.0)) == "2.81782"

    def test_ceil_at_and_past_a_decimal(self):
        assert cli._ceil_str(0.5) == "0.50000"
        assert cli._ceil_str(math.nextafter(0.5, 1.0)) == "0.50001"
        assert cli._ceil_str(1.234561) == "1.23457"
        assert cli._ceil_str(-1.234569) == "-1.23456"
        assert cli._ceil_str(math.nextafter(2.81783, 3.0)) == "2.81784"

    def _rule(self, monkeypatch, paper, rule):
        monkeypatch.setitem(cli._PUBLISHED, "stub", (paper, rule, "paper"))
        return lambda lo, hi: cli._reproduces("stub", lo, hi)

    def test_enclosure(self, monkeypatch):
        ok = self._rule(monkeypatch, "(1.23456, 2.34567)", "enclosure")
        assert ok(1.234569, 2.345661)
        assert not ok(1.234559, 2.345661)  # lo truncates below
        assert not ok(1.234569, 2.345671)  # hi rounds up past

    def test_window_slack_at_both_edges(self, monkeypatch):
        ok = self._rule(monkeypatch, "[1.00000, 2.00000]", "window")
        assert ok(1.0 - 1e-5, 2.0 + 1e-5)
        assert not ok(math.nextafter(1.0 - 1e-5, 0.0), 1.5)
        assert not ok(1.5, math.nextafter(2.0 + 1e-5, 3.0))

    def test_lower(self, monkeypatch):
        ok = self._rule(monkeypatch, "0.94", "lower")
        assert ok(0.95, 5.0)
        # the float nearest 0.94 lies below it; the next one up does not
        assert not ok(0.94, 5.0)
        assert ok(math.nextafter(0.94, 1.0), 5.0)

    def test_trunc_of_the_midpoint(self, monkeypatch):
        ok = self._rule(monkeypatch, "3.27466", "trunc")
        assert ok(3.274659, 3.274671)  # neither end alone truncates to it
        assert not ok(3.274649, 3.274659)

    @pytest.mark.parametrize("paper", [".53724", "0.53724"])
    def test_trunc_ignores_leading_zeros(self, monkeypatch, paper):
        ok = self._rule(monkeypatch, paper, "trunc")
        assert ok(0.537249, 0.537249)
        assert not ok(0.537251, 0.537251)

    def test_every_published_string_parses_under_its_rule(self):
        decimal = r"-?\d*\.\d+"
        forms = {
            "enclosure": rf"\(({decimal}), ({decimal})\)",
            "window": rf"\[({decimal}), ({decimal})\]",
            "lower": rf"({decimal})",
            "trunc": rf"({decimal})",
        }
        assert list(cli._PUBLISHED) == EXPECTED_NAMES
        for name, (paper, rule, provenance) in cli._PUBLISHED.items():
            m = re.fullmatch(forms[rule], paper)
            assert m, (name, paper, rule)
            ends = [float(x) for x in m.groups()]
            assert ends == sorted(ends)
            assert provenance in ("paper", "derived")
            assert isinstance(cli._reproduces(name, ends[0], ends[-1]), bool)


class TestConstantsCommand:
    def test_text_output_and_exit(self, capsys):
        rc = main(["constants"])
        out = capsys.readouterr().out
        # honest exit: the point-pushing decimals do not reproduce
        assert rc == 1
        for name in EXPECTED_NAMES:
            assert name in out
        assert out.splitlines()[0].startswith("name")

    def test_json_schema(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        rc = main(["constants", "--format", "json", "--out", str(path)])
        assert rc == 1
        assert capsys.readouterr().out == ""
        payload = json.loads(path.read_text())
        assert set(payload) == {"constants"}
        rows = payload["constants"]
        assert [row["name"] for row in rows] == EXPECTED_NAMES
        for row in rows:
            assert set(row) == {"name", "lo", "hi", "paper", "status"}
            assert isinstance(row["lo"], float) and isinstance(row["hi"], float)

    def test_csv_header(self, tmp_path):
        path = tmp_path / "constants.csv"
        main(["constants", "--format", "csv", "--out", str(path)])
        lines = path.read_text().splitlines()
        assert lines[0] == "name,lo,hi,paper,status"
        assert len(lines) == 1 + len(EXPECTED_NAMES)


class TestDeltaCommand:
    def test_consistent(self, capsys):
        rc = main(["delta11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "consistent" in out and "inconsistent" not in out

    def test_json_form(self, tmp_path):
        path = tmp_path / "d.json"
        rc = main(["delta11", "--format", "json", "--out", str(path)])
        assert rc == 0
        row = json.loads(path.read_text())["constants"][0]
        assert row["name"] == "delta11"
        assert row["status"] == "consistent"
        assert 6.5 < row["lo"] <= row["hi"] < 6.7


class TestPlotCommand:
    def test_ratio_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["plot", "hsys-ratio", "--samples", "16", "--out", str(a)]) == 0
        assert main(["plot", "hsys-ratio", "--samples", "16", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_ratio_csv_contents(self, tmp_path, capsys):
        path = tmp_path / "ratio.svg"
        main(["plot", "hsys-ratio", "--samples", "16", "--out", str(path)])
        capsys.readouterr()
        lines = (tmp_path / "ratio.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 1 + 16
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert min(values) >= 0.94
        assert max(values) <= 1.0 + 1e-12

    def test_h_vs_k_csv(self, tmp_path, capsys):
        path = tmp_path / "hk.svg"
        main(["plot", "h-vs-k", "--samples", "16", "--out", str(path)])
        capsys.readouterr()
        lines = (tmp_path / "hk.csv").read_text().splitlines()
        assert lines[0] == "t,H,K"
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and float(first[2]) == 0.0
        for line in lines[2:]:
            _, h, k = (float(x) for x in line.split(","))
            assert h <= k

    def test_svg_structure(self, tmp_path, capsys):
        path = tmp_path / "hk.svg"
        main(["plot", "h-vs-k", "--samples", "16", "--out", str(path)])
        capsys.readouterr()
        svg = path.read_text()
        assert svg.startswith("<svg ")
        assert 'viewBox="0 0 800 600"' in svg
        assert svg.count("<polyline ") == 2
        assert svg.rstrip().endswith("</svg>")

    # sha256 of each SVG at --samples 16. Every coordinate is rounded
    # to two places, so unlike the sidecars' full-precision floats these
    # bytes should not move with the platform's libm.
    @pytest.mark.parametrize(
        "which, digest",
        [
            ("hsys-ratio", "cf1015255390f671c52bc096bb868969349ca749edd0f7a7780133bd2bf891d5"),
            ("h-vs-k", "89348a061db28b6b366c4dc14681dcabb704abee0b45905c2698b42479000302"),
        ],
    )
    def test_svg_bytes(self, tmp_path, capsys, which, digest):
        path = tmp_path / "p.svg"
        main(["plot", which, "--samples", "16", "--out", str(path)])
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_sidecar_values(self, tmp_path, capsys):
        # the sidecars hold full-precision floats, so they are checked
        # against the library by value rather than by bytes
        main(["plot", "hsys-ratio", "--samples", "16", "--out", str(tmp_path / "r.svg")])
        main(["plot", "h-vs-k", "--samples", "16", "--out", str(tmp_path / "k.svg")])
        capsys.readouterr()
        ratio = [[float(x) for x in line.split(",")] for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
        assert [t for t, _ in ratio] == np.logspace(-3.0, 2.0, 16).tolist()
        assert all(v == c_ratios([t], 1e-6)[0] for t, v in ratio)
        hk = [[float(x) for x in line.split(",")] for line in (tmp_path / "k.csv").read_text().splitlines()[1:]]
        assert [t for t, _, _ in hk] == np.linspace(0.0, 10.0, 16).tolist()
        assert hk[0] == [0.0, 0.0, 0.0]
        for t, h, k in hk[1:]:
            assert h == integral_H(0.0, t, "plain", 1e-6).midpoint and k == integral_K(0.0, t)

    def test_default_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["plot", "hsys-ratio", "--samples", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "plot.svg").exists()
        assert (tmp_path / "plot.csv").exists()
        assert "plot.svg" in out and "plot.csv" in out

    def test_samples_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "hsys-ratio", "--samples", "8"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerifyCommand:
    def test_fast_suite(self, capsys):
        # the whole suite is the quick one: "verify all" runs all 27 checks
        rc = main(["verify", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        ok_lines = [l for l in out.splitlines() if l.startswith("ok ")]
        assert len(ok_lines) == 27
        assert out.endswith("27 passed, 0 failed\n")
        assert "FAIL" not in out

    def test_default_suite_is_fast(self, capsys):
        # "verify" with no argument runs the same one suite as "verify all"
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out == out
        assert out.endswith("27 passed, 0 failed\n")

    def test_raising_check_is_reported_and_the_run_goes_on(self, monkeypatch, capsys):
        def raises() -> None:
            raise ValueError("commutator error 1e-9")

        monkeypatch.setattr(cli, "_ALL_CHECKS", [("raises", raises), ("passes", lambda: None)])
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out == "FAIL raises: ValueError: commutator error 1e-9\nok passes\n1 passed, 1 failed\n"

    def test_one_refined_bracket_per_run(self, monkeypatch, capsys):
        # refined_delta11 and path_bracket_contract share one bracket in a
        # run; nothing outlives the run, and a check alone builds its own.
        calls = []
        build = cli.delta11_bracket

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "delta11_bracket", counting)
        for runs in (1, 2):
            assert main(["verify", "all"]) == 0
            assert calls.count((8, 1e-6)) == runs and cli._verify_run is None
        cli._verify_refined_delta11()
        cli._verify_path_bracket_contract()
        assert calls.count((8, 1e-6)) == 4
        capsys.readouterr()

    def test_an_interrupted_run_drops_its_bracket(self, monkeypatch):
        def interrupted() -> None:
            cli._verify_refined_delta11()
            assert set(cli._verify_run) == {"refined"}
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_ALL_CHECKS", [("interrupted", interrupted)])
        with pytest.raises(KeyboardInterrupt):
            main(["verify"])
        assert cli._verify_run is None


_PROFILE_GRID = np.logspace(-6.0, math.log10(50.0), 40).tolist()


class TestCollarProfileCheck:
    """verify's collar_profile on a_stable over its grid, and a_of_T
    against it from T = 0.51 on, each broken in one place."""

    def _fails_alone(self, monkeypatch, capsys, name, fn, message):
        monkeypatch.setattr(cli, name, fn)
        assert main(["verify", "all"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FAIL")] == [f"FAIL collar_profile: {message}"]

    def test_a_value_over_the_pinch(self, monkeypatch, capsys):
        T0 = _PROFILE_GRID[0]
        lifted = (8.0 / 3.0 - 2.0 * math.log1p(-math.exp(-2.0 * T0))) * (1.0 + 1e-9)
        profile = lambda T: lifted if T == T0 else a_stable(T)
        self._fails_alone(monkeypatch, capsys, "a_stable", profile, f"a(T) outside pinch at T={T0}")

    def test_two_neighbours_swapped(self, monkeypatch, capsys):
        T1, T2 = _PROFILE_GRID[10:12]
        assert T2 < 0.51  # the closed form, away from the a_of_T comparison
        swap = {T1: T2, T2: T1}
        profile = lambda T: a_stable(swap.get(T, T))
        self._fails_alone(monkeypatch, capsys, "a_stable", profile, f"a(T) increasing at T={T2}")

    def test_series_one_ulp_off(self, monkeypatch, capsys):
        T0 = next(T for T in _PROFILE_GRID if T >= 0.51)
        series = lambda T: math.nextafter(a_of_T(T), math.inf) if T == T0 else a_of_T(T)
        self._fails_alone(monkeypatch, capsys, "a_of_T", series, f"a_of_T != a_stable at T={T0}")


# [z0, z1] x [w0, w1] as the envelope proof names a failing box
_BOX = re.compile(r"envelope cap fails on \[(.+), (.+)\] x \[(.+), (.+)\]$")


def _failing_box(slack: float) -> tuple[float, ...]:
    with pytest.raises(AssertionError) as exc:
        cli._prove_envelope_cap(slack)
    return tuple(float(x) for x in _BOX.match(str(exc.value)).groups())


class TestGridChecks:
    def test_false_cap_is_refused_at_the_corner(self):
        # The ratio at (1e-4, 1e-4) is 2.9e-9 below 4 / 3 pi: a cap 1e-9
        # under it is proved, one 1e-8 under it is refused there.
        cli._prove_envelope_cap(-1e-9)
        z0, z1, w0, w1 = _failing_box(-1e-8)
        assert z0 <= 1e-4 <= z1 and w0 <= 1e-4 <= w1

    def test_a_factor_that_blows_up_names_its_range(self, monkeypatch):
        monkeypatch.setattr(cli, "u_factor", lambda z: 1e300 if 1.0 <= z <= 2.0 else u_factor(z))
        z0, z1, w0, w1 = _failing_box(1e-12)
        assert 1.0 <= z0 <= 2.0 and z0 < z1 and z0 < w1

    def test_a_broken_factor_fails_the_verify_run(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "u_factor", lambda z: 1e300 if 1.0 <= z <= 2.0 else u_factor(z))
        assert main(["verify", "all"]) == 1
        out = capsys.readouterr().out.splitlines()
        for name in ("envelope_grid", "auv_cap"):
            assert any(line.startswith(f"FAIL {name}: envelope cap fails on [") for line in out)

    @pytest.mark.parametrize("size", [200, 60])
    def test_f_pair_is_the_factor_product(self, size):
        # The proof bounds the factors F_pair is built from; on the grids
        # the sampled checks ran, F_pair is at most their product as the
        # proof pads it, at the one-point box (z, w). Raising u by 2^-48
        # covers the rounding of the tanh product, which F_pair avoids
        # where it takes the radius sum from the lengths (u above tanh^2 3).
        zs = np.logspace(-4.0, math.log10(40.0), size).tolist()
        for i, z in enumerate(zs):
            for w in zs[i:]:
                bound = cli._envelope_ratio_bound(z, z, w, w) * math.sinh(0.5 * z) * math.sinh(0.5 * w) ** 2
                assert cli.F_pair(z, w) <= bound, (z, w)

    def test_factors_are_monotone(self):
        # In 60 digits on dense grids: a(T) = a_hat(e^-T) falls in T over
        # every T the proof meets, so a rises in u; uf and vf fall over
        # [1e-4, 40 + 1 ulp].
        mp = mpmath.mp.clone()
        mp.dps = 60

        def a(T):
            return mp.exp(2 * T) * (2 * mp.cosh(T) * mp.log(mp.coth(T / 2)) - 2)

        def uf(z):
            c = mp.cosh(z / 2)
            return (2 * c + 1) / (3 * (c + 1) ** 2)

        def vf(w):
            s, c = mp.sinh(w / 2), mp.cosh(w / 2)
            return 1 / (mp.atan(1 / s) * c * c + s)

        ts = [mp.mpf(float(t)) for t in np.logspace(-9.0, math.log10(25.0), 1500)]
        ls = [mp.mpf(float(x)) for x in np.logspace(-4.0, math.log10(40.0), 1500)]
        assert ls[0] == 1e-4 and ls[-1] == math.nextafter(40.0, math.inf)
        for f, xs in ((a, ts), (uf, ls), (vf, ls)):
            ys = [f(x) for x in xs]
            assert all(y1 < y0 for y0, y1 in zip(ys, ys[1:])), f.__name__


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta11", "--max-word-length", "-3"],
            ["delta11", "--max-word-length", "15"],
            ["delta11", "--max-word-length", "2.5"],
            ["delta11", "--tol", "0"],
            ["delta11", "--tol", "nan"],
            ["delta11", "--tol", "inf"],
            ["delta11", "--tol", "abc"],
            ["constants", "--tol", "-1e-8"],
            # options that are gone
            ["constants", "--max-word-length", "8"],
            ["verify", "fast"],
            ["plot", "h-vs-k", "--tol", "nan"],
            ["plot", "hsys-ratio", "--samples", "8"],
            ["plot", "hsys-ratio", "--samples", "100001"],
            ["plot", "hsys-ratio", "--samples", "abc"],
            # an --out into a missing directory is refused when written
            ["constants", "--out", "{missing}"],
            ["delta11", "--max-word-length", "0", "--out", "{missing}"],
            ["plot", "hsys-ratio", "--samples", "16", "--out", "{missing}"],
            # a --tol the quadrature cannot reach is refused when it fails
            ["constants", "--tol", "1e-300"],
            ["delta11", "--tol", "1e-300", "--max-word-length", "0"],
            ["plot", "h-vs-k", "--tol", "1e-300"],
        ],
    )
    def test_bad_option_values_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        # refused with one error: line and no traceback: by the parser
        # before any work is done, or, for --out and a --tol out of the
        # quadrature's reach, when the command meets them
        monkeypatch.chdir(tmp_path)
        argv = [a.replace("{missing}", str(tmp_path / "missing" / "x.svg")) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (tmp_path / "missing").exists()

    def test_other_runtime_errors_still_raise(self, monkeypatch):
        # only the quadrature's non-convergence is a usage error
        def crossed(*args):
            raise RuntimeError("distance bracket collapsed, bounds crossed")

        monkeypatch.setattr(cli, "delta11_bracket", crossed)
        with pytest.raises(RuntimeError, match="bounds crossed"):
            main(["delta11", "--max-word-length", "0"])

    # Bad values for every value-taking option of every subcommand. --out
    # takes any path; one that cannot be written is refused when it is
    # written, after the work (test_bad_option_values_exit_2).
    _BAD_VALUES = {
        ("constants", "--tol"): ["abc", "0", "-1e-8", "nan", "inf", "1e999", "5e-324"],
        ("constants", "--format"): ["xml"],
        ("delta11", "--tol"): ["abc", "0", "-1e-6", "nan", "-inf", "5e-324"],
        ("delta11", "--max-word-length"): ["-3", "15", "1e3", ""],
        ("delta11", "--format"): ["TEXT"],
        ("plot", "which"): ["h-vs-t"],
        ("plot", "--samples"): ["8", "15", "100001", "100000000000", "abc", "16.0"],
        ("plot", "--tol"): ["nan", "0", "abc", "5e-324"],
        ("plot", "--out"): ["x.csv"],
        ("verify", "suite"): ["slow", "fast"],
    }

    def test_every_option_is_checked_before_any_command_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def refuse(args):
            raise AssertionError(f"{args.command} ran with {args}")

        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            monkeypatch.setattr(cli, name, refuse)
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = set()
        for command, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.nargs != 0:
                    options.add((command, action.option_strings[0] if action.option_strings else action.dest))
        assert options - {("constants", "--out"), ("delta11", "--out")} == set(self._BAD_VALUES)
        positional = {"plot": ["hsys-ratio"]}
        for (command, option), values in self._BAD_VALUES.items():
            for value in values:
                if option.startswith("--"):
                    argv = [command] + positional.get(command, []) + [option, value]
                else:
                    argv = [command, value]
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2, argv
                assert "error:" in capsys.readouterr().err

    def test_readme_usage_lines_match_the_parser(self):
        # each ``` usage line of README's "Command line" section names the
        # --options and positional choices its subcommand's parser has
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in re.findall(r"^```\n(wpstrata .*)\n```$", section, re.M):
            _, command, *words = line.split()
            rest = " ".join(words)
            options = set(re.findall(r"--[\w-]+", rest))
            bare = re.sub(r"\[?--[\w-]+(?: [^\s\]]+)?\]?", " ", rest)
            choices = {c for word in bare.split() for c in word.strip("[]").split("|")}
            documented[command] = (options, choices)
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {}
        for command, sub in subparsers.choices.items():
            options = {o for a in sub._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
            choices = {c for a in sub._actions if not a.option_strings for c in a.choices}
            parsed[command] = (options, choices)
        assert documented == parsed

    def test_module_invocation(self, tmp_path):
        # the module runs standalone with the documented exit semantics;
        # an absolute path to the imported package keeps it importable from
        # tmp_path when the inherited PYTHONPATH is relative
        package_root = str(Path(wpstrata.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
        proc = subprocess.run(
            [sys.executable, "-m", "wpstrata.cli", "delta11", "--max-word-length", "0", "--tol", "1e-8"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0
        assert "delta11" in proc.stdout
