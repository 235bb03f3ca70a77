from __future__ import annotations

import codecs
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import negbound
from negbound import (
    Hirzebruch,
    ParseError,
    ProjectivePlane,
    SurfaceModel,
    build_configuration,
    parse_configuration,
    serialize_configuration,
)
from negbound.cli import format_rational, main
from conftest import REPO_ROOT

SINGLETON = "surface p2\n1 origin\n"


def surface_from_json_fields(data: dict) -> SurfaceModel:
    kind = data.get("surface")
    if kind == "p2":
        return ProjectivePlane()
    if kind == "f":
        return Hirzebruch(int(data["delta"]))
    raise ParseError(f"invalid surface fields {data!r}")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_env() -> dict:
    """The environment of a fresh interpreter on the checkout's src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_python(args, cwd=None, text=False) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter on the checkout's src/."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=python_env(),
                          capture_output=True, text=text, timeout=60)


def run_process(argv):
    """Run the CLI in a fresh interpreter, so a traceback would show."""
    return run_python(["-m", "negbound.cli", *argv], text=True)


class TestAnalyze:
    def test_human_output(self, capsys, sample12_path):
        code, out, err = run(capsys, ["analyze", str(sample12_path)])
        assert code == 0
        assert "gamma: 4" in out
        assert "origins: 1 6 10" in out

    def test_json_roundtrip(self, capsys, sample12_path, sample12):
        code, out, _ = run(capsys, ["analyze", str(sample12_path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["gamma"] == 4
        rebuilt = build_configuration(
            [(p["id"], p["proximities"]) for p in data["points"]],
            surface_from_json_fields(data))
        assert parse_configuration(serialize_configuration(rebuilt)) == sample12

    def test_json_roundtrip_with_surface_override(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["analyze", str(sample12_path), "--json",
                                    "--surface", "f 2"])
        assert code == 0
        data = json.loads(out)
        assert data["surface"] == "f" and data["delta"] == 2
        rebuilt = build_configuration(
            [(p["id"], p["proximities"]) for p in data["points"]],
            surface_from_json_fields(data))
        assert parse_configuration(serialize_configuration(rebuilt)) == rebuilt

    def test_singleton(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SINGLETON)
        code, out, _ = run(capsys, ["analyze", str(cfg)])
        assert code == 0
        assert "points: 1" in out
        assert "gamma: 1" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("surface p2\n1 origin\n2 -> 7\n")
        code, out, err = run(capsys, ["analyze", str(bad)])
        assert code == 1
        assert "error:" in err
        assert "bad.cfg:3" in err

    @pytest.mark.parametrize("text, line", [
        ("surface p2\u20281 origin\u20282 -> 1\n", 1),
        ("surface p2\n1 origin\x0c\n2 -> 5\n", 3),
    ], ids=["u2028", "ff"])
    def test_only_newlines_end_a_line(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["analyze", str(bad)])
        assert code == 1 and out == ""
        assert f"bad.cfg:{line}:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in err


class TestDvalue:
    def test_json_report(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["dvalue", str(sample12_path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["total_d"] == 23
        assert [(e["id"], e["d"], e["hat_size"]) for e in data["origins"]] == \
            [(1, 10, 6), (6, 7, 5), (10, 6, 5)]

    def test_singleton(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SINGLETON)
        code, out, _ = run(capsys, ["dvalue", str(cfg)])
        assert code == 0
        assert "origin 1: d = 2" in out
        assert "total d: 2" in out

    def test_interpreter_without_digit_cap(self, capsys, monkeypatch,
                                           sample12_path):
        # Python 3.10.0-3.10.6 has no cap on int/str conversion, and so no
        # sys.set_int_max_str_digits to lift it with.
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        code, out, err = run(capsys, ["dvalue", str(sample12_path)])
        assert code == 0, err
        assert "total d: 23" in out

    def test_two_singletons(self, capsys, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("surface p2\n1 origin\n2 origin\n")
        code, out, _ = run(capsys, ["dvalue", str(cfg)])
        assert code == 0
        assert "total d: 4" in out


class TestBounds:
    def test_pullback_example_convention(self, capsys, sample12_path):
        code, out, err = run(capsys, ["bounds", str(sample12_path),
                                      "--pullback", "--n-convention", "example"])
        assert code == 0
        assert "= -43" in out   # 3 - 2d
        assert "= -345" in out  # d(1 - n)
        assert "bound: -345" in out
        assert "warning" in err and "disagree" in err

    def test_pullback_ruled_override(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["bounds", str(sample12_path), "--pullback",
                                    "--n-convention", "example",
                                    "--surface", "f 3"])
        assert code == 0
        assert "= -47" in out   # 2 - 2d - delta
        assert "= -19" in out   # -n - delta
        assert "bound: -1840" in out

    def test_epsilon_stated(self, capsys, sample12_path):
        code, out, err = run(capsys, ["bounds", str(sample12_path),
                                      "--epsilon", "1"])
        assert code == 0
        assert "bound: -253" in out
        assert "warning" in err

    def test_epsilon_fractional_rendering(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["bounds", str(sample12_path),
                                    "--epsilon", "3"])
        assert code == 0
        assert "-43/3 (-14.3333)" in out

    def test_json_schema(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["bounds", str(sample12_path),
                                    "--epsilon", "1/2", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["epsilon"] == "1/2"
        assert data["bound"] == -506
        assert data["n_stated"] == 12 and data["n_example"] == 16
        assert {t["name"] for t in data["terms"]} == \
            {"(3-2d)/eps", "d(1-n)/eps", "-gamma"}

    def test_epsilon_required_without_pullback(self, capsys, sample12_path):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [["--pullback", "--epsilon", "1/2"],
                                       ["--epsilon", "3", "--pullback"]])
    def test_epsilon_with_pullback_is_usage_error(self, capsys, sample12_path,
                                                  extra):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path), *extra])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--epsilon cannot be combined with --pullback" in err

    @pytest.mark.parametrize("extra, message", [
        ([], "--epsilon is required unless --pullback is given"),
        (["--pullback", "--epsilon", "1/2"],
         "--epsilon cannot be combined with --pullback")],
        ids=["missing", "combined"])
    def test_epsilon_usage_errors_print_the_bounds_usage(
            self, capsys, sample12_path, extra, message):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path), *extra])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: negbound bounds ")
        assert err.endswith(f"\nnegbound bounds: error: {message}\n")

    def test_nonpositive_epsilon_is_validation_error(self, capsys, sample12_path):
        code, _, err = run(capsys, ["bounds", str(sample12_path),
                                    "--epsilon", "0"])
        assert code == 1
        assert "error:" in err

    def test_malformed_epsilon_is_usage_error(self, capsys, sample12_path):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path), "--epsilon", "abc"])
        assert exc.value.code == 2

    def test_non_ascii_epsilon_is_usage_error(self, capsys, sample12_path):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path), "--epsilon", "\u0661/\u0662"])
        assert exc.value.code == 2

    # 3/10^400: the terms divided by it lie far outside the float range.
    HUGE_EPSILON = "3/1" + "0" * 400

    def test_huge_epsilon_denominator_text(self, sample12_path):
        proc = run_process(["bounds", str(sample12_path),
                            "--epsilon", self.HUGE_EPSILON])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        term = Fraction(3 - 2 * 23) / Fraction(self.HUGE_EPSILON)
        assert f"epsilon: {self.HUGE_EPSILON} (3e-400)\n" in proc.stdout
        assert f"(3-2d)/eps = {term} (-1.43333e+401)\n" in proc.stdout

    def test_huge_epsilon_denominator_json(self, sample12_path):
        proc = run_process(["bounds", str(sample12_path),
                            "--epsilon", self.HUGE_EPSILON, "--json"])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["epsilon"] == self.HUGE_EPSILON
        terms = {t["name"]: t["value"] for t in data["terms"]}
        assert terms["(3-2d)/eps"] == \
            str(Fraction(3 - 2 * 23) / Fraction(self.HUGE_EPSILON))

    # 3/10^4299: each term divided by it has 4301 or more digits, past the
    # interpreter's default cap on int/str conversion.
    OVER_CAP_EPSILON = "3/1" + "0" * 4299

    def test_results_over_the_digit_cap_text(self, capsys, sample12_path):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["bounds", str(sample12_path),
                                      "--epsilon", self.OVER_CAP_EPSILON])
        assert code == 0, err
        zeros = "0" * 4299
        assert f"epsilon: {self.OVER_CAP_EPSILON} (3e-4299)\n" in out
        assert f"(3-2d)/eps = -43{zeros}/3 (-1.43333e+4300)\n" in out
        assert f"d(1-n)/eps = -253{zeros}/3 (-8.43333e+4300)\n" in out
        assert f"bound: -253{zeros}/3 (-8.43333e+4300)\n" in out
        assert sys.get_int_max_str_digits() == limit

    def test_results_over_the_digit_cap_json(self, capsys, sample12_path):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["bounds", str(sample12_path), "--json",
                                      "--epsilon", self.OVER_CAP_EPSILON])
        assert code == 0, err
        data = json.loads(out)
        zeros = "0" * 4299
        assert data["epsilon"] == self.OVER_CAP_EPSILON
        assert [(t["name"], t["value"]) for t in data["terms"]] == [
            ("(3-2d)/eps", f"-43{zeros}/3"), ("d(1-n)/eps", f"-253{zeros}/3"),
            ("-gamma", -4)]
        assert data["bound"] == f"-253{zeros}/3"
        assert sys.get_int_max_str_digits() == limit


class TestNu:
    def test_undefined_on_singleton(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SINGLETON)
        curves = tmp_path / "curves.txt"
        curves.write_text("1E1\n")
        code, out, _ = run(capsys, ["nu", str(cfg), "--divisor", "1L",
                                    "--curves", str(curves)])
        assert code == 0
        assert "undefined" in out

    def test_conic_ratio(self, capsys, tmp_path):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("surface p2\n1 origin\n2 -> 1\n3 -> 2\n4 -> 3\n5 -> 4\n")
        curves = tmp_path / "curves.txt"
        curves.write_text("2L -1E1 -1E2 -1E3 -1E4 -1E5\n")
        code, out, _ = run(capsys, ["nu", str(cfg), "--divisor", "1L",
                                    "--curves", str(curves)])
        assert code == 0
        assert "-1/2 (-0.5)" in out

    def test_strict_exceptional(self, capsys, sample12_path, tmp_path):
        curves = tmp_path / "curves.txt"
        curves.write_text("1E2 -1E3 -1E4 -1E5\n")
        code, out, _ = run(capsys, ["nu", str(sample12_path),
                                    "--divisor", "3L -1E2",
                                    "--curves", str(curves)])
        assert code == 0
        assert "nu over 1 supplied curve(s): -4" in out

    def test_huge_coefficients_render(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SINGLETON)
        curves = tmp_path / "curves.txt"
        curves.write_text(f"{10 ** 400}L -1/3E1\n")
        code, out, _ = run(capsys, ["nu", str(cfg), "--divisor", "1L",
                                    "--curves", str(curves)])
        assert code == 0
        self_intersection = Fraction(10 ** 800) - Fraction(1, 9)
        assert f"C^2 = {self_intersection} (1e+800)" in out

    def test_non_ascii_space_in_the_divisor(self, capsys, sample12_path,
                                            tmp_path):
        # rejected as on a curve-file line, not dropped by split()
        curves = tmp_path / "curves.txt"
        curves.write_text("1E1\n")
        code, out, err = run(capsys, ["nu", str(sample12_path), "--divisor",
                                      "3L\u00a0- E1", "--curves", str(curves)])
        assert code == 1
        assert out == ""
        assert "non-ASCII character" in err

    def test_surface_mismatch_between_flag_and_literal(self, capsys,
                                                       sample12_path, tmp_path):
        curves = tmp_path / "curves.txt"
        curves.write_text("1F\n")
        code, _, err = run(capsys, ["nu", str(sample12_path),
                                    "--divisor", "1L",
                                    "--curves", str(curves)])
        assert code == 1
        assert "error:" in err


class TestFormatRational:
    # Values outside the float range; ordinary ones are pinned by the goldens.
    @pytest.mark.parametrize("value,text", [
        (Fraction(10 ** 400, 3), f"{10 ** 400}/3 (3.33333e+399)"),
        (Fraction(-7, 3 * 10 ** 400), f"-7/{3 * 10 ** 400} (-2.33333e-400)"),
        (Fraction(10 ** 800 + 1, 10 ** 400),
         f"{10 ** 800 + 1}/{10 ** 400} (1e+400)"),
    ], ids=["huge", "tiny", "huge-round"])
    def test_exact_form_and_decimal(self, value, text):
        assert format_rational(value) == text


class TestDot:
    def test_stdout(self, capsys, sample12_path):
        code, out, _ = run(capsys, ["dot", str(sample12_path)])
        assert code == 0
        assert out.startswith("digraph")
        edges = [line for line in out.splitlines() if "->" in line]
        assert len(edges) == 11
        assert sum("dashed" in line for line in edges) == 2


class TestHarness:
    def test_output_file(self, capsys, sample12_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["dvalue", str(sample12_path), "--json",
                                    "--output", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total_d"] == 23

    def test_unwritable_output(self, capsys, sample12_path, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, ["dvalue", str(sample12_path),
                                      "--output", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(target) in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--json"],
                                      ["dot"]])
    def test_a_reader_leaving_early_gets_exit_1_and_no_message(self, argv,
                                                               tmp_path):
        # A 20000-point chain writes far more than a pipe holds, so the
        # CLI is still writing when the reader closes its end.
        path = tmp_path / "big.cfg"
        path.write_text("surface p2\n1 origin\n" + "".join(
            f"{k} -> {k - 1}\n" for k in range(2, 20001)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "negbound.cli", argv[0], str(path),
             *argv[1:]], env=python_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_a_reader_gone_before_the_first_write(self, sample12_path):
        # The pipe has no reader from the start, so the flush of a short
        # report is what fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "negbound.cli", "dvalue",
                 str(sample12_path)], env=python_env(), stdout=write_end,
                stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_a_byte_order_mark_is_skipped(self, capsys, sample12_path, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + sample12_path.read_bytes())
        assert run(capsys, ["dvalue", str(path)]) == \
            run(capsys, ["dvalue", str(sample12_path)])

    @pytest.mark.parametrize("bad_file", ["cluster", "curves"])
    def test_non_utf8_input_exits_1_without_traceback(self, bad_file,
                                                      sample12_path, tmp_path):
        cluster, curves = sample12_path, tmp_path / "curves.txt"
        curves.write_text("1E1\n")
        if bad_file == "cluster":
            cluster = tmp_path / "bad.cfg"
            cluster.write_bytes(b"surface p2\n1 origin\xff\n")
        else:
            curves.write_bytes(b"1E1\n\xff\n")
        proc = run_process(["nu", str(cluster), "--divisor", "1L",
                            "--curves", str(curves)])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["divisor", "curve", "point-id",
                                      "file-surface", "surface-flag"])
    def test_over_cap_literal_exits_1_without_traceback(self, case, tmp_path):
        digits = "1" * 5001
        cluster, curves = tmp_path / "one.cfg", tmp_path / "curves.txt"
        cluster.write_text(SINGLETON)
        curves.write_text("1E1\n")
        divisor, extra = "1L", []
        if case == "divisor":
            divisor = "1" + "0" * 5000 + "L"
        elif case == "curve":
            curves.write_text(f"L - E{digits}\n")
        elif case == "point-id":
            cluster.write_text(f"surface p2\n1 origin\n{digits} -> 1\n")
        elif case == "file-surface":
            cluster.write_text(f"surface f {digits}\n1 origin\n")
        else:
            extra = ["--surface", f"f {digits}"]
        proc = run_process(["nu", str(cluster), "--divisor", divisor,
                            "--curves", str(curves), *extra])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr) < 300

    @pytest.mark.parametrize("case,code", [
        ("epsilon", 2), ("surface-flag", 1), ("divisor", 1),
        ("point-id", 1), ("target", 1), ("n-convention", 2),
        ("subcommand", 2)])
    def test_long_malformed_literal_is_quoted_short(self, case, code,
                                                     tmp_path):
        junk = "x" + "1" * 5001
        cluster, curves = tmp_path / "one.cfg", tmp_path / "curves.txt"
        cluster.write_text(SINGLETON)
        curves.write_text("1E1\n")
        divisor, extra = "1L", []
        if case == "surface-flag":
            extra = ["--surface", f"f 1{junk}"]
        elif case == "divisor":
            divisor = f"1L+{junk}"
        elif case == "point-id":
            cluster.write_text(f"{SINGLETON}{junk} -> 1\n")
        elif case == "target":
            cluster.write_text(f"{SINGLETON}2 -> 1 {junk}\n")
        argv = ["nu", str(cluster), "--divisor", divisor,
                "--curves", str(curves), *extra]
        if case == "epsilon":
            argv = ["bounds", str(cluster), "--epsilon", f"1.{junk[1:]}"]
        elif case == "n-convention":
            argv = ["bounds", str(cluster), "--pullback",
                    "--n-convention", junk[1:]]
        elif case == "subcommand":
            argv = [junk, str(cluster)]
        proc = run_process(argv)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        # argparse prints its fixed usage block before a usage error
        message = proc.stderr[proc.stderr.index("error:"):]
        assert message.endswith("\n") and len(message) < 300

    @pytest.mark.parametrize("case", ["target", "divisor-index",
                                      "epsilon"])
    def test_long_integer_is_named_by_digit_count(self, case, tmp_path):
        digits = "1" * 4000  # under the interpreter's int/str cap
        cluster, curves = tmp_path / "one.cfg", tmp_path / "curves.txt"
        cluster.write_text(SINGLETON)
        curves.write_text("1E1\n")
        divisor = f"L - E{digits}" if case == "divisor-index" else "1L"
        argv = ["nu", str(cluster), "--divisor", divisor, "--curves", str(curves)]
        if case == "target":
            cluster.write_text(f"{SINGLETON}2 -> {digits}\n")
        elif case == "epsilon":
            argv = ["bounds", str(cluster), "--epsilon", f"-{digits}"]
        proc = run_process(argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "<4000 digits>" in proc.stderr and len(proc.stderr) < 300

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "x.cfg", "--pullback", "--n-convention", "bogus"],
         "argument --n-convention: invalid choice: 'bogus' "
         "(choose from 'stated', 'example')"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
         "'analyze', 'dvalue', 'bounds', 'nu', 'dot')")],
        ids=["n-convention", "subcommand"])
    def test_short_invalid_choice_is_quoted_whole(self, capsys, argv,
                                                  message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("epsilon", ["1" * 5001, "1/" + "1" * 5001],
                             ids=["numerator", "denominator"])
    def test_over_cap_epsilon_is_short_usage_error(self, capsys, epsilon,
                                                   sample12_path):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(sample12_path), "--epsilon", epsilon])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("argument --epsilon: numerator or denominator "
                            f"has more than {sys.get_int_max_str_digits()} "
                            "digits\n")
        assert len(err) < 500

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Every public name of the package as of the eager __init__, by module.
PUBLIC_NAMES = {
    "bounds": """AttachedFoliationReport BoundReport ClusterData CurveRatio
        DeltaMembershipReport FoliationBoundReport FoliationDegree
        HirzebruchBidegree NuReport PlaneDegree WitnessCheck
        attached_foliation_degree_bounds cluster_bound_data
        delta_membership_check empirical_nu epsilon_family_bounds
        foliation_negativity_bound nef_pullback_bounds polarization_bounds""",
    "config": """Configuration ExceptionalSelfIntersections Point
        analysis_report build_configuration dot_export
        exceptional_self_intersections multiplicity_vector proximity_apply
        proximity_solve subconfiguration""",
    "errors": """ConfigurationError DuplicateIdError ForwardReferenceError
        InvalidSatelliteError InvariantError LatticeError MultipleOriginsError
        NegboundError NonPositiveEpsilonError NormalizationError
        NotHirzebruchError ParseError SurfaceMismatchError
        TooManyProximitiesError UnknownChartError UnknownPointError""",
    "fileformat": """load_configuration load_curves parse_configuration
        parse_curves parse_divisor parse_rational serialize_configuration""",
    "lattice": """Bidegree BidegreeBounds DivisorClass InvariantBoundReport
        MultiplicityBoundReport bidegree_of_closure
        divisor_from_strict_coordinates invariant_bound_check
        multiplicity_bound_check pairing special_section_class
        strict_exceptional_coordinates strict_transform_of_exceptional""",
    "sufficiency": """DValue d_value d_value_report hat_configuration
        origin_d_values total_d""",
    "surfaces": "Hirzebruch ProjectivePlane SurfaceModel parse_surface",
}

# Runs cli.main on argv with its output discarded, then prints the exit
# code and the negbound.* modules the process has loaded.
LOADED_BY_MAIN = """
import io, sys
from negbound.cli import main
out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("negbound.")),
      file=out)
"""

SAMPLE = str(REPO_ROOT / "configs" / "sample12.cfg")
CURVES_P2 = str(REPO_ROOT / "tests" / "goldens" / "curves_p2.txt")


class TestLoading:
    """Each subcommand loads only the modules its report needs, checked in
    fresh interpreters, since this test process has imported them all."""

    def test_import_loads_no_submodule(self):
        proc = run_python(["-c", "import negbound, sys; print(*(m for m in "
                           "sys.modules if m.startswith('negbound')))"],
                          text=True)
        assert proc.stdout.split() == ["negbound"], proc.stderr

    def test_submodule_loads_on_first_attribute_read(self):
        proc = run_python(["-c", "import negbound, sys; print(negbound.bounds "
                           "is sys.modules['negbound.bounds'])"], text=True)
        assert proc.stdout.split() == ["True"], proc.stderr

    @staticmethod
    def loaded_by(argv) -> set[str]:
        proc = run_python(["-c", LOADED_BY_MAIN, *argv], text=True)
        code, *modules = proc.stdout.split()
        assert code == "0", proc.stderr
        return {m.removeprefix("negbound.") for m in modules}

    @pytest.mark.parametrize("argv, absent", [
        (["analyze", SAMPLE], {"sufficiency", "bounds", "lattice"}),
        (["analyze", SAMPLE, "--json"], {"sufficiency", "bounds", "lattice"}),
        (["dot", SAMPLE], {"sufficiency", "bounds", "lattice"}),
        (["dvalue", SAMPLE, "--json"], {"bounds", "lattice"}),
        (["bounds", SAMPLE, "--pullback"], {"lattice"}),
        (["bounds", SAMPLE, "--epsilon", "1/2", "--surface", "f 3"],
         {"lattice"}),
    ], ids=["analyze", "analyze-json", "dot", "dvalue", "bounds-pullback",
            "bounds-epsilon"])
    def test_subcommand_loads_only_what_it_needs(self, argv, absent):
        loaded = self.loaded_by(argv)
        assert {"cli", "config", "fileformat"} <= loaded
        assert loaded & absent == set()

    def test_nu_loads_the_lattice(self):
        loaded = self.loaded_by(["nu", SAMPLE, "--divisor", "3L - E1",
                                 "--curves", CURVES_P2])
        assert {"bounds", "lattice"} <= loaded

    @pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
    def test_public_names_resolve_to_their_module(self, module):
        submodule = importlib.import_module(f"negbound.{module}")
        for name in PUBLIC_NAMES[module].split():
            assert getattr(negbound, name) is getattr(submodule, name), name
            assert name in negbound.__all__ and name in dir(negbound), name
        assert getattr(negbound, module) is submodule

    def test_only_listed_names_resolve(self):
        assert all(hasattr(negbound, name) for name in negbound.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            negbound.no_such_name
        assert not hasattr(negbound, "main")


BENCH_GOLDENS = REPO_ROOT / "bench" / "goldens" / "cli-sample12.json"


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's workload module, for its CLI calls and curve list."""
    sys.path.insert(0, str(REPO_ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "bench"))
    return workloads


def test_bench_cli_calls_match_their_goldens_as_processes(bench_workloads,
                                                          tmp_path):
    """The benchmark's CLI calls as real ``python -m negbound.cli``
    processes, each with only the modules its subcommand imports, match the
    benchmark's goldens byte for byte."""
    goldens = json.loads(BENCH_GOLDENS.read_text(encoding="utf-8"))
    calls = [list(args) for args in bench_workloads.CLI_CALLS]
    assert [g["args"] for g in goldens] == calls
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "sample12.cfg").write_bytes(
        (REPO_ROOT / bench_workloads.SAMPLE12).read_bytes())
    bench_workloads.write_text(tmp_path / bench_workloads.CURVES,
                               bench_workloads.curves_text())
    for golden in goldens:
        proc = run_python(["-m", "negbound.cli", *golden["args"]],
                          cwd=tmp_path)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == \
            (golden["code"], golden["stdout"], golden["stderr"]), golden["args"]
