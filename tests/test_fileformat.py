from __future__ import annotations

import codecs
import random
import sys
from fractions import Fraction

import pytest

from negbound import (
    ConfigurationError,
    DivisorClass,
    DuplicateIdError,
    ForwardReferenceError,
    InvalidSatelliteError,
    ParseError,
    build_configuration,
    load_configuration,
    load_curves,
    parse_configuration,
    parse_curves,
    parse_divisor,
    parse_rational,
    parse_surface,
    serialize_configuration,
)
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import count_calls

P2 = ProjectivePlane()

# More digits than Python converts by default (sys.int_info.default_max_str_digits
# is 4300); the interpreter refuses such a literal before converting it.
OVER_CAP = "1" * 5001
CAP = sys.get_int_max_str_digits()


class TestParseConfiguration:
    def test_shipped_sample_matches_inline_specs(self, sample12, sample12_path):
        assert load_configuration(sample12_path) == sample12

    def test_comments_and_blank_lines(self):
        text = """
        # leading comment
        surface p2

        1 origin   # the only point
        """
        c = parse_configuration(text)
        assert len(c) == 1 and c.surface == P2

    def test_hirzebruch_surface_line(self):
        c = parse_configuration("surface f 3\n1 origin\n")
        assert c.surface == Hirzebruch(3)

    def test_roundtrip(self, sample12):
        assert parse_configuration(serialize_configuration(sample12)) == sample12

    def test_missing_surface(self):
        with pytest.raises(ParseError):
            parse_configuration("1 origin\n")

    def test_only_comments(self):
        with pytest.raises(ParseError, match="empty input: no surface"):
            parse_configuration("# nothing\n\n   # still nothing\n")

    def test_no_points(self):
        with pytest.raises(ParseError):
            parse_configuration("surface p2\n# nothing\n")

    def test_malformed_statement(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 => 1\n")
        assert exc.value.line == 3

    def test_forward_reference_carries_line_and_cause(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 7\n")
        assert exc.value.line == 3
        assert isinstance(exc.value.__cause__, ForwardReferenceError)

    def test_two_satellites_at_the_same_pair_carry_line(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 1\n3 -> 2 1\n"
                                "# comment\n4 -> 2 1\n")
        assert exc.value.line == 6
        assert isinstance(exc.value.__cause__, InvalidSatelliteError)

    def test_duplicate_id_carries_the_line_of_the_duplicate(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 1\n2 -> 1\n")
        assert exc.value.line == 4
        assert str(exc.value).startswith("<config>:4: duplicate point id 2")
        assert isinstance(exc.value.__cause__, DuplicateIdError)

    def test_an_id_declared_three_times_names_the_last_line(self):
        # ids compare as ints, so 02 and 002 declare point 2 again
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 1\n# 2\n"
                                "02 -> 1\n002 -> 1  # last\n3 -> 2\n")
        assert str(exc.value) == "<config>:6: duplicate point id 2"
        assert isinstance(exc.value.__cause__, DuplicateIdError)

    def test_a_parse_error_comes_before_any_rule_fault(self):
        # 2 -> 7 breaks a rule, but the malformed line 4 is reported
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 7\n3 => 1\n")
        assert exc.value.line == 4
        assert str(exc.value).startswith("<config>:4: malformed point statement")
        assert exc.value.__cause__ is None

    def test_a_parse_error_comes_before_a_later_non_ascii_line(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\nbogus\n1 \u00a0origin\n")
        assert exc.value.line == 2
        assert "expected a point id" in str(exc.value)

    def test_an_id_fault_comes_before_an_earlier_rule_fault(self):
        with pytest.raises(ParseError) as exc:
            parse_configuration("surface p2\n1 origin\n2 -> 7\n2 -> 1\n")
        assert exc.value.line == 4
        assert isinstance(exc.value.__cause__, DuplicateIdError)

    def test_a_leading_zero_id_is_the_same_point(self):
        c = parse_configuration("surface p2\n1 origin\n02 -> 1\n003 -> 02 001\n")
        assert c.proximities == ((), (1,), (2, 1))

    def test_no_line_order_goes_through_build_configuration(self, monkeypatch,
                                                            sample12,
                                                            sample12_path):
        # the parser hands its tokens, in any order, to the one rule check
        calls = count_calls(monkeypatch, build_configuration)
        assert load_configuration(sample12_path) == sample12
        surface, *points = serialize_configuration(sample12).splitlines()
        for order in (points[::-1], random.Random(12).sample(points, len(points))):
            assert parse_configuration("\n".join([surface, *order])) == sample12
            with pytest.raises(ParseError, match="duplicate point id 4"):
                parse_configuration("\n".join([surface, *order, "4 -> 3"]))
        assert calls == []

    @pytest.mark.parametrize("text", [
        "surface p2\n\u0661 origin\n",           # Arabic-Indic digit one
        "surface p2\n1 origin\n2 -> \u0661\n",
    ])
    def test_non_ascii_point_ids_and_targets(self, text):
        with pytest.raises(ParseError) as exc:
            parse_configuration(text)
        assert exc.value.line == text.count("\n")

    @pytest.mark.parametrize("text, message", [
        pytest.param("surface p2\n1 origin\n1_0 -> 1\n",
                     "expected a point id, got '1_0'", id="separator-id"),
        pytest.param("surface p2\n1 origin\n2 -> 0_1\n",
                     "invalid proximity targets in '2 -> 0_1'",
                     id="separator-target"),
        pytest.param("surface p2\n1 origin\n+2 -> 1\n",
                     "expected a point id, got '+2'", id="signed-id"),
        pytest.param("surface p2\n1 origin\n2 -> 1 +1\n",
                     "invalid proximity targets in '2 -> 1 +1'",
                     id="signed-second-target"),
        pytest.param(f"surface p2\n1 origin\n{OVER_CAP} -> 1\n",
                     f"point id has more than {CAP} digits", id="over-cap-id"),
        pytest.param(f"surface p2\n1 origin\n2 -> {OVER_CAP}\n",
                     f"proximity target has more than {CAP} digits",
                     id="over-cap-target"),
        pytest.param(f"surface p2\n1 origin\n2 -> 1 {OVER_CAP}\n",
                     f"proximity target has more than {CAP} digits",
                     id="over-cap-second-target"),
    ])
    def test_point_ids_and_targets_are_plain_digits(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_configuration(text)
        assert exc.value.line == 3
        assert str(exc.value) == f"<config>:3: {message}"

    def test_point_lines_in_any_order(self, sample12):
        surface, *points = serialize_configuration(sample12).splitlines()
        random.Random(12).shuffle(points)
        assert [int(line.split()[0]) for line in points] != list(range(1, 13))
        assert parse_configuration("\n".join([surface, *points])) == sample12

    @pytest.mark.parametrize("points, line, cause", [
        (["3 -> 1", "1 origin", "2 -> 1", "3 -> 2"], 5, DuplicateIdError),
        (["3 -> 2", "2 -> 4", "1 origin", "4 -> 3"], 3, ForwardReferenceError),
        (["3 -> 1", "1 origin"], None, ConfigurationError),
        (["1 origin", "5 origin", "5 origin"], 4, DuplicateIdError),
    ], ids=["duplicate", "forward-reference", "missing", "out-of-range-duplicate"])
    def test_shuffled_file_names_the_offending_line(self, points, line, cause):
        with pytest.raises(ParseError) as exc:
            parse_configuration("\n".join(["surface p2", *points]))
        assert exc.value.line == line
        assert type(exc.value.__cause__) is cause

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    def test_non_utf8_file(self, tmp_path, newline):
        path = tmp_path / "bad.cfg"
        path.write_bytes(newline.join([b"surface p2", b"1 origin",
                                       b"2 -> \xff", b""]))
        with pytest.raises(ParseError) as exc:
            load_configuration(path)
        assert exc.value.source == str(path)
        assert exc.value.line == 3

    def test_a_byte_order_mark_is_skipped(self, tmp_path, sample12, sample12_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + sample12_path.read_bytes())
        assert load_configuration(path) == sample12

    def test_a_non_utf8_byte_after_a_byte_order_mark(self, tmp_path):
        # the line count starts after the mark, as the decode offset does
        path = tmp_path / "bad.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"surface p2\n1 origin\n\xff2 -> 1\n")
        with pytest.raises(ParseError) as exc:
            load_configuration(path)
        assert exc.value.line == 3

    # str.splitlines would also end a line at \f, \x1c, U+0085 or U+2028;
    # a cluster file ends one only at \n, \r\n or \r.
    @pytest.mark.parametrize("text, line", [
        ("surface p2\u20281 origin\u20282 -> 1\n", 1),
        ("surface p2\n1 origin\u0085\n", 2),
        ("surface p2\x0c1 origin\n2 -> 5\n", 1),
        ("surface p2\n1 origin\x0c\n2 -> 5\n", 3),
        ("surface p2\n1 origin\x1c\x0b\n2 -> 5\n", 3),
    ], ids=["u2028", "u0085", "ff-in-statement", "ff-at-end",
            "x1c-vt-at-end"])
    def test_only_newlines_end_a_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_configuration(text)
        assert exc.value.line == line

    def test_comment_runs_to_the_newline(self):
        # a comment may hold any text, U+2028 included, and it ends no line
        c = parse_configuration("surface p2\n1 origin # a\u20282 -> 1\n")
        assert c.proximities == ((),)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_line_endings(self, sample12, newline):
        text = serialize_configuration(sample12).replace("\n", newline)
        assert parse_configuration(text) == sample12
        with pytest.raises(ParseError) as exc:
            parse_configuration(newline.join(
                ["surface p2", "1 origin # c", "", "2 -> 5", ""]))
        assert exc.value.line == 4

    def test_gap_in_ids(self):
        with pytest.raises(ParseError):
            parse_configuration("surface p2\n1 origin\n5 -> 1\n")

    def test_bad_surface(self):
        with pytest.raises(ParseError):
            parse_configuration("surface q3\n1 origin\n")

    def test_non_integer_id(self):
        with pytest.raises(ParseError):
            parse_configuration("surface p2\nx origin\n")


class TestSerializeConfiguration:
    def test_forms(self):
        c = build_configuration([(1, []), (2, [1]), (3, [2, 1])],
                                Hirzebruch(2))
        assert serialize_configuration(c) == \
            "surface f 2\n1 origin\n2 -> 1\n3 -> 2 1\n"


class TestParseSurface:
    def test_bool_delta_rejected(self):
        with pytest.raises(ValueError):
            Hirzebruch(True)

    def test_accepted_forms(self):
        assert parse_surface("p2") == P2
        assert parse_surface("f 0") == Hirzebruch(0)
        assert parse_surface("surface f 4") == Hirzebruch(4)

    @pytest.mark.parametrize("bad", ["f -1", "q", "f x", "f", "p3",
                                     "f \u0661", "f \uff13", "f 1_0", "f +3",
                                     pytest.param(f"f {OVER_CAP}",
                                                  id="f over-cap")])
    def test_rejected_forms(self, bad):
        with pytest.raises(ParseError):
            parse_surface(bad)

    def test_line_without_source_prefixes_the_message(self):
        with pytest.raises(ParseError) as exc:
            parse_surface("x", line=3)
        assert str(exc.value).startswith("line 3: invalid surface spec")


class TestParseDivisor:
    def test_plane_literal(self):
        cls = parse_divisor("3L - 2E1 - E4", P2, 4)
        assert cls.base == (3,)
        assert cls.exceptional == (-2, 0, 0, -1)

    def test_whitespace_insensitive(self):
        assert parse_divisor("3L-2E1-E4", P2, 4) == \
            parse_divisor(" 3 L -  2E1 - E 4 ", P2, 4)

    def test_ruled_literal(self):
        cls = parse_divisor("2F + 1M - E3", Hirzebruch(2), 3)
        assert cls.base == (2, 1)
        assert cls.exceptional == (0, 0, -1)

    def test_rational_coefficients(self):
        cls = parse_divisor("1/2L + 2/3E1", P2, 1)
        assert cls.base == (Fraction(1, 2),)
        assert cls.exceptional == (Fraction(2, 3),)

    def test_leading_sign_and_repeats(self):
        cls = parse_divisor("-L + E1 + E1", P2, 1)
        assert cls.base == (-1,)
        assert cls.exceptional == (2,)

    @pytest.mark.parametrize("bad,surface,n", [
        ("", P2, 1),
        ("3L + kE1", P2, 1),
        ("3L 2E1", P2, 1),          # missing sign between terms
        ("3F", P2, 1),              # F only lives on a ruled surface
        ("3L", Hirzebruch(1), 1),   # L only lives on the plane
        ("E5", P2, 4),              # index out of range
        ("1/0L", P2, 1),
        ("3L - 2E1 2", P2, 12),     # not E12
        ("1 0L", P2, 1),            # not 10L
        ("1 /2L", P2, 1),
        ("\u0663L - E\u0661", P2, 1),  # Arabic-Indic digits
        ("3L\u00a0- E1", P2, 2),    # split() would drop a non-ASCII space
        ("3L -\u2003E1", P2, 2),
        pytest.param("1" + "0" * 5000 + "L", P2, 1, id="over-cap-coefficient"),
        pytest.param(f"1/{OVER_CAP}L", P2, 1, id="over-cap-denominator"),
        pytest.param(f"L - E{OVER_CAP}", P2, 1, id="over-cap-index"),
    ])
    def test_rejected_literals(self, bad, surface, n):
        with pytest.raises(ParseError):
            parse_divisor(bad, surface, n)


class TestParseCurves:
    def test_list_with_comments(self):
        text = "# two conics\n2L -1E1\n\n2L - 1E2\n"
        curves = parse_curves(text, P2, 2)
        assert len(curves) == 2
        assert curves[0] == DivisorClass(P2, (2,), (-1, 0))

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_curves("2L -1E1\nbogus\n", P2, 1)
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("2L - E1\u20282L - E1\n", 1),
        ("2L - E1\x0c\nbogus\n", 2),
        ("2L - E1\r\n2L\r\nbogus\r\n", 3),
        ("2L - E1\r2L\rbogus\r", 3),
    ], ids=["u2028", "ff", "crlf", "cr"])
    def test_only_newlines_end_a_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_curves(text, P2, 1)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("bogus\nL\u00a0- E1\n", 1, "cannot parse divisor literal"),
        ("L - E1\n\u00a0\n", 2, "non-ASCII character"),  # not a blank line
    ], ids=["syntax-first", "nbsp-line"])
    def test_fault_order_at_a_non_ascii_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_curves(text, P2, 1)
        assert exc.value.line == line
        assert message in str(exc.value)

    def test_a_comment_may_hold_any_text(self):
        assert parse_curves("L - E1 # caf\u00e9\n", P2, 1) == \
            (parse_divisor("L - E1", P2, 1),)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings(self, newline):
        text = newline.join(["2L - E1", "# c", "2L", ""])
        assert parse_curves(text, P2, 1) == parse_curves("2L - E1\n2L\n", P2, 1)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "curves.txt"
        path.write_bytes(b"2L -1E1\n\xff\n")
        with pytest.raises(ParseError) as exc:
            load_curves(path, P2, 1)
        assert exc.value.source == str(path)
        assert exc.value.line == 2

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "curves.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"2L - E1\n2L\n")
        assert load_curves(path, P2, 1) == parse_curves("2L - E1\n2L\n", P2, 1)


class TestParseRational:
    def test_values(self):
        assert parse_rational("5") == 5
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5.2",
                                     "\u0661/\u0662", "1_0", "1/2_0",
                                     "0.5", "1e3", "2.5e-1", "\u20031/2",
                                     pytest.param(f"1/{OVER_CAP}",
                                                  id="over-cap")])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)
