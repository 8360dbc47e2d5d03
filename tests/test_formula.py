"""Normalization, parsing, and gap/slack arithmetic."""

import random

import pytest

from pbtally import (CoefficientOverflowError, OpbParseError, build_formula,
                     constraint_gap, constraint_slack, emit_opb, parse_opb)
from pbtally.formula import I64_MAX, normalize_terms

from _helpers import random_formula


def bodies_of(formula):
    return [(c.terms, c.degree) for c in formula.constraints]


class TestNormalization:
    def test_negative_coefficient_flips_literal(self):
        f = parse_opb("-2 x1 +3 x2 >= 1 ;\n")
        assert bodies_of(f) == [(((3, 2), (2, -1)), 3)]

    def test_saturation_caps_coefficients_at_degree(self):
        f = parse_opb("+5 x1 +2 x2 >= 3 ;\n")
        assert bodies_of(f) == [(((3, 1), (2, 2)), 3)]

    def test_vacuous_upper_bound_is_dropped(self):
        f = parse_opb("* #variable= 2 #constraint= 1\n+2 x1 +3 x2 <= 5 ;\n")
        assert bodies_of(f) == []
        assert f.num_vars == 2
        assert not f.unsat_at_load

    def test_upper_bound_becomes_negated_literals(self):
        f = parse_opb("+2 x1 +3 x2 +4 x3 <= 5 ;\n")
        assert bodies_of(f) == [(((4, -3), (3, -2), (2, -1)), 4)]

    def test_complementary_literals_cancel(self):
        f = parse_opb("+1 x1 +1 ~x1 >= 1 ;\n")
        assert bodies_of(f) == []
        assert not f.unsat_at_load

    def test_unsatisfiable_constraint_sets_flag(self):
        f = parse_opb("+1 x1 +1 ~x1 >= 2 ;\n")
        assert bodies_of(f) == []
        assert f.unsat_at_load

    def test_duplicate_variable_merges(self):
        f = parse_opb("+2 x1 +3 x1 >= 4 ;\n")
        assert bodies_of(f) == [(((4, 1),), 4)]

    def test_equality_becomes_two_bodies(self):
        f = parse_opb("+1 x1 +1 x2 = 1 ;\n")
        assert bodies_of(f) == [(((1, 1), (1, 2)), 1), (((1, -1), (1, -2)), 1)]

    def test_negated_literal_token(self):
        f = parse_opb("+2 ~x1 +1 x2 >= 2 ;\n")
        assert bodies_of(f) == [(((2, -1), (1, 2)), 2)]

    def test_normalize_terms_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            normalize_terms([(1, 1)], "!=", 1)

    def test_merged_coefficient_overflow(self):
        big = 1 << 62
        with pytest.raises(CoefficientOverflowError):
            normalize_terms([(big, 1), (big, 1)], ">=", 3)


class TestParsing:
    def test_header_fixes_variable_count(self):
        f = parse_opb("* #variable= 5 #constraint= 1\n+1 x2 >= 1 ;\n")
        assert f.num_vars == 5

    def test_referenced_variables_extend_header(self):
        f = parse_opb("* #variable= 2 #constraint= 1\n+1 x3 >= 1 ;\n")
        assert f.num_vars == 3

    def test_bytes_input(self):
        f = parse_opb(b"+1 x1 >= 1 ;\n")
        assert f.num_vars == 1

    def test_glued_semicolon(self):
        f = parse_opb("+1 x1 >= 1;\n")
        assert bodies_of(f) == [(((1, 1),), 1)]

    def test_blank_lines_and_comments_skipped(self):
        f = parse_opb("\n* a comment\n\n+1 x1 >= 1 ;\n")
        assert len(f.constraints) == 1

    def test_objective_rejected(self):
        with pytest.raises(OpbParseError, match="line 1: objective"):
            parse_opb("min: +1 x1 ;\n")

    def test_missing_terminator(self):
        with pytest.raises(OpbParseError, match="';'"):
            parse_opb("+1 x1 >= 1\n")

    def test_nonlinear_product_rejected(self):
        with pytest.raises(OpbParseError, match="nonlinear"):
            parse_opb("+1 x1 ~x2 x3 >= 1 ;\n")

    def test_odd_term_tokens_rejected(self):
        with pytest.raises(OpbParseError, match="malformed term list"):
            parse_opb("+2 x1 x2 >= 1 ;\n")

    def test_two_operators_rejected(self):
        with pytest.raises(OpbParseError, match="exactly one relational"):
            parse_opb("+1 x1 >= >= 1 ;\n")

    def test_variable_index_zero_rejected(self):
        with pytest.raises(OpbParseError, match="index must be >= 1"):
            parse_opb("+1 x0 >= 1 ;\n")

    def test_coefficient_overflow_rejected(self):
        with pytest.raises(OpbParseError, match="64-bit"):
            parse_opb("+%d x1 >= 1 ;\n" % (I64_MAX + 1))

    def test_merged_overflow_reports_line(self):
        big = 1 << 62
        with pytest.raises(OpbParseError, match="line 2"):
            parse_opb("+1 x1 >= 1 ;\n+%d x1 +%d x1 >= 3 ;\n" % (big, big))

    @pytest.mark.parametrize("line, what", [
        ("+%s x1 >= 1 ;" % ("9" * 5000), "coefficient"),
        ("-%s x1 >= 1 ;" % ("9" * 5000), "coefficient"),
        ("+1 ~x%s >= 1 ;" % ("1" * 5000), "variable index"),
        ("+1 x1 >= %s ;" % ("9" * 5000), "degree"),
        ("* #variable= %s" % ("1" * 5000), "variable count")])
    def test_overlong_number_rejected_with_line(self, line, what):
        # rejected before int(), which would refuse the token without a line
        with pytest.raises(OpbParseError,
                           match="line 2: %s of 5000 digits exceeds the 64-bit range" % what):
            parse_opb("+1 x1 >= 1 ;\n%s\n+1 x2 >= 1 ;\n" % line)

    def test_twenty_digit_tokens_still_parse(self):
        f = parse_opb("+00000000000000000003 x00000000000000000002 >= 00000000000000000001 ;\n")
        assert f.num_vars == 2
        assert [c.body() for c in f.constraints] == [(((1, 2),), 1)]

    @pytest.mark.parametrize("text", ["+1 x1 >= 1 ;\n1 x\u00b2 >= 1 ;\n",
                                      "+1 x1 >= 1 ;\n\u00b2 x1 >= 1 ;\n",
                                      "+1 x1 >= 1 ;\n1 x\u0663 >= 1 ;\n"])
    def test_non_ascii_digits_rejected_with_line(self, text):
        # str.isdigit() accepts all three, and int() reads Arabic-Indic 3 as 3
        with pytest.raises(OpbParseError, match="line 2: malformed"):
            parse_opb(text)

    def test_non_ascii_header_count_ignored(self):
        f = parse_opb("* #variable= \u00b2\n+1 x1 >= 1 ;\n")
        assert f.num_vars == 1

    def test_error_carries_line_number(self):
        try:
            parse_opb("+1 x1 >= 1 ;\n+1 x1 >= 1\n")
        except OpbParseError as exc:
            assert exc.line_no == 2
        else:
            pytest.fail("expected a parse error")


class TestEmit:
    def test_round_trip_identity(self):
        rng = random.Random(42)
        for _ in range(60):
            f = random_formula(rng)
            text = emit_opb(f)
            g = parse_opb(text)
            assert g.num_vars == f.num_vars
            assert bodies_of(g) == bodies_of(f)
            assert g.unsat_at_load == f.unsat_at_load
            header, *lines = text.splitlines()
            assert header.endswith("#constraint= %d" % len(lines))

    def test_emitted_header_counts(self):
        f = build_formula(3, [([(1, 1), (1, -3)], ">=", 1)])
        text = emit_opb(f)
        assert text.splitlines()[0] == "* #variable= 3 #constraint= 1"
        assert "~x3" in text


class TestGapSlack:
    def test_gap_counts_true_mass(self):
        f = parse_opb("-2 x1 +3 x2 >= 1 ;\n")
        c = f.constraints[0]
        assert constraint_gap(c, {}) == 3
        assert constraint_gap(c, {1: False}) == 1
        assert constraint_gap(c, {1: False, 2: True}) == -2

    def test_slack_counts_not_false_mass(self):
        f = parse_opb("-2 x1 +3 x2 >= 1 ;\n")
        c = f.constraints[0]
        assert constraint_slack(c, {}) == 2
        assert constraint_slack(c, {1: True}) == 0
        assert constraint_slack(c, {1: True, 2: False}) == -3

    def test_satisfied_iff_gap_nonpositive(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_formula(rng, max_vars=6)
            for c in f.constraints:
                assignment = {v: rng.random() < 0.5 for v in range(1, f.num_vars + 1)}
                value = sum(a for a, l in c.terms
                            if assignment[abs(l)] == (l > 0))
                assert (value >= c.degree) == (constraint_gap(c, assignment) <= 0)
