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


_BIG = 1 << 62
_I64_MIN = -I64_MAX - 1

#: (text, line, message) for every ``OpbParseError`` raised by ``parse_opb``
#: and its token checks. Line 1 is valid in each, so the error names a later
#: line; the last rows reuse a token across lines, where a token checked once
#: per text could be misread
_ERROR_CORPUS = [
    ("+1 x1 >= 1 ;\n* #variable= %s\n" % ("1" * 21), 2,
     "variable count of 21 digits exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\nmin: +1 x1 ;\n", 2, "objective lines are not supported"),
    ("+1 x1 >= 1 ;\nmax: +1 x1 ;\n", 2, "objective lines are not supported"),
    ("+1 x1 >= 1 ;\n+1 x1 >= 1\n", 2, "missing ';' terminator"),
    ("+1 x1 >= 1 ;\n;\n", 2, "empty constraint"),
    ("+1 x1 >= 1 ;\n+1 x1 1 ;\n", 2, "expected exactly one relational operator"),
    ("+1 x1 >= 1 ;\n+1 x1 >= <= 1 ;\n", 2, "expected exactly one relational operator"),
    ("+1 x1 >= 1 ;\n+1 x1 >= 1 2 ;\n", 2, "expected a single degree after the operator"),
    ("+1 x1 >= 1 ;\n>= ;\n", 2, "expected a single degree after the operator"),
    ("+1 x1 >= 1 ;\n>=;\n", 2, "expected a single degree after the operator"),
    ("+1 x1 >= 1 ;\n+1 x1 >= y ;\n", 2, "malformed degree token 'y'"),
    ("+1 x1 >= 1 ;\n+1 x1 >= %s ;\n" % ("9" * 21), 2,
     "degree of 21 digits exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+1 x1 >= %d ;\n" % (I64_MAX + 1), 2,
     "degree '9223372036854775808' exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+1 x1 x2 >= 1 ;\n", 2, "malformed term list (odd token count)"),
    ("+1 x1 >= 1 ;\n+1 x1 x1 x2 >= 1 ;\n", 2, "nonlinear terms are not supported"),
    ("+1 x1 >= 1 ;\n+1 x1 ~x2 +1 >= 1 ;\n", 2, "nonlinear terms are not supported"),
    ("+1 x1 >= 1 ;\n1a x1 >= 1 ;\n", 2, "malformed coefficient token '1a'"),
    ("+1 x1 >= 1 ;\n-- x1 >= 1 ;\n", 2, "malformed coefficient token '--'"),
    # a number takes at most one sign
    ("+-5 x1 >= 1 ;\n", 1, "malformed coefficient token '+-5'"),
    ("+1 x1 >= 1 ;\n-+5 x1 >= -3 ;\n", 2, "malformed coefficient token '-+5'"),
    ("+1 x1 >= 1 ;\n+1 x1 >= +-3 ;\n", 2, "malformed degree token '+-3'"),
    ("+1 x1 >= 1 ;\n%s x1 >= 1 ;\n" % ("9" * 21), 2,
     "coefficient of 21 digits exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n%d x1 >= 1 ;\n" % (_I64_MIN - 1), 2,
     "coefficient '-9223372036854775809' exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+1 y1 >= 1 ;\n", 2, "malformed literal token 'y1'"),
    ("+1 x1 >= 1 ;\n+1 ~~x1 >= 1 ;\n", 2, "malformed literal token '~~x1'"),
    ("+1 x1 >= 1 ;\n+1 -x1 >= 1 ;\n", 2, "malformed literal token '-x1'"),
    ("+1 x1 >= 1 ;\n+1 x+1 >= 1 ;\n", 2, "malformed literal token 'x+1'"),
    ("+1 x1 >= 1 ;\n+1 x%s >= 1 ;\n" % ("1" * 21), 2,
     "variable index of 21 digits exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+1 x0 >= 1 ;\n", 2, "variable index must be >= 1 in 'x0'"),
    ("+1 x1 >= 1 ;\n+1 ~x%d >= 1 ;\n" % (I64_MAX + 1), 2,
     "variable index '~x9223372036854775808' exceeds the 64-bit range"),
    # a literal token first seen on line 1, then used as a coefficient
    ("+1 x1 >= 1 ;\n+1 x2 >= 1 ;\nx1 x2 >= 1 ;\n", 3, "nonlinear terms are not supported"),
    # a coefficient token, then used as a literal
    ("+3 x1 >= 1 ;\n+1 +3 >= 1 ;\n", 2, "malformed literal token '+3'"),
    # malformed tokens after valid look-alikes
    ("+1 x1 >= 1 ;\n+1 x10 >= 1 ;\n+1 x1a >= 1 ;\n", 3, "malformed literal token 'x1a'"),
    ("+1 x1 >= 1 ;\n+2 x1 >= 2 ;\n+2a x1 >= 1 ;\n", 3, "malformed coefficient token '+2a'"),
    ("+1 x1 >= 1 ;\n+1 x2 >= 1 ;\n+1 x1 >= 1a ;\n", 3, "malformed degree token '1a'"),
    # the first bad token of a line names the error, in term order
    ("+1 x1 >= 1 ;\n+1 y1 2a x2 >= 1 ;\n", 2, "malformed literal token 'y1'"),
    ("+1 x1 >= 1 ;\n2a y1 >= 1 ;\n", 2, "malformed coefficient token '2a'"),
    ("+1 x1 >= 1 ;\n+1 y1 >= 1a ;\n", 2, "malformed degree token '1a'"),
    # normalization overflows, named with their line
    ("+1 x1 >= 1 ;\n+1 x1 <= %d ;\n" % _I64_MIN, 2, "degree exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n%d x1 <= 0 ;\n" % _I64_MIN, 2, "coefficient exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+%d x1 +%d x1 >= 3 ;\n" % (_BIG, _BIG), 2,
     "merged coefficient exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+1 ~x1 >= %d ;\n" % _I64_MIN, 2, "adjusted degree exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n-1 x1 >= %d ;\n" % I64_MAX, 2, "adjusted degree exceeds the 64-bit range"),
    ("+1 x1 >= 1 ;\n+%d x1 +%d x2 >= %d ;\n" % (_BIG, _BIG, I64_MAX), 2,
     "coefficient sum exceeds the 64-bit range"),
]


class TestParseErrorCorpus:
    @pytest.mark.parametrize("text, line, message", _ERROR_CORPUS)
    def test_message_and_line(self, text, line, message):
        with pytest.raises(OpbParseError) as info:
            parse_opb(text)
        assert str(info.value) == "line %d: %s" % (line, message)
        assert info.value.line_no == line

    def test_degree_token_reused_as_coefficient(self):
        f = parse_opb("+1 x1 +1 x2 >= 2 ;\n2 x1 +1 x2 >= 1 ;\n")
        assert bodies_of(f) == [(((1, 1), (1, 2)), 2), (((1, 1), (1, 2)), 1)]

    def test_coefficient_and_literal_tokens_reused(self):
        f = parse_opb("+2 x1 +2 ~x2 >= 2 ;\n+2 ~x2 +2 x1 >= 2 ;\n+2 x1 >= 1 ;\n")
        assert bodies_of(f) == [(((2, 1), (2, -2)), 2)] * 2 + [(((1, 1),), 1)]


#: (raw terms, operator, degree, what) for every overflow in normalization
_OVERFLOWS = [
    ([(1, 1)], ">=", I64_MAX + 1, "degree"),
    ([(1, 1)], "<=", _I64_MIN, "degree"),
    ([(I64_MAX + 1, 1)], ">=", 1, "coefficient"),
    ([(_I64_MIN, 1)], "<=", 0, "coefficient"),
    ([(_BIG, 1), (_BIG, 1)], ">=", 3, "merged coefficient"),
    ([(-_BIG, 2), (-_BIG - 1, 2)], "<=", 0, "merged coefficient"),
    # the first loop: a negated literal moves its coefficient to the degree
    ([(1, -1)], ">=", _I64_MIN, "adjusted degree"),
    ([(1, 2), (_BIG, -1), (_BIG, -3)], ">=", -1, "adjusted degree"),
    # the second loop: a negative net coefficient flips its literal
    ([(-1, 1)], ">=", I64_MAX, "adjusted degree"),
    ([(-1, 1), (-1, 2)], ">=", I64_MAX - 1, "adjusted degree"),
    ([(_BIG, 1), (_BIG, 2)], ">=", I64_MAX, "coefficient sum"),
    ([(-_BIG, 1), (-_BIG, 2)], "<=", -I64_MAX, "coefficient sum"),
]


class TestOverflowPaths:
    @pytest.mark.parametrize("raw, op, degree, what", _OVERFLOWS)
    def test_normalize_terms_names_the_value(self, raw, op, degree, what):
        with pytest.raises(CoefficientOverflowError) as info:
            normalize_terms(raw, op, degree)
        assert str(info.value) == "%s exceeds the 64-bit range" % what

    # the token check rejects a value past 64 bits before normalization
    @pytest.mark.parametrize("raw, op, degree, what", [
        case for case in _OVERFLOWS
        if all(_I64_MIN <= v <= I64_MAX for v in [case[2]] + [c for c, _ in case[0]])])
    def test_parse_names_the_line(self, raw, op, degree, what):
        line = " ".join("%+d %sx%d" % (c, "~" if l < 0 else "", abs(l)) for c, l in raw)
        text = "+1 x1 >= 1 ;\n+1 x2 >= 1 ;\n%s %s %d ;\n" % (line, op, degree)
        with pytest.raises(OpbParseError) as info:
            parse_opb(text)
        assert str(info.value) == "line 3: %s exceeds the 64-bit range" % what
        assert info.value.line_no == 3

    def test_values_at_the_bounds_pass(self):
        bodies, unsat = normalize_terms([(I64_MAX, 1)], ">=", I64_MAX)
        assert bodies == [(((I64_MAX, 1),), I64_MAX)] and not unsat
        bodies, unsat = normalize_terms([(_I64_MIN, 1)], ">=", _I64_MIN)
        assert bodies == [] and not unsat


def _render_opb(rng, num_vars, triples, header):
    """OPB text of raw triples, spaced, signed and terminated at random."""
    def sep():
        return rng.choice([" ", "  ", "\t", " \t ", "   "])

    def number(value):
        return ("+%d" % value) if value >= 0 and rng.random() < 0.5 else str(value)

    lines = []
    if header:
        lines.append("* #variable= %d #constraint= %d" % (num_vars, len(triples)))
    for raw, op, degree in triples:
        tokens = []
        for coeff, lit in raw:
            tokens += [number(coeff), "%sx%d" % ("~" if lit < 0 else "", abs(lit))]
        tokens += [op, number(degree)]
        line = sep().join(tokens)
        line += ";" if rng.random() < 0.5 else sep() + ";"
        if rng.random() < 0.3:
            line = sep() + line + sep()
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "* a comment", sep()]))
    return "\n".join(lines) + rng.choice(["\n", ""])


def _random_triples(rng, n):
    triples = []
    for _ in range(rng.randint(0, 8)):
        raw = []
        for _ in range(rng.randint(0, 6)):
            v = rng.randint(1, n)
            raw.append((rng.randint(-9, 9), v if rng.random() < 0.5 else -v))
        if raw and rng.random() < 0.2:
            # x + ~x, and a repeated variable
            coeff, lit = rng.choice(raw)
            raw.append((coeff, -lit) if rng.random() < 0.5 else (rng.randint(-9, 9), lit))
        triples.append((raw, rng.choice([">=", "<=", "="]), rng.randint(-12, 12)))
    return triples


class TestDifferentialParse:
    def test_parse_equals_build_formula(self):
        rng = random.Random(2029)
        for _ in range(400):
            n = rng.randint(1, 9)
            triples = _random_triples(rng, n)
            referenced = max((abs(l) for raw, _, _ in triples for _, l in raw), default=0)
            header = rng.random() < 0.5
            num_vars = referenced + rng.randint(0, 3) if header else referenced
            text = _render_opb(rng, num_vars, triples, header)
            got = parse_opb(text)
            want = build_formula(num_vars, triples)
            assert got.num_vars == want.num_vars, text
            assert bodies_of(got) == bodies_of(want), text
            assert got.unsat_at_load == want.unsat_at_load, text
