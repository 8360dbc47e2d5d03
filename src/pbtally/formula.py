"""Pseudo-Boolean formulas in normalized ">=" form.

Literals are signed integers: ``+v`` is variable ``v`` itself, ``-v`` its
negation. Variables are numbered ``1..num_vars``. Every stored constraint
has positive saturated coefficients over distinct variables and a degree
of at least 1; weaker material is either dropped as trivially true or
recorded as an unsatisfiable-input marker on the formula. Its terms are
held largest coefficient first, ties by ascending variable id.

Coefficients, degrees, and per-constraint coefficient sums must fit in a
signed 64-bit integer; anything larger is rejected when the formula is
built. Model counts themselves are unbounded Python integers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

I64_MAX = (1 << 63) - 1
I64_MIN = -I64_MAX - 1

#: a numeric OPB token with more digits is out of the 64-bit range; it is
#: rejected before ``int()``, which refuses more than a few thousand digits
#: and would not name the line
_MAX_TOKEN_DIGITS = 20

GE = ">="
EQ = "="
LE = "<="
RELATIONAL_OPS = (GE, EQ, LE)

#: A partial assignment: variable id -> bool.
Assignment = dict

RawTerm = tuple  # (signed coefficient, signed literal)


class OpbParseError(ValueError):
    """Malformed OPB input. The message always names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class CoefficientOverflowError(OverflowError):
    """A coefficient, degree, or coefficient sum left the 64-bit range."""


def lit_var(lit: int) -> int:
    """Variable id of a literal."""
    return lit if lit > 0 else -lit


def lit_is_true(lit: int, assignment: Assignment) -> bool:
    """True when the literal evaluates to 1 under the partial assignment."""
    return assignment.get(lit_var(lit)) == (lit > 0)


def lit_is_false(lit: int, assignment: Assignment) -> bool:
    """True when the literal evaluates to 0 under the partial assignment."""
    return assignment.get(lit_var(lit)) == (lit < 0)


def term_order(term: tuple) -> tuple:
    """Sort key of a ``(coeff, lit)`` term: larger coefficient, then smaller variable."""
    coeff, lit = term
    return (-coeff, lit if lit > 0 else -lit)


class PBConstraint:
    """One normalized constraint: sum(coeff * literal) >= degree.

    ``terms`` is a tuple of ``(coeff, lit)`` pairs with every coefficient
    positive and no variable repeated, ordered here and nowhere else:
    largest coefficient first, ties by ascending variable id. ``clausal``
    (every coefficient and the degree are 1) is computed once here, because
    the key encoder asks it for every active constraint at every search node.
    """

    __slots__ = ("cid", "terms", "degree", "clausal")

    def __init__(self, cid: int, terms: Sequence[tuple], degree: int):
        self.cid = cid
        self.terms = tuple(sorted(terms, key=term_order))
        self.degree = degree
        self.clausal = degree == 1 and all(c == 1 for c, _ in self.terms)

    def coef_sum(self) -> int:
        return sum(c for c, _ in self.terms)

    def renumbered(self, cid: int, terms: Optional[tuple] = None) -> "PBConstraint":
        """The same constraint under id ``cid``, its terms not sorted again.

        ``terms``, when given, replaces the terms: they must be these terms
        with their variables renamed by an increasing map, which keeps
        their order.
        """
        c = PBConstraint.__new__(PBConstraint)
        c.cid = cid
        c.terms = self.terms if terms is None else terms
        c.degree = self.degree
        c.clausal = self.clausal
        return c

    def body(self) -> tuple:
        """Identity of the constraint minus its id, usable as a dict key."""
        return (self.terms, self.degree)

    def __repr__(self) -> str:
        lhs = " + ".join(
            "%d*%sx%d" % (c, "~" if l < 0 else "", lit_var(l)) for c, l in self.terms
        )
        return "PBConstraint(%d: %s >= %d)" % (self.cid, lhs or "0", self.degree)


class PBFormula:
    """An immutable conjunction of normalized constraints over 1..num_vars.

    ``unsat_at_load`` is set when some input constraint could not be
    satisfied by any assignment (its coefficient sum is below its degree);
    such constraints are not stored, the flag stands in for them.
    """

    __slots__ = ("num_vars", "constraints", "unsat_at_load")

    def __init__(self, num_vars: int, bodies: Iterable[tuple], unsat_at_load: bool = False):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        constraints = []
        for terms, degree in bodies:
            constraints.append(PBConstraint(len(constraints), terms, degree))
        self.num_vars = num_vars
        self.constraints = tuple(constraints)
        self.unsat_at_load = unsat_at_load
        for c in self.constraints:
            for _, lit in c.terms:
                if not 0 < abs(lit) <= num_vars:
                    raise ValueError("constraint %d references x%d outside 1..%d"
                                     % (c.cid, abs(lit), num_vars))

    def kept(self, constraints: Sequence[PBConstraint], new_id=None) -> "PBFormula":
        """A formula of some of these constraints, in the given order, renumbered.

        Each constraint takes its position as its id; one whose id already
        matches is shared. With ``new_id``, an increasing map from every
        referenced variable to ``1..len(new_id)``, the variables are renamed
        too. All constraints are already normalized, ordered and in range,
        and an increasing map keeps the order, so none is sorted or checked
        again: rebuilding the formula from its bodies sorts every term
        again, which adds 5% to the setup of an auction instance (2-vCPU VM).
        """
        rest = PBFormula.__new__(PBFormula)
        rest.unsat_at_load = self.unsat_at_load
        if new_id is None:
            rest.num_vars = self.num_vars
            rest.constraints = tuple(c if c.cid == cid else c.renumbered(cid)
                                     for cid, c in enumerate(constraints))
        else:
            rest.num_vars = len(new_id)
            rest.constraints = tuple(
                c.renumbered(cid, tuple((a, new_id[l] if l > 0 else -new_id[-l])
                                        for a, l in c.terms))
                for cid, c in enumerate(constraints))
        return rest

    def without(self, dropped: PBConstraint) -> "PBFormula":
        """The formula less its constraint ``dropped``, the later ones renumbered."""
        cut = dropped.cid
        return self.kept(self.constraints[:cut] + self.constraints[cut + 1:])

    def __repr__(self) -> str:
        return "PBFormula(num_vars=%d, constraints=%d%s)" % (
            self.num_vars, len(self.constraints),
            ", unsat_at_load" if self.unsat_at_load else "")


def _check_i64(value: int, what: str) -> None:
    if not I64_MIN <= value <= I64_MAX:
        raise CoefficientOverflowError("%s exceeds the 64-bit range" % what)


def _normalize_geq(raw_terms: Iterable[RawTerm], degree: int):
    """Normalize ``sum(raw) >= degree`` into one body, its terms in no set order.

    Returns ``("ok", terms, degree)``, ``("trivial",)`` for a constraint no
    assignment can violate, or ``("unsat",)`` for one no assignment can
    satisfy. Duplicate variables are merged; a literal and its negation
    cancel through x + ~x = 1. Each 64-bit check is a chained comparison
    in line, and ``_check_i64`` is called only to raise.
    """
    net: dict = {}
    rhs = degree
    if not I64_MIN <= rhs <= I64_MAX:
        _check_i64(rhs, "degree")
    for coeff, lit in raw_terms:
        if not I64_MIN <= coeff <= I64_MAX:
            _check_i64(coeff, "coefficient")
        if lit > 0:
            c = net[lit] = net.get(lit, 0) + coeff
        elif lit < 0:
            # a * ~x  ==  a - a*x
            c = net[-lit] = net.get(-lit, 0) - coeff
            rhs -= coeff
        else:
            raise ValueError("variable ids must be >= 1")
        if not I64_MIN <= c <= I64_MAX:
            _check_i64(c, "merged coefficient")
        if not I64_MIN <= rhs <= I64_MAX:
            _check_i64(rhs, "adjusted degree")
    terms = []
    for v, c in net.items():
        if c > 0:
            terms.append((c, v))
        elif c < 0:
            # -a * x  ==  a * ~x - a
            terms.append((-c, -v))
            rhs -= c
            if not I64_MIN <= rhs <= I64_MAX:
                _check_i64(rhs, "adjusted degree")
    if rhs <= 0:
        return ("trivial",)
    # saturation: a coefficient above the degree acts exactly like the degree
    terms = [(c if c < rhs else rhs, l) for c, l in terms]
    total = sum(c for c, _ in terms)
    if not I64_MIN <= total <= I64_MAX:
        _check_i64(total, "coefficient sum")
    if total < rhs:
        return ("unsat",)
    return ("ok", tuple(terms), rhs)


def normalize_terms(raw_terms: Sequence[RawTerm], op: str, degree: int):
    """Normalize one input constraint into zero, one, or two ">=" bodies.

    Returns ``(bodies, unsat)`` where each body is a ``(terms, degree)``
    pair ready for :class:`PBFormula`, and ``unsat`` reports whether any
    direction of the constraint is unsatisfiable outright. "<=" input is
    multiplied by -1 on both sides; "=" input becomes a ">=" / "<=" pair.
    """
    if op not in RELATIONAL_OPS:
        raise ValueError("unknown relational operator %r" % (op,))
    directions = []
    if op in (GE, EQ):
        directions.append((raw_terms, degree))
    if op in (LE, EQ):
        directions.append(([(-c, l) for c, l in raw_terms], -degree))
    bodies = []
    unsat = False
    for terms, rhs in directions:
        result = _normalize_geq(terms, rhs)
        if result[0] == "ok":
            bodies.append((result[1], result[2]))
        elif result[0] == "unsat":
            unsat = True
    return bodies, unsat


def build_formula(num_vars: int, raw_constraints: Iterable[tuple]) -> PBFormula:
    """Build a normalized formula from ``(raw_terms, op, degree)`` triples."""
    bodies = []
    unsat = False
    for raw_terms, op, degree in raw_constraints:
        new_bodies, this_unsat = normalize_terms(raw_terms, op, degree)
        bodies.extend(new_bodies)
        unsat = unsat or this_unsat
    return PBFormula(num_vars, bodies, unsat)


def constraint_gap(c: PBConstraint, assignment: Assignment) -> int:
    """Degree minus the coefficient sum of literals true under the assignment.

    A value of 0 or less means the constraint is satisfied no matter how
    the remaining variables are set.
    """
    return c.degree - sum(coeff for coeff, lit in c.terms if lit_is_true(lit, assignment))


def constraint_slack(c: PBConstraint, assignment: Assignment) -> int:
    """Coefficient sum of not-yet-false literals minus the degree.

    A negative value means no extension of the assignment can satisfy the
    constraint.
    """
    return sum(coeff for coeff, lit in c.terms if not lit_is_false(lit, assignment)) - c.degree


def _parse_opb_int(token: str, line_no: int, what: str) -> int:
    # at most one sign, then digits: "+-5" is malformed
    digits = token[1:] if token[:1] in ("+", "-") else token
    # ASCII only: str.isdigit() also accepts digits like '²' and '٣'
    if not (digits.isascii() and digits.isdigit()):
        raise OpbParseError(line_no, "malformed %s token %r" % (what, token))
    if len(digits) > _MAX_TOKEN_DIGITS:
        raise OpbParseError(line_no, "%s of %d digits exceeds the 64-bit range"
                            % (what, len(digits)))
    value = int(token)
    if not I64_MIN <= value <= I64_MAX:
        raise OpbParseError(line_no, "%s %r exceeds the 64-bit range" % (what, token))
    return value


def _parse_opb_literal(token: str, line_no: int) -> int:
    text = token
    negated = False
    if text.startswith("~"):
        negated = True
        text = text[1:]
    if not (text.startswith("x") and text[1:].isdigit() and text.isascii()):
        raise OpbParseError(line_no, "malformed literal token %r" % (token,))
    if len(text) - 1 > _MAX_TOKEN_DIGITS:
        raise OpbParseError(line_no, "variable index of %d digits exceeds the 64-bit range"
                            % (len(text) - 1))
    index = int(text[1:])
    if index < 1:
        raise OpbParseError(line_no, "variable index must be >= 1 in %r" % (token,))
    if index > I64_MAX:
        raise OpbParseError(line_no, "variable index %r exceeds the 64-bit range" % (token,))
    return -index if negated else index


def parse_opb(source) -> PBFormula:
    """Parse OPB text (str or bytes) into a normalized formula.

    Comment lines start with ``*``; a ``#variable=`` header, when present,
    fixes the variable count (unreferenced trailing variables then count as
    free). Each constraint line is ``<coeff> <lit> ... <op> <degree> ;``
    with ``op`` among ``>=``, ``=``, ``<=``. Objective lines and nonlinear
    terms are rejected.

    An instance spells its terms with few distinct tokens, so each is
    checked once per text: ``numbers`` maps a numeric token (coefficient
    or degree) to its value, ``literals`` a literal token to its signed
    literal, and a later sighting is one lookup. Whether a token is valid never depends on its
    line, and a token that fails is never stored, so the first bad token
    raises with its own line as if every token were checked.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8", "replace")
    elif isinstance(source, str):
        text = source
    else:
        raise TypeError("parse_opb expects str or bytes")

    header_vars = None
    numbers: dict = {}
    literals: dict = {}
    bodies = []
    unsat = False
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("*"):
            if header_vars is None and "#variable=" in line:
                after = line.split("#variable=", 1)[1].strip()
                head = after.split()
                if head and head[0].isdigit() and head[0].isascii():
                    if len(head[0]) > _MAX_TOKEN_DIGITS:
                        raise OpbParseError(line_no, "variable count of %d digits exceeds "
                                            "the 64-bit range" % len(head[0]))
                    header_vars = int(head[0])
            continue
        if line.startswith("min:") or line.startswith("max:"):
            raise OpbParseError(line_no, "objective lines are not supported")

        tokens = line.split()
        if tokens[-1] == ";":
            tokens.pop()
        elif tokens[-1].endswith(";"):
            tokens[-1] = tokens[-1][:-1]
        else:
            raise OpbParseError(line_no, "missing ';' terminator")
        if not tokens:
            raise OpbParseError(line_no, "empty constraint")

        if tokens.count(GE) + tokens.count(EQ) + tokens.count(LE) != 1:
            raise OpbParseError(line_no, "expected exactly one relational operator")
        if len(tokens) < 2 or tokens[-2] not in RELATIONAL_OPS:
            raise OpbParseError(line_no, "expected a single degree after the operator")
        op = tokens[-2]
        degree = numbers.get(tokens[-1])
        if degree is None:
            degree = numbers[tokens[-1]] = _parse_opb_int(tokens[-1], line_no, "degree")

        # the terms hold all but the last two tokens
        if len(tokens) % 2 != 0:
            raise OpbParseError(line_no, "malformed term list (odd token count)")
        raw_terms = []
        for i in range(0, len(tokens) - 2, 2):
            coeff_tok, lit_tok = tokens[i], tokens[i + 1]
            coeff = numbers.get(coeff_tok)
            if coeff is None:
                if coeff_tok.startswith("x") or coeff_tok.startswith("~"):
                    raise OpbParseError(line_no, "nonlinear terms are not supported")
                coeff = numbers[coeff_tok] = _parse_opb_int(coeff_tok, line_no, "coefficient")
            lit = literals.get(lit_tok)
            if lit is None:
                lit = literals[lit_tok] = _parse_opb_literal(lit_tok, line_no)
            raw_terms.append((coeff, lit))

        try:
            new_bodies, this_unsat = normalize_terms(raw_terms, op, degree)
        except CoefficientOverflowError as exc:
            raise OpbParseError(line_no, str(exc)) from exc
        bodies.extend(new_bodies)
        unsat = unsat or this_unsat

    max_var = max(map(abs, literals.values()), default=0)
    num_vars = max_var if header_vars is None else max(header_vars, max_var)
    return PBFormula(num_vars, bodies, unsat)


def parse_opb_file(path) -> PBFormula:
    with open(path, "rb") as handle:
        return parse_opb(handle.read())


def emit_opb(formula: PBFormula) -> str:
    """Render a normalized formula back to OPB text.

    Inverse of :func:`parse_opb` on normalized formulas: negated literals
    come out as ``~x<i>``, every constraint is a ``>=`` line, and each
    line lists its terms largest coefficient first. A formula that was
    unsatisfiable at load gets one more line with no terms, ``>= 1 ;``.
    """
    lines = []
    for c in formula.constraints:
        parts = []
        for coeff, lit in c.terms:
            name = "x%d" % lit if lit > 0 else "~x%d" % -lit
            parts.append("+%d %s" % (coeff, name))
        parts.append(">= %d ;" % c.degree)
        lines.append(" ".join(parts))
    if formula.unsat_at_load:
        lines.append(">= 1 ;")
    header = "* #variable= %d #constraint= %d" % (formula.num_vars, len(lines))
    return "\n".join([header] + lines) + "\n"
