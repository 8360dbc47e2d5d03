"""Counts by the weight of one constraint over every variable.

Some formulas hold one constraint K over all of their variables beside
narrower ones: an auction's revenue floor beside its at-most-one rows, a
sensor budget beside the coverage clauses. While K is open it keeps the
residual formula connected, so nothing splits. The counter can instead
leave K out of the search and carry it in the counts: a component's
count becomes a vector ``p[0..d]`` over K's degree ``d``, where ``p[m]``
counts the component's models of the other constraints in which the
true K literals weigh ``m``, and every weight of ``d`` or more is lumped
into ``p[d]``. The formula's count is ``p[d]`` of the whole formula's
vector.

This is algebraic model counting over the semiring of polynomials in
``z`` truncated at ``z**d`` with the higher powers lumped into it
(Kimmig, Van den Broeck & De Raedt, "Algebraic model counting", J.
Applied Logic 2017): components multiply, the two branches of a
decision add, and a variable in no open constraint contributes
``1 + z**a`` for its K coefficient ``a``. Lumping is exact because every
K coefficient is positive after normalization, so a weight only grows:
lumped products are products modulo ``z**(d+1) - z**d``.

A vector is one Python int: ``p[m]`` sits in slot ``m``, bits ``m*B`` up
to ``(m+1)*B``, which is the polynomial at ``z = 2**B`` (Kronecker
substitution: Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 2009). An entry counts
assignments of at most ``n`` variables, so it stays at or below
``2**n``, and ``B``, the smallest multiple of 64 of at least ``n + 2``,
leaves no carry between slots. Two vectors add with ``+``, and their
product is one integer multiplication, done in C. The sum of a vector's
entries is also at most ``2**n``, below ``2**B - 1``, so the lump, the
sum of the slots from ``d`` up, is that part of the int modulo
``2**B - 1``.

Without K a count is a plain int, and :class:`PlainCounts` gives it the
same interface, so the search has one code path for both.
"""

from __future__ import annotations

import operator
from typing import Optional

from .formula import PBConstraint, PBFormula

#: K's degree must stay below this. It is the enumerator's bound, not a
#: measured crossover: ROADMAP item 3 measures where vectors win
MAX_MASS_DEGREE = 4096


def choose_mass_constraint(formula: PBFormula) -> Optional[PBConstraint]:
    """K for :class:`MassVectors`, or None when the formula has none.

    K is the one constraint over every referenced variable of ``formula``,
    beside at least one other, when its degree is below
    :data:`MAX_MASS_DEGREE`. A second constraint over every variable keeps
    the search connected with K or without it, so then none is chosen; an
    ``=`` over every variable normalizes into two. Such a formula, a
    knapsack among them, is left to the table over the gaps, which never
    carries K.
    """
    constraints = formula.constraints
    sizes = [len(c.terms) for c in constraints]
    widest = max(sizes, default=0)
    if len(sizes) < 2 or sizes.count(widest) > 1:
        return None
    mass = constraints[sizes.index(widest)]
    # a constraint over all num_vars variables holds every referenced one
    if widest < formula.num_vars:
        held = {abs(lit) for _, lit in mass.terms}
        if any(abs(lit) not in held for c in constraints for _, lit in c.terms):
            return None
    return mass if mass.degree < MAX_MASS_DEGREE else None


def masks_by_mass(ok: int, lits, cap: int) -> dict:
    """The assignments in ``ok`` by the mass of their true literals, capped at ``cap``.

    An assignment set is an int whose bit ``s`` is assignment ``s`` (see
    :func:`pbtally.components.count_component`), and ``lits`` holds one
    ``(a, mask)`` per literal: its coefficient and the assignments that
    make it true. The map starts as ``{0: ok}``, and each literal moves
    the assignments that make it true up by its coefficient. Returns a
    dict from each mass reached to the assignments that reach it, none of
    them empty. This is the layered construction of Abio et al., "BDDs for
    pseudo-Boolean constraints -- revisited" (SAT 2011), on every
    assignment at once.
    """
    by_mass = {0: ok}
    for a, lit in lits:
        moved = {}
        for m, s in by_mass.items():
            up = s & lit
            if up:
                s ^= up
                u = m + a if m + a < cap else cap
                moved[u] = moved.get(u, 0) | up
            if s:
                moved[m] = moved.get(m, 0) | s
        by_mass = moved
    return by_mass


class PlainCounts:
    """Plain counts, with the interface of :class:`MassVectors`.

    Without K a count is an int: components multiply, each free variable
    doubles it, a leaf counts its satisfying assignments, and the count is
    the root's. It holds no state.
    """

    __slots__ = ()

    mul = staticmethod(operator.mul)

    @staticmethod
    def branch(free, trail, trail_lim) -> int:
        """A split branch's count before its components multiply in."""
        return 1 << len(free)

    @staticmethod
    def leaf(ok: int, var_ids, true, false) -> int:
        """The count of a leaf whose satisfying assignments are the bits of ``ok``."""
        return ok.bit_count()

    @staticmethod
    def final(p: int) -> int:
        return p

    @staticmethod
    def fits(p: int) -> bool:
        return True


class MassVectors:
    """The vector helpers for one K: free factor, shift, multiply, leaf and final.

    A vector is an int of ``degree + 1`` slots of :attr:`slot_bits` bits
    (see the module docstring). Every helper returns one whose slots above
    the degree are lumped into slot ``degree``, and two of them add with
    ``+``. The methods that :class:`PlainCounts` shares take the same
    arguments.
    """

    __slots__ = ("degree", "signed", "slot_bits", "_lit_weight", "_lump_at", "_end",
                 "_below", "_ones")

    def __init__(self, mass: PBConstraint, num_vars: int):
        d = self.degree = mass.degree
        #: B, the bits of one slot: the smallest multiple of 64 of at least
        #: num_vars + 2, so no entry or sum of entries reaches a slot's top
        self.slot_bits = b = -(-(num_vars + 2) // 64) * 64
        #: the first bit of slot d and the first past it, a mask of the
        #: slots below d, and 2**B - 1, modulo which an int is congruent to
        #: the sum of its slots
        self._lump_at = d * b
        self._end = (d + 1) * b
        self._below = (1 << d * b) - 1
        self._ones = (1 << b) - 1
        #: per variable, its K coefficient capped at the degree, negative
        #: when K holds its negation
        self.signed = signed = [0] * (num_vars + 1)
        # per literal, its K weight: slot lit for +v, and -v indexes from
        # the end, slot 2 * num_vars + 1 - v, which no positive one uses
        self._lit_weight = lit_weight = [0] * (2 * num_vars + 1)
        for a, lit in mass.terms:
            # a weight past the degree is lumped at it anyway
            if a > d:
                a = d
            lit_weight[lit] = a
            if lit > 0:
                signed[lit] = a
            else:
                signed[-lit] = -a

    def weight(self, lits) -> int:
        """The K weight of the true literals ``lits``."""
        return sum(map(self._lit_weight.__getitem__, lits))

    def fits(self, p: int) -> bool:
        """Whether ``p`` sets no bit above slot ``degree``: nothing is left to lump."""
        return p.bit_length() <= self._end

    def _lump(self, r: int) -> int:
        """``r`` with its slots from the degree up summed into slot ``degree``."""
        if self.fits(r):
            return r
        at = self._lump_at
        return (r & self._below) | (((r >> at) % self._ones) << at)

    def free(self, variables) -> int:
        """The product of ``1 + z**a`` over ``variables``, ``a`` each one's K coefficient.

        No variables give the unit vector, 1. A variable outside K has
        ``a = 0`` and doubles the vector, a shift by one bit.
        """
        b = self.slot_bits
        signed = self.signed
        p = 1
        doubled = 0
        for v in variables:
            a = signed[v]
            if a:
                p = self._lump(p + (p << abs(a) * b))
            else:
                doubled += 1
        return p << doubled

    def shift(self, p: int, w: int) -> int:
        """``p`` times ``z**w``: every model gains weight ``w``."""
        if not w:
            return p
        # past the degree, every model reaches the lump
        return self._lump(p << min(w, self.degree) * self.slot_bits)

    def mul(self, p: int, q: int) -> int:
        """The vector of two components over disjoint variables: their lumped product."""
        return self._lump(p * q)

    def branch(self, free, trail, trail_lim) -> int:
        """A split branch's vector before its components multiply in.

        The free variables' factor, shifted by the K weight of the literals
        set at the current level: the frame's decision and what that
        propagated, the engine's ``trail`` from the last of ``trail_lim`` on.
        """
        return self.shift(self.free(free),
                          self.weight(trail[trail_lim[-1] if trail_lim else 0:]))

    def leaf(self, ok: int, var_ids, true, false) -> int:
        """The vector of a leaf whose satisfying assignments are the bits of ``ok``.

        ``true[j]`` and ``false[j]`` are the assignments that set
        ``var_ids[j]`` true and false. Each K weight's slot holds the
        popcount of its mask in :func:`masks_by_mass`.
        """
        signed = self.signed
        lits = [(a, true[j]) if a > 0 else (-a, false[j])
                for j, a in enumerate(map(signed.__getitem__, var_ids)) if a]
        b = self.slot_bits
        return sum(s.bit_count() << m * b
                   for m, s in masks_by_mass(ok, lits, self.degree).items())

    def final(self, p: int) -> int:
        """The models that reach K's degree: the count."""
        return p >> self._lump_at
