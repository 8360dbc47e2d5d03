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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .formula import PBConstraint, PBFormula


def choose_mass_constraint(formula: PBFormula, leaf_cells: int) -> Optional[PBConstraint]:
    """K for :class:`MassVectors`, or None when the formula has none.

    K is the one constraint over every referenced variable of ``formula``,
    beside at least one other, when its degree is below ``leaf_cells``.
    A second constraint over every variable keeps the search connected
    with K or without it, so then none is chosen; an ``=`` over every
    variable normalizes into two. Such a formula, a knapsack among them,
    is left to the table over the gaps, which never carries K.
    ``leaf_cells=0`` chooses none.
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
    return mass if mass.degree < leaf_cells else None


class MassVectors:
    """The vector helpers for one K: free factor, shift, multiply, pack and final.

    A vector is an int of ``degree + 1`` slots of :attr:`slot_bits` bits
    (see the module docstring). Every helper returns one whose slots above
    the degree are lumped into slot ``degree``, and two of them add with
    ``+``.
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

    def pack(self, counts: np.ndarray) -> int:
        """The vector whose entries are ``counts``, ``degree + 1`` of them below ``2**63``."""
        slots = np.zeros((self.degree + 1, self.slot_bits // 64), dtype="<i8")
        slots[:, 0] = counts
        return int.from_bytes(slots.tobytes(), "little")

    def final(self, p: int) -> int:
        """The models that reach K's degree: the count."""
        return p >> self._lump_at
