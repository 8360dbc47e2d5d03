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
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from .formula import PBConstraint, PBFormula

#: a vector over at most this many variables is int64: each entry counts
#: assignments of its variables, so it stays at or below 2**62. Vectors
#: over more variables hold Python ints
INT64_VARS = 62


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


def vector_bytes(p: np.ndarray) -> int:
    """The bytes a vector takes: its array, and the ints of a Python-int one."""
    size = sys.getsizeof(p)
    if p.dtype == object:
        size += sum(map(sys.getsizeof, p))
    return size


class MassVectors:
    """The vector helpers for one K: free factor, shift, multiply and final.

    Vectors are numpy arrays of ``degree + 1`` entries, int64 for at most
    :data:`INT64_VARS` variables and ``object`` (Python ints) above; two
    of them add with ``+``. No helper changes a vector it is given, so one
    vector may sit in the cache and in any number of products.
    """

    __slots__ = ("degree", "signed", "_lit_weight")

    def __init__(self, mass: PBConstraint, num_vars: int):
        d = self.degree = mass.degree
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

    def free(self, variables, wide: bool = False) -> np.ndarray:
        """The product of ``1 + z**a`` over ``variables``, ``a`` each one's K coefficient.

        No variables give the unit vector. A variable outside K has
        ``a = 0`` and doubles the vector. ``wide`` asks for Python ints.
        """
        d = self.degree
        p = np.zeros(d + 1, dtype=object if wide else np.int64)
        p[0] = 1
        signed = self.signed
        for v in variables:
            a = abs(signed[v])
            # the entries from d - a up all reach the lump
            top = p[d - a:].sum()
            p[a:d] += p[:d - a]
            p[d] += top
        return p

    def shift(self, p: np.ndarray, w: int) -> np.ndarray:
        """``p`` times ``z**w``: every model gains weight ``w``."""
        if not w:
            return p
        d = self.degree
        # past the degree, every model reaches the lump
        w = min(w, d)
        q = np.zeros_like(p)
        q[w:d] = p[:d - w]
        q[d] = p[d - w:].sum()
        return q

    def mul(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The vector of two components over disjoint variables: the lumped convolution.

        Two int64 vectors convolve in numpy. Over Python ints every product
        is a Python operation either way, so each nonzero entry of the
        sparser vector adds a scaled shift of the other: never more
        products than the convolution, and far fewer when one vector holds
        a few weights, as a small component's does beside a wide frame's.
        """
        d = self.degree
        if p.dtype == q.dtype != object:
            r = np.convolve(p, q)
            r[d] = r[d:].sum()
            return r[:d + 1].copy()
        p_at = p.nonzero()[0]
        q_at = q.nonzero()[0]
        if len(q_at) < len(p_at):
            p, q, p_at = q, p, q_at
        q = q.astype(object, copy=False)
        r = np.zeros(d + 1, dtype=object)
        for j in p_at.tolist():
            a = int(p[j])
            r[d] += a * q[d - j:].sum()
            r[j:d] += a * q[:d - j]
        return r

    def final(self, p: np.ndarray) -> int:
        """The models that reach K's degree: the count."""
        return int(p[self.degree])
