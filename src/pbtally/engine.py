"""Assignment trail, slack-driven propagation, and conflict learning.

All search state lives on one trail of literals split into decision
levels. Each constraint carries a running slack: the coefficient mass
of its not-yet-false literals minus the degree. Below 0 no extension
can satisfy it (a conflict), and any unassigned literal whose
coefficient exceeds the slack must be true. Original constraints also
carry a gap, the degree minus the coefficient mass of their true
literals; at or below 0 the constraint is satisfied outright. Learned
constraints keep no gap, and are visited once: the learned store is a
stack, so a learned constraint lives only while the trail below its
level stands. Its one scan, when it joins, forces what it asserts;
after that it is only the reason of those literals until the backjump
that pops it, and its slack stays the value that scan read. Dropping
its later scans forces fewer literals, which never drops a model: it
is implied by the original constraints, which are always propagated.

That scan forces only variables of the component of the frame at the
backjump's level ``jump``, so components counted apart stay apart. Every
literal of a learned constraint is false at its conflict: analysis keeps
only false literals, and its fallback clause negates decisions. So its
open literals after the backjump were set above ``jump``, all inside
that component: each frame's component is split from its parent's, and
an original constraint forces only inside the component that holds the
literal that lowered its slack. :meth:`Engine.propagate` asserts this
against the component named by :meth:`Engine.set_scope`.

Propagation is two-phase: enqueueing a literal only records it, the
arithmetic happens when the trail pointer reaches it, so a backjump can
undo exactly the applied prefix. An original constraint is scanned for
forcing where its slack drops; the slack counts the applied prefix
only, so a scan never forces too much, and what it misses is forced
when a later literal lowers the slack again. A learned constraint that
joined since the last propagation is scanned when the next one starts.

Conflicts are rewritten into learned constraints by cancelling the
reason of the most recently falsified propagated literal into the
conflict. Before each cancellation the reason is weakened down to the
literals that were already false when it propagated and ceiling-divided
by the propagated coefficient; that keeps the combined constraint
contradicting the current assignment at every step, so the loop either
reaches a constraint that forces something after a backjump or proves
the formula empty of models.
"""

from __future__ import annotations

from typing import Optional

from .formula import PBConstraint, PBFormula, lit_var, term_order

UNASSIGNED = -1

#: learned coefficients and degrees above this trigger the clausal fallback
COEFF_GUARD = 1 << 62

_ACTIVITY_DECAY = 0.98
_ACTIVITY_CAP = 1e100


class Engine:
    """Propagation and learning over one normalized formula.

    Constraint ids index ``constraints`` and every per-constraint list:
    originals first, then learned ones from ``first_learned``. The learned
    ones form a stack: ``learned_level`` holds the decision level each was
    learned at, and a backjump below that level pops it. Ids are never
    renumbered: a learned constraint keeps its ``cid`` until it is popped.
    ``scan_from`` is the first id that has not been scanned for forcing
    since it joined; :meth:`propagate` scans the ids from there on, and
    that is the only scan a learned constraint gets.
    Terms run greatest coefficient first (see :class:`PBConstraint`), so a
    forcing scan stops at the first coefficient within the slack.

    ``slack`` covers every constraint, ``gapv`` the originals only; a
    learned constraint's slack is the one its scan reads, taken from the
    trail when it joined. ``occ_static[v]`` lists ``(cid, coeff,
    positive)`` for each original term over variable ``v``, and the trail
    is applied through it alone.
    """

    def __init__(self, formula: PBFormula):
        n = formula.num_vars
        self.num_vars = n
        self.constraints = list(formula.constraints)
        self.first_learned = len(self.constraints)
        #: the decision level of each learned constraint, oldest first
        self.learned_level = []

        self.val = [UNASSIGNED] * (n + 1)
        self.level = [0] * (n + 1)
        self.pos = [0] * (n + 1)
        self.reason = [-1] * (n + 1)
        self.activity = [0.0] * (n + 1)

        self.trail = []
        self.trail_lim = []
        self.qhead = 0

        self.occ_static = [[] for _ in range(n + 1)]
        self.slack = []
        self.gapv = []
        for c in self.constraints:
            for coeff, lit in c.terms:
                self.occ_static[lit_var(lit)].append((c.cid, coeff, lit > 0))
            self.slack.append(c.coef_sum() - c.degree)
            self.gapv.append(c.degree)

        # the first constraint id not scanned since it joined
        self.scan_from = 0
        #: the variables a learned constraint's scan may force, or None for all
        self.scope = None

        self.var_inc = 1.0
        self.learned_total = 0
        self.learned_bytes = 0
        self.n_propagations = 0

    # ----- assignment queries -------------------------------------------

    def current_level(self) -> int:
        return len(self.trail_lim)

    def lit_value(self, lit: int):
        """True, False, or None for unassigned."""
        v = self.val[lit_var(lit)]
        if v == UNASSIGNED:
            return None
        return (v == 1) == (lit > 0)

    def assignment_dict(self) -> dict:
        return {lit_var(lit): lit > 0 for lit in self.trail}

    def trail_view(self):
        return [(lit, self.level[lit_var(lit)], self.reason[lit_var(lit)])
                for lit in self.trail]

    # ----- scope ---------------------------------------------------------

    def set_scope(self, var_ids) -> None:
        """Name the component being counted: :meth:`propagate` asserts that a
        learned constraint's join scan forces nothing outside it."""
        self.scope = var_ids

    def clear_scope(self) -> None:
        """No component is being counted: the root's scans may force anything."""
        self.scope = None

    # ----- trail ---------------------------------------------------------

    def decide(self, lit: int) -> None:
        assert self.val[lit_var(lit)] == UNASSIGNED
        self.trail_lim.append(len(self.trail))
        self._enqueue(lit, -1)

    def _enqueue(self, lit: int, reason_ci: int) -> None:
        v = lit_var(lit)
        self.val[v] = 1 if lit > 0 else 0
        self.level[v] = len(self.trail_lim)
        self.pos[v] = len(self.trail)
        self.reason[v] = reason_ci
        if reason_ci >= 0:
            self.n_propagations += 1
        self.trail.append(lit)

    def propagate(self) -> Optional[int]:
        """Run to fixpoint. Returns a conflicting constraint id, or None.

        Scans the constraints from ``scan_from`` on, then applies the
        trail, which scans each original constraint whose slack it lowers.
        """
        trail = self.trail
        while self.scan_from < len(self.constraints):
            ci = self.scan_from
            self.scan_from = ci + 1
            start = len(trail)
            confl = self._scan_forcing(ci)
            if confl is not None:
                return confl
            assert ci < self.first_learned or self.scope is None or not (
                outside := [v for v in map(lit_var, trail[start:]) if v not in self.scope]), \
                "learned constraint %d forces x%d outside its component" % (ci, outside[0])
        while self.qhead < len(trail):
            confl = self._apply(trail[self.qhead])
            self.qhead += 1
            if confl is not None:
                return confl
        return None

    def _apply(self, lit: int) -> Optional[int]:
        """Fold one trail literal into the slacks and gaps of the originals.

        Each constraint whose slack drops is scanned for forcing at once,
        while its gap is above 0. Always completes the full update so a
        later undo is exact; the first conflict seen is reported after the
        loop, and no scan runs after it.
        """
        v = lit_var(lit)
        truth = lit > 0
        confl = None
        gapv = self.gapv
        slack = self.slack
        for ci, coeff, is_pos in self.occ_static[v]:
            if is_pos == truth:
                gapv[ci] -= coeff
            else:
                s = slack[ci] - coeff
                slack[ci] = s
                if s < 0:
                    if confl is None:
                        confl = ci
                elif confl is None and gapv[ci] > 0:
                    self._scan_forcing(ci)
        return confl

    def _undo_apply(self, lit: int) -> None:
        v = lit_var(lit)
        truth = lit > 0
        gapv = self.gapv
        slack = self.slack
        for ci, coeff, is_pos in self.occ_static[v]:
            if is_pos == truth:
                gapv[ci] += coeff
            else:
                slack[ci] += coeff

    def _scan_forcing(self, ci: int) -> Optional[int]:
        """Force every literal whose coefficient exceeds the slack."""
        s = self.slack[ci]
        if s < 0:
            return ci
        val = self.val
        for coeff, lit in self.constraints[ci].terms:
            if coeff <= s:
                break
            if val[lit_var(lit)] == UNASSIGNED:
                self._enqueue(lit, ci)
        return None

    def backjump_to(self, target_level: int) -> None:
        """Retract every assignment above the target decision level, and
        pop every learned constraint learned above it."""
        assert 0 <= target_level <= len(self.trail_lim)
        if target_level == len(self.trail_lim):
            return
        # each popped constraint was learned at a level above the target, and
        # everything it forced lies at that level or deeper, so no reason
        # left on the trail names it
        learned_level = self.learned_level
        while learned_level and learned_level[-1] > target_level:
            learned_level.pop()
            self.slack.pop()
            self.learned_bytes -= self._learned_cost(len(self.constraints.pop().terms))
        if self.scan_from > len(self.constraints):
            self.scan_from = len(self.constraints)
        target = self.trail_lim[target_level]
        trail = self.trail
        for i in range(len(trail) - 1, target - 1, -1):
            lit = trail[i]
            v = lit_var(lit)
            if i < self.qhead:
                self._undo_apply(lit)
            self.val[v] = UNASSIGNED
            self.reason[v] = -1
        del trail[target:]
        del self.trail_lim[target_level:]
        if self.qhead > target:
            self.qhead = target

    # ----- activities ----------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > _ACTIVITY_CAP:
            scale = 1.0 / _ACTIVITY_CAP
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= scale
            self.var_inc *= scale

    def _bump_and_decay(self, touched) -> None:
        for v in touched:
            self._bump_var(v)
        self.var_inc /= _ACTIVITY_DECAY

    # ----- conflict analysis ----------------------------------------------

    def analyze(self, confl_ci: int):
        """Turn a conflict into a learned constraint and a backjump level.

        Returns ``(terms, degree, backjump_level)``, or None when the
        contradiction persists with every decision retracted, meaning the
        whole search is over with zero models. The returned constraint is
        implied by the original formula, is falsified by the current
        assignment, and forces at least one literal once the trail is cut
        back to the returned level. Its terms come in no set order.

        One conflict costs one backward walk of the trail. Each step
        resolves on the deepest propagated literal of the constraint, found
        by a pointer into the trail. Every literal a step adds was false
        before the literal it resolves on was propagated, so it lies below
        the pointer, and the pointer never moves back up. Above the pointer
        the constraint holds only decisions, one per level at most.

        The coefficient sum of each level, and a bound from above on its
        greatest coefficient, live in lists indexed by level, and a step
        changes them only where it changes a coefficient. The bound never
        drops, not even when a step removes the greatest coefficient, so a
        cut it admits is confirmed against the exact coefficients before it
        is taken: one pass over the constraint per conflict in practice.

        A step always finds a propagated literal. Otherwise none is at
        level 0, where every literal has a reason, and each deeper level
        holds just its decision, with a saturated coefficient at most the
        degree. The running sum over the levels then first reaches the
        degree (it does, or there are no models) at a level whose
        coefficient exceeds the slack after the cut, and the scan of the
        levels returned there.
        """
        val, level = self.val, self.level
        c = self.constraints[confl_ci]
        # weaken every non-falsified literal away so the conflict is a
        # pure statement about assigned-false literals, then saturate:
        # mass above the degree never matters
        false = [(a, lit) for a, lit in c.terms if val[abs(lit)] == (lit < 0)]
        degree = c.degree - c.coef_sum() + sum(a for a, _ in false)
        assert degree >= 1, "constraint was not actually conflicting"
        coeffs = {}
        lsum = [0] * (len(self.trail_lim) + 1)
        lmax = lsum[:]
        for a, lit in false:
            a = coeffs[lit] = min(a, degree)
            d = level[abs(lit)]
            lsum[d] += a
            lmax[d] = max(lmax[d], a)
        touched = set()
        trail, reason = self.trail, self.reason
        i = len(trail) - 1

        while True:
            # walk candidate backjump levels from the deepest falsified
            # level down; the first candidate whose slack admits a forcing
            # coefficient is the deepest asserting cut, the one that
            # retracts the least work. No coefficient exceeds the degree,
            # so none can force once the slack reaches it.
            run_sum = run_max = 0
            for d in range(len(lsum) - 1, 0, -1):
                if not lsum[d]:
                    continue
                run_sum += lsum[d]
                if lmax[d] > run_max:
                    run_max = lmax[d]
                slack_after = run_sum - degree
                if 0 <= slack_after < run_max:
                    run_max = max(a for lit, a in coeffs.items() if level[abs(lit)] >= d)
                    if run_max > slack_after:
                        touched.update(map(abs, coeffs))
                        self._bump_and_decay(touched)
                        return tuple(zip(coeffs.values(), coeffs)), degree, d - 1
                if slack_after >= degree:
                    break
            else:
                if run_sum < degree:
                    # still contradictory with every decision undone
                    touched.update(map(abs, coeffs))
                    self._bump_and_decay(touched)
                    return None

            while -trail[i] not in coeffs or reason[abs(trail[i])] < 0:
                i -= 1
            degree = self._resolve_step(coeffs, degree, i, lsum, lmax, touched)
            if degree is None:
                terms, fdeg, jump = self._fallback_clause(touched)
                self._bump_and_decay(touched)
                return terms, fdeg, jump

    def _resolve_step(self, coeffs: dict, degree: int, p_pos: int, lsum, lmax, touched: set):
        """Cancel the reason of the trail literal at ``p_pos`` into coeffs.

        ``coeffs`` holds that literal's negation. Mutates ``coeffs``, the
        per-level sums ``lsum`` and the bounds ``lmax`` in place and returns
        the new degree, or None when the arithmetic would outgrow
        ``COEFF_GUARD``, in which case the caller falls back to a clause
        over the current decisions.

        The new degree is ``degree + mult * (rdeg - 1)`` with ``rdeg >= 1``,
        so the degree never falls, every coefficient saturated at an
        earlier step stays at or below it, and only the merged coefficients
        need saturating.
        """
        forced_lit = self.trail[p_pos]
        v_p = abs(forced_lit)
        touched.add(v_p)
        reason = self.constraints[self.reason[v_p]]
        val, pos, level = self.val, self.pos, self.level

        # weaken the reason down to its forced literal plus the literals
        # already false when it propagated, then ceiling-divide by the
        # forced coefficient; the quotient was still propagating then
        rdeg = reason.degree
        kept = []
        a_forced = None
        for coeff, lit in reason.terms:
            v = lit if lit > 0 else -lit
            if val[v] == (lit < 0) and pos[v] < p_pos:
                kept.append((coeff, lit, level[v]))
            elif v == v_p:
                a_forced = coeff
            else:
                rdeg -= coeff
        assert rdeg >= 1 and a_forced is not None
        rdeg = -(-rdeg // a_forced)

        mult = coeffs.pop(-forced_lit)
        lsum[level[v_p]] -= mult
        degree += mult * (rdeg - 1)
        if degree > COEFF_GUARD:
            return None
        for a, lit, d in kept:
            old = coeffs.get(lit, 0)
            merged = old + mult * -(-a // a_forced)
            if merged > COEFF_GUARD:
                return None
            if merged > degree:
                merged = degree
            coeffs[lit] = merged
            lsum[d] += merged - old
            if merged > lmax[d]:
                lmax[d] = merged
        return degree

    def _fallback_clause(self, touched: set):
        """Clause forbidding the current decision sequence.

        The branch is contradictory, so the original formula implies that
        these decisions cannot all hold together. With all but the last
        decision in place the clause forces that last one flipped.
        """
        terms = []
        for d in range(1, len(self.trail_lim) + 1):
            dec = self.trail[self.trail_lim[d - 1]]
            touched.add(lit_var(dec))
            terms.append((1, -dec))
        return tuple(terms), 1, len(self.trail_lim) - 1

    # ----- learned constraint store ---------------------------------------

    def add_learned(self, terms, degree: int) -> int:
        """Push a learned constraint at the current level and return its id.

        The next :meth:`propagate` scans it, and the slack recorded here is
        the one that scan reads.
        """
        assert self.qhead == len(self.trail), "trail must be fully applied"
        cid = len(self.constraints)
        c = PBConstraint(cid, terms, degree)
        self.constraints.append(c)
        val = self.val
        s = 0
        for coeff, lit in c.terms:
            if val[lit if lit > 0 else -lit] != (lit < 0):
                s += coeff
        self.slack.append(s - degree)
        self.learned_level.append(len(self.trail_lim))
        self.learned_total += 1
        self.learned_bytes += self._learned_cost(len(terms))
        return cid

    @staticmethod
    def _learned_cost(n_terms: int) -> int:
        return 24 * n_terms + 80

    # ----- integrity (debug) ----------------------------------------------

    def check_integrity(self, expect_quiescent: bool = True) -> None:
        """Recompute all incremental state from scratch and compare.

        That is the slack and gap of every original constraint, the levels
        of the learned stack and its byte count. A learned constraint's
        slack is read once, by its scan when it joins, and its forcings are
        checked by the replay below. Slow; meant for tests. With
        ``expect_quiescent`` the trail must be fully applied, every
        constraint scanned, and original constraints at their forcing
        fixpoint. Also checks the trail's shape, which conflict analysis
        walks: ``trail_lim`` rises strictly, each variable's level is the
        number of ``trail_lim`` entries at or below its position, and
        exactly the literals at those entries have no reason. Then it
        replays the trail to confirm every propagated literal was genuinely
        forced by its recorded reason at the moment it was enqueued.
        """
        n = self.num_vars
        lim = self.trail_lim
        bounds = [-1, *lim, len(self.trail)]
        assert all(a < b for a, b in zip(bounds, bounds[1:])), \
            "trail_lim is not strictly increasing inside the trail"
        assigned = {}
        for i, lit in enumerate(self.trail):
            v = lit_var(lit)
            assert self.val[v] == (1 if lit > 0 else 0), "trail/val mismatch at %d" % i
            assert self.pos[v] == i, "trail position drift on x%d" % v
            assert v not in assigned, "duplicate trail variable x%d" % v
            assert self.level[v] == sum(s <= i for s in lim), "level drift on x%d" % v
            assert (self.reason[v] == -1) == (i in lim), \
                "x%d: a reason is missing or a decision has one" % v
            assigned[v] = lit > 0
        for v in range(1, n + 1):
            if v not in assigned:
                assert self.val[v] == UNASSIGNED, "stale value on x%d" % v

        # the slacks and gaps of original constraints reflect exactly the
        # applied prefix of the trail
        applied = {}
        for lit in self.trail[:self.qhead]:
            applied[lit_var(lit)] = lit > 0
        m = len(self.constraints)
        for ci, c in enumerate(self.constraints):
            assert c.cid == ci, "constraint %d carries id %d" % (ci, c.cid)
            assert all(term_order(t) < term_order(u) for t, u in zip(c.terms, c.terms[1:])), \
                "constraint %d holds its terms out of order" % ci
            if ci >= self.first_learned:
                continue
            s = -c.degree
            g = c.degree
            for coeff, lit in c.terms:
                truth = applied.get(lit_var(lit))
                if truth is None or truth == (lit > 0):
                    s += coeff
                if truth is not None and truth == (lit > 0):
                    g -= coeff
            assert self.slack[ci] == s, "slack drift on constraint %d" % ci
            assert self.gapv[ci] == g, "gap drift on constraint %d" % ci
        assert len(self.slack) == m and len(self.gapv) == self.first_learned \
            and self.scan_from <= m, \
            "per-constraint lists out of step with the constraints"

        # the learned constraints are a stack: one level each, never falling
        # along it and none above the current level
        levels = [0, *self.learned_level, len(lim)]
        assert len(levels) == m - self.first_learned + 2, \
            "learned_level out of step with the learned constraints"
        assert all(a <= b for a, b in zip(levels, levels[1:])), \
            "learned levels fall, or one lies above the current level"

        assert self.learned_bytes == sum(self._learned_cost(len(c.terms))
                                         for c in self.constraints[self.first_learned:]), \
            "learned_bytes drift"

        # replay: each propagated literal had coefficient > slack when set
        replay = {}
        for lit in self.trail:
            v = lit_var(lit)
            r = self.reason[v]
            if r >= 0:
                assert r < m, "reason %d names no constraint" % r
                reason = self.constraints[r]
                s = -reason.degree
                a_lit = None
                for coeff, rl in reason.terms:
                    if rl == lit:
                        a_lit = coeff
                    rv = replay.get(lit_var(rl))
                    if rv is None or rv == (rl > 0):
                        s += coeff
                assert a_lit is not None, "reason lacks its literal"
                assert a_lit > s, "literal was not forced by its reason"
            replay[v] = lit > 0

        if expect_quiescent:
            assert self.qhead == len(self.trail), "unapplied trail entries"
            assert self.scan_from == m, "constraints not yet scanned"
            for ci in range(self.first_learned):
                if self.gapv[ci] <= 0:
                    continue
                s = self.slack[ci]
                assert s >= 0, "unnoticed conflict on constraint %d" % ci
                for coeff, lit in self.constraints[ci].terms:
                    if coeff <= s:
                        break
                    assert self.val[lit_var(lit)] != UNASSIGNED, \
                        "missed forcing on constraint %d" % ci
