"""Exact model counting by component-splitting conflict-driven search.

The search keeps a stack of frames, one per subproblem being counted.
A frame owns a branching literal; each branch is propagated, split into
variable-disjoint residual components, and every component is answered
from the cache, counted by enumerating its assignments when it is small
(:data:`LEAF_CELLS` cells, or :data:`LEAF_BITS` bits of masks), counted
by a table over its gaps when its constraints all span its block, or
pushed as a child frame. A finished frame reports models(branch true) +
models(branch false), multiplied into its parent, and unconstrained
variables contribute a power of two directly.

When exactly one constraint K holds every variable beside narrower
ones, K leaves the engine, the split and the cache keys, no gap table is
built, and every other count above becomes a vector over K's weight
(:mod:`pbtally.mass`): components multiply as polynomials, branches add,
a free variable is a factor ``1 + z**a``, and a branch is shifted by the
K weight of the literals set at its level. The count is the root
vector's entry at K's degree. The search does not tell the two apart:
it multiplies, starts a branch, counts a leaf and reads the result
through a :class:`~pbtally.mass.MassVectors` or a
:class:`~pbtally.mass.PlainCounts`.

Conflicts are analyzed into learned constraints as in a clause-learning
satisfiability search; each one is dropped when the search backjumps
below the level it was learned at. Because a conflict proves the current
combination of assumptions impossible, every cache entry inserted after
the backjump target's decision was made is purged: such entries were
computed while an impossible sibling subproblem was still considered
open and their values cannot be trusted.

A learned constraint forces only inside the component of the frame it
joins at, so components multiplied as independent stay independent.
Every literal of it was false at its conflict, so after the backjump to
level ``jump`` its open literals were all set above ``jump``. Each of
those lies in ``stack[jump].comp``: every frame's component is split
from its parent's, and an original constraint forces only inside the
active component that holds the literal that lowered its slack. The
search names that component with :meth:`Engine.set_scope`, or calls
:meth:`Engine.clear_scope` at the root, before the propagation that
scans the learned constraint, and the engine asserts that the scan
forces nothing outside it.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import Callable, Optional

from .components import (Component, CountCache, count_by_gaps, count_bytes,
                         count_component, encode_component)
from .engine import Engine, UNASSIGNED
from .formula import PBFormula, lit_var
from .mass import MassVectors, PlainCounts, choose_mass_constraint

#: the memory budget, which walks the open frames, is checked every 256
#: decisions, conflicts and counts without search; the deadline is checked
#: at each of them and at every cache hit. Between two checks the slowest
#: work is a product of vectors per frame left: 0.011 s for two dense ones
#: of 4,097 slots of 64 bits, 0.036 s at 128 bits (2-vCPU VM)
_BUDGET_CHECK_MASK = (1 << 8) - 1

#: the largest component counted by enumeration, in cells: its constraints
#: times 2 to the power of its variables. One enumeration peaks at 2.4 MiB
#: or less at this bound, outside ``max_memory_bytes`` (README, Install)
LEAF_CELLS = 4096

#: a component of k variables past LEAF_CELLS is enumerated too while the
#: mask bits it holds at once, ``(2 * min(held, 2**k) + 2) << k``, stay
#: within this bound: ``held`` is the most masks one row or K keeps, its
#: gap or K's degree, in two maps while a literal is taken. It admits 14
#: variables under clauses and no K, and 9 at the ``auction`` degrees of
#: 39-55; such a call peaks below 100 KiB (README, Install)
LEAF_BITS = 1 << 16


def _leaf_bits(held: int, k: int) -> int:
    """The mask bits enumeration holds at most on ``k`` variables when one
    row or K keeps at most ``held`` masks: two maps of at most
    ``min(held, 2**k)`` masks, two more, ``2**k`` bits each."""
    return (2 * min(held, 1 << k) + 2) << k


@lru_cache(maxsize=None)
def _leaf_bits_vars(held: int, leaf_bits: int) -> int:
    """The most variables ``k`` with ``_leaf_bits(held, k) <= leaf_bits``,
    or 0; cached, so that building a counter takes no loop."""
    k = 0
    while _leaf_bits(held, k + 1) <= leaf_bits:
        k += 1
    return k


class SolveTimeout(Exception):
    """The count did not finish inside the configured wall-clock budget."""


class MemoryBudgetExceeded(Exception):
    """Accounted cache, learned-constraint and open-frame count bytes left the budget."""


class CounterConfig:
    """Knobs for one counting run; defaults match the command line.

    ``heuristic`` picks the branching variable. Under both, a variable
    scores its number of active original constraints plus a bonus.
    ``"vcis"`` adds its conflict activity and its static
    :func:`compute_vcis_scores` score, each over its largest value in the
    component, and takes the static score's preferred phase;
    ``"baseline"`` adds the raw activity and branches positive first.

    ``max_cache_bytes`` bounds the count cache, which evicts its oldest
    entries first; ``max_memory_bytes`` bounds the cache plus the learned
    constraints plus the counts, or with K the weight vectors, of the open
    search frames.
    Both are ints of at least 0 (None lifts the second), and
    ``timeout_s`` is a positive, finite int or float; no ``bool`` passes.
    The learned constraints take no bound of their own: each lives only
    until the search backjumps below the level it was learned at.

    ``search_only``, a ``bool``, searches every component with every
    constraint in the engine. Off, a component of at most :data:`LEAF_CELLS`
    cells, or whose enumeration holds at most :data:`LEAF_BITS` bits of
    masks at once, is enumerated, one whose constraints all span its block
    is counted by :func:`count_by_gaps` when its table fits, and the only
    constraint over every variable, beside a narrower one, becomes K
    (:attr:`ModelCounter.mass`), counted by weight vectors and not
    searched, when its degree is below :data:`~pbtally.mass.MAX_MASS_DEGREE`.

    ``on_event(kind, payload)``, when set, sees the search as it runs:
    ``("decision", (level, lit))`` after each decision, with ``lit`` in
    the input's variable ids, and ``("learned", (terms, degree, jump))``
    after the backjump to ``jump`` and before the learned constraint joins
    the engine; ``terms`` come in no set order, over the ids of
    :attr:`ModelCounter.formula`, which renumbers the input's referenced
    variables 1..n in order.
    """

    __slots__ = ("heuristic", "saturate_keys", "max_cache_bytes",
                 "max_memory_bytes", "timeout_s", "search_only",
                 "on_event", "debug_checks")

    def __init__(self, heuristic: str = "vcis", saturate_keys: bool = True,
                 max_cache_bytes: int = 256 << 20,
                 max_memory_bytes: Optional[int] = None,
                 timeout_s: Optional[float] = None, search_only: bool = False,
                 on_event: Optional[Callable[[str, tuple], None]] = None,
                 debug_checks: bool = False):
        if heuristic not in ("vcis", "baseline"):
            raise ValueError("heuristic must be 'vcis' or 'baseline'")
        # written so that NaN fails too: every comparison with it is false
        if timeout_s is not None and (type(timeout_s) not in (int, float)
                                      or not 0 < timeout_s < math.inf):
            raise ValueError("timeout_s must be positive and finite, got %r"
                             % (timeout_s,))
        if type(search_only) is not bool:
            raise ValueError("search_only must be a bool, got %r" % (search_only,))
        # checked here: a float or None would fail only deep inside a count
        sizes = [("max_cache_bytes", max_cache_bytes)]
        if max_memory_bytes is not None:
            sizes.append(("max_memory_bytes", max_memory_bytes))
        for name, value in sizes:
            if type(value) is not int or value < 0:
                raise ValueError("%s must be an int of at least 0, got %r"
                                 % (name, value))
        self.heuristic = heuristic
        self.saturate_keys = saturate_keys
        self.max_cache_bytes = max_cache_bytes
        self.max_memory_bytes = max_memory_bytes
        self.timeout_s = timeout_s
        self.search_only = search_only
        self.on_event = on_event
        self.debug_checks = debug_checks


class SearchStats:
    __slots__ = ("decisions", "conflicts", "propagations", "learned",
                 "cache_hits", "cache_misses", "cache_stores",
                 "cache_evictions", "cache_purged", "cache_entries",
                 "cache_bytes_peak", "peak_depth", "peak_open_components",
                 "leaf_counts", "gap_counts")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "SearchStats(%s)" % ", ".join(
            "%s=%d" % (name, getattr(self, name)) for name in self.__slots__)


class CountResult:
    __slots__ = ("count", "stats", "cache")

    def __init__(self, count: int, stats: SearchStats, cache: CountCache):
        self.count = count
        self.stats = stats
        self.cache = cache

    def __repr__(self) -> str:
        return "CountResult(count=%d)" % self.count


def dedup_constraints(formula: PBFormula) -> PBFormula:
    """Drop normalized constraints whose body already appeared; if none did, return ``formula``."""
    seen = set()
    kept = []
    for c in formula.constraints:
        body = c.body()
        if body not in seen:
            seen.add(body)
            kept.append(c)
    if len(kept) == len(formula.constraints):
        return formula
    return formula.kept(kept)


def compact_variables(formula: PBFormula):
    """The formula over its referenced variables, renumbered 1..n in order.

    Returns ``(compact, input_ids)``, where ``input_ids[v]`` is the input
    id of compact variable ``v``; slot 0 is unused. The order is kept, so
    a tie broken by the smallest id breaks the same way in both, and no
    term is sorted again. Each input variable in no constraint doubles the
    count, and is left to the caller. When at least half of the variables
    are referenced, ``formula`` itself comes back: its per-variable lists
    are at most twice as long as needed, the search counts its
    unreferenced variables as free, and no rebuild slows the load.
    """
    used = {lit if lit > 0 else -lit for c in formula.constraints for _, lit in c.terms}
    if 2 * len(used) >= formula.num_vars:
        return formula, range(formula.num_vars + 1)
    used = sorted(used)
    new_id = {v: i for i, v in enumerate(used, 1)}
    return formula.kept(formula.constraints, new_id), [0] + used


def compute_vcis_scores(formula: PBFormula):
    """Per-variable coefficient-impact scores and preferred phases.

    Each occurrence of a variable contributes its coefficient divided by
    the constraint's degree: 1.0 when setting that literal alone settles
    the constraint, small when the literal barely matters. A variable's
    score is the mean contribution over the constraints containing it
    (0.0 if it appears in none), and its preferred phase is the polarity
    carrying the larger summed contribution, positive on ties.
    """
    n = formula.num_vars
    impact_sum = [0.0] * (n + 1)
    occ = [0] * (n + 1)
    pos_mass = [0.0] * (n + 1)
    neg_mass = [0.0] * (n + 1)
    for c in formula.constraints:
        k = c.degree
        for coeff, lit in c.terms:
            v = lit_var(lit)
            ratio = coeff / k
            impact_sum[v] += ratio
            occ[v] += 1
            if lit > 0:
                pos_mass[v] += ratio
            else:
                neg_mass[v] += ratio
    scores = [0.0] * (n + 1)
    phases = [True] * (n + 1)
    for v in range(1, n + 1):
        if occ[v]:
            scores[v] = impact_sum[v] / occ[v]
        phases[v] = pos_mass[v] >= neg_mass[v]
    return scores, phases


class _Frame:
    """One subproblem on the search stack.

    The frame at stack index i made its decision at level i; the root
    frame at index 0 decides nothing and only collects the product over
    the top-level components. ``log_pos`` is the cache's log position
    when the frame's current decision was made: a conflict that cuts the
    decision off purges every entry stored since. ``pending``, the
    components not yet counted, is None until the branch is split.
    """

    __slots__ = ("comp", "key", "lit", "log_pos", "branch_sum", "prod", "pending")

    def __init__(self, comp, key, lit, log_pos: int):
        self.comp = comp
        self.key = key
        self.lit = lit
        self.log_pos = log_pos
        #: the first branch's count, once it is done; set, the frame is in
        #: its second branch
        self.branch_sum = None
        #: the current branch's count so far, set when it is split
        self.prod = None
        self.pending = None


class ModelCounter:
    """Single-use driver: construct, then call :meth:`run` once."""

    def __init__(self, formula: PBFormula, config: Optional[CounterConfig] = None):
        self.config = config or CounterConfig()
        formula = dedup_constraints(formula)
        #: the counted formula; its per-variable lists are sized by the
        #: input's referenced variables (see compact_variables)
        self.formula, self.input_ids = compact_variables(formula)
        #: input variables left out of it, each a factor of 2 in the count
        self.unreferenced = formula.num_vars - self.formula.num_vars
        n = self.formula.num_vars
        #: K, the constraint the counts carry as weight vectors instead of
        #: the search (see :mod:`pbtally.mass`), or None
        self.mass = None if self.config.search_only else choose_mass_constraint(self.formula)
        searched = self.formula
        #: what a count is: a weight vector with K, else a plain int
        self._vectors = PlainCounts()
        #: the fewest masks a leaf's rows and K keep, 1 or K's degree, and so
        #: the most variables of a leaf the bits test admits: 14 without K
        self._least_held = 1
        if self.mass is not None:
            searched = self.formula.without(self.mass)
            self._vectors = MassVectors(self.mass, n)
            self._least_held = self.mass.degree
        self._leaf_bits_vars = _leaf_bits_vars(self._least_held, LEAF_BITS)
        #: propagates, learns from and splits the formula without K
        self.engine = Engine(searched)
        self.cache = CountCache(max_bytes=self.config.max_cache_bytes)
        self.stats = SearchStats()
        #: static score and phase per variable; only ``vcis`` scales its scores
        self._scaled = self.config.heuristic == "vcis"
        if self._scaled:
            self._static, self._phase = compute_vcis_scores(self.formula)
        else:
            self._static = [0.0] * (n + 1)
            self._phase = [True] * (n + 1)
        #: components waiting in the ``pending`` lists of all stack frames
        self._open_pending = 0
        self._var_stamp = [0] * (n + 1)
        self._cstr_stamp = [0] * len(searched.constraints)
        self._stamp = 0
        self._ops = 0
        self._deadline = None
        #: the search's frames, while it runs
        self._stack = []
        #: per searched constraint, whether it holds every variable of its
        #: block, the component holding it on the empty trail; only picks
        #: the gap table for a component (see _count_without_search). With
        #: K every flag stays False, so no table is built
        self._spans_block = [False] * len(searched.constraints)
        if self.mass is None:
            for block in self._split_scope(range(1, n + 1))[0]:
                for ci in block.cstr_ids:
                    self._spans_block[ci] = (len(self.engine.constraints[ci].terms)
                                             == len(block.var_ids))

    # ----- pieces ---------------------------------------------------------

    def _split_scope(self, scope_vars):
        """Residual components among the given unassigned variables.

        Two variables connect when an unsatisfied original constraint
        contains both. Returns ``(components, free)``, where ``free``
        lists the variables in no active constraint, in ``scope_vars``
        order: each doubles the model count of the surrounding
        subproblem, or is a factor ``1 + z**a`` of its vector.
        """
        engine = self.engine
        val = engine.val
        gapv = engine.gapv
        occ = engine.occ_static
        constraints = engine.constraints
        self._stamp += 1
        stamp = self._stamp
        vstamp = self._var_stamp
        cstamp = self._cstr_stamp
        comps = []
        free = []
        for v0 in scope_vars:
            if val[v0] != UNASSIGNED or vstamp[v0] == stamp:
                continue
            vstamp[v0] = stamp
            comp_vars = []
            comp_cids = []
            queue = [v0]
            while queue:
                v = queue.pop()
                comp_vars.append(v)
                for ci, _, _ in occ[v]:
                    if cstamp[ci] == stamp:
                        continue
                    cstamp[ci] = stamp
                    if gapv[ci] <= 0:
                        continue
                    comp_cids.append(ci)
                    for _, w in constraints[ci].terms:
                        if w < 0:
                            w = -w
                        if val[w] != UNASSIGNED or vstamp[w] == stamp:
                            continue
                        vstamp[w] = stamp
                        queue.append(w)
            if not comp_cids:
                free.append(v0)
                continue
            comp_vars.sort()
            comp_cids.sort()
            comps.append(Component(comp_vars, comp_cids))
        return comps, free

    def _pick_literal(self, comp: Component) -> int:
        """Branching literal for a component, ties to the smallest id.

        A variable scores its count of active original constraints plus
        its activity plus its static score, and branches on its phase.
        Under ``vcis`` the activity and the :func:`compute_vcis_scores`
        score are each divided by their largest value in the component;
        under ``baseline`` the activity is raw, the static score 0 and
        the phase positive. Each variable's count comes from a walk of
        its occurrence list.
        """
        engine = self.engine
        activity = engine.activity
        static = self._static
        var_ids = comp.var_ids
        act_max = sta_max = 0.0
        if self._scaled:
            for v in var_ids:
                if activity[v] > act_max:
                    act_max = activity[v]
                if static[v] > sta_max:
                    sta_max = static[v]
        act_max = act_max or 1.0
        sta_max = sta_max or 1.0
        occ = engine.occ_static
        gapv = engine.gapv
        best_v = var_ids[0]
        best = -1.0
        for v in var_ids:
            # an active constraint of a component variable is a component
            # constraint, so they are counted without a lookup
            live = 0
            for ci, _, _ in occ[v]:
                if gapv[ci] > 0:
                    live += 1
            score = activity[v] / act_max + static[v] / sta_max + live
            if score > best:
                best = score
                best_v = v
        return best_v if self._phase[best_v] else -best_v

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SolveTimeout("timed out after %.3fs" % self.config.timeout_s)

    def _budget_tick(self) -> None:
        self._check_deadline()
        self._ops += 1
        if self._ops & _BUDGET_CHECK_MASK:
            return
        limit = self.config.max_memory_bytes
        if limit is not None:
            used = self._accounted_bytes()
            if used > limit:
                raise MemoryBudgetExceeded(
                    "accounted %d bytes exceeds budget %d" % (used, limit))

    def _accounted_bytes(self) -> int:
        """The bytes ``max_memory_bytes`` bounds: the cache's, the learned
        constraints', and the counts the open frames hold."""
        used = self.cache.bytes_used + self.engine.learned_bytes
        for frame in self._stack:
            for p in (frame.prod, frame.branch_sum):
                if p is not None:
                    used += count_bytes(p)
        return used

    def _count_without_search(self, comp: Component):
        """The component's count by enumeration or by its gaps, or None to search it.

        None at once under ``search_only``. Enumeration, on bitsets
        (:func:`count_component`), gives the count or, with K, the vector
        of every component of at most :data:`LEAF_CELLS` cells, and of
        every other one whose masks held at once fit in :data:`LEAF_BITS`.
        The cells test keeps the few-variable leaves whose rows reach many
        masses, which the bits test declines; the bits test adds leaves of
        up to 14 variables under clauses, which cost less to enumerate than
        to search. Only a component within ``_leaf_bits_vars`` variables
        reads its gaps for the bits test.

        The gap table takes one whose constraints are all flagged in
        ``_spans_block``: each holds every variable of its block, so of
        the component too, and the table holds about as many states as the
        search would reach, while over many clauses it grows as 2 to the
        power of their number. The table is exact for any component, so
        the flags only choose where it is worth building. It must fit in
        what ``max_memory_bytes`` leaves free, and the deadline is checked
        as it fills. With K no flag is set.
        """
        if self.config.search_only:
            return None
        engine = self.engine
        k = len(comp.var_ids)
        # cstrs << vars <= LEAF_CELLS, without building 1 << vars
        leaf = len(comp.cstr_ids) <= LEAF_CELLS >> k
        if not leaf and k <= self._leaf_bits_vars:
            held = max(self._least_held, max(map(engine.gapv.__getitem__, comp.cstr_ids)))
            leaf = _leaf_bits(held, k) <= LEAF_BITS
        if leaf:
            self.stats.leaf_counts += 1
            return count_component(comp, engine.constraints, engine.gapv, engine.val,
                                   self._vectors)
        spans = self._spans_block
        for ci in comp.cstr_ids:
            if not spans[ci]:
                return None
        room = self.config.max_memory_bytes
        if room is not None:
            room -= self._accounted_bytes()
        n = count_by_gaps(comp, engine.constraints, engine.gapv, engine.val, room,
                          None if self._deadline is None else self._check_deadline)
        if n is not None:
            self.stats.gap_counts += 1
        return n

    def _handle_conflict(self, confl_ci: int, stack) -> bool:
        """Learn from a conflict and rewind. False means zero models overall."""
        self.stats.conflicts += 1
        self._budget_tick()
        engine = self.engine
        outcome = engine.analyze(confl_ci)
        if outcome is None:
            return False
        terms, degree, jump = outcome
        engine.backjump_to(jump)
        # results stored while the contradicted assumptions were open are
        # not trustworthy; drop everything inserted since
        self.cache.purge_from(stack[jump + 1].log_pos)
        self._open_pending -= sum(len(fr.pending) for fr in stack[jump:]
                                  if fr.pending)
        del stack[jump + 1:]
        stack[jump].pending = None
        if self.config.on_event is not None:
            self.config.on_event("learned", (terms, degree, jump))
        engine.add_learned(terms, degree)
        return True

    def _note_decision(self, lit: int) -> None:
        self.stats.decisions += 1
        self._budget_tick()
        if self.config.on_event is not None:
            v = self.input_ids[lit if lit > 0 else -lit]
            self.config.on_event("decision", (self.engine.current_level(),
                                              v if lit > 0 else -v))

    # ----- main loop --------------------------------------------------------

    def _fill_stats(self) -> None:
        """Copy the engine's and the cache's counters into ``stats``."""
        stats = self.stats
        engine = self.engine
        cache = self.cache
        stats.propagations = engine.n_propagations
        stats.learned = engine.learned_total
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.cache_stores = cache.stores
        stats.cache_evictions = cache.evictions
        stats.cache_purged = cache.purged
        stats.cache_entries = len(cache)
        stats.cache_bytes_peak = cache.bytes_peak

    def run(self) -> CountResult:
        if self.config.timeout_s is not None:
            self._deadline = time.monotonic() + self.config.timeout_s
        try:
            count = 0 if self.formula.unsat_at_load else self._search()
        finally:
            # a budget stop reports how far the search got
            self._fill_stats()
        assert 0 <= count <= (1 << self.formula.num_vars)
        return CountResult(count << self.unreferenced, self.stats, self.cache)

    def _search(self) -> int:
        cfg = self.config
        stats = self.stats
        engine = self.engine
        cache = self.cache
        vectors = self._vectors
        mul = vectors.mul
        stack = self._stack
        stack.append(_Frame(None, None, 0, 0))
        stats.peak_depth = 1
        split_gaps = {}  # debug_checks: stack depth -> original gaps at that frame's split

        while True:
            frame = stack[-1]
            if cfg.debug_checks:
                # no vector sets a bit past its last slot, so no slot carried
                assert all(vectors.fits(p) for fr in stack for p in (fr.prod, fr.branch_sum)
                           if p is not None)
            if frame.pending is None:
                if frame.comp is None:
                    engine.clear_scope()
                else:
                    engine.set_scope(frame.comp.var_ids)
                confl = engine.propagate()
                if confl is not None:
                    if not self._handle_conflict(confl, stack):
                        return 0
                    continue
                if cfg.debug_checks:
                    assert engine.current_level() == len(stack) - 1
                    engine.check_integrity()
                if frame.comp is None:
                    scope = range(1, engine.num_vars + 1)
                else:
                    scope = frame.comp.var_ids
                comps, free = self._split_scope(scope)
                if cfg.debug_checks:
                    split_gaps[len(stack)] = engine.gapv[:]
                frame.prod = vectors.branch(free, engine.trail, engine.trail_lim)
                frame.pending = comps
                self._open_pending += len(comps)
                open_comps = self._open_pending + len(stack) - 1
                if open_comps > stats.peak_open_components:
                    stats.peak_open_components = open_comps
            elif frame.pending:
                comp = frame.pending.pop()
                self._open_pending -= 1
                if cfg.debug_checks:
                    # encode_component's precondition: the trail is the one comp was split under
                    assert self._split_scope(comp.var_ids) == ([comp], [])
                    assert engine.gapv == split_gaps[len(stack)]
                key = encode_component(comp, engine.constraints, engine.gapv,
                                       engine.val, cfg.saturate_keys)
                cached = cache.lookup(key)
                if cached is not None:
                    self._check_deadline()
                    frame.prod = mul(frame.prod, cached)
                    continue
                n = self._count_without_search(comp)
                if n is not None:
                    self._budget_tick()
                    frame.prod = mul(frame.prod, cache.store(key, n))
                    continue
                lit = self._pick_literal(comp)
                stack.append(_Frame(comp, key, lit, cache.log_position()))
                if len(stack) > stats.peak_depth:
                    stats.peak_depth = len(stack)
                engine.decide(lit)
                self._note_decision(lit)
            elif len(stack) == 1:
                return vectors.final(frame.prod)
            else:
                engine.backjump_to(len(stack) - 2)
                if frame.branch_sum is None:
                    frame.branch_sum = frame.prod
                    frame.lit = -frame.lit
                    frame.log_pos = cache.log_position()
                    frame.pending = None
                    engine.decide(frame.lit)
                    self._note_decision(frame.lit)
                else:
                    stack.pop()
                    parent = stack[-1]
                    parent.prod = mul(parent.prod,
                                      cache.store(frame.key, frame.branch_sum + frame.prod))


def count_models(formula: PBFormula, config: Optional[CounterConfig] = None) -> CountResult:
    """Exact number of complete assignments satisfying the formula."""
    return ModelCounter(formula, config).run()
