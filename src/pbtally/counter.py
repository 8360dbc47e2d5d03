"""Exact model counting by component-splitting conflict-driven search.

The search keeps a stack of frames, one per subproblem being counted.
A frame owns a branching literal; each branch is propagated, split into
variable-disjoint residual components, and every component is answered
from the cache, counted by enumerating its assignments when it is small
(``CounterConfig.leaf_cells``), counted by a table over its gaps when its
constraints all span its block, or pushed as a child frame. A finished
frame reports models(branch true) + models(branch false), multiplied into
its parent, and unconstrained variables contribute a power of two
directly.

When exactly one constraint K holds every variable beside narrower
ones, K leaves the engine, the split and the cache keys, no gap table is
built, and every other count above becomes a vector over K's weight
(:mod:`pbtally.mass`): components multiply as polynomials, branches add,
a free variable is a factor ``1 + z**a``, and a branch is shifted by the
K weight of the literals set at its level. The count is the root
vector's entry at K's degree.

Conflicts are analyzed into learned constraints as in a clause-learning
satisfiability search; each one is dropped when the search backjumps
below the level it was learned at. Because a conflict proves the current
combination of assumptions impossible, every cache entry inserted after
the backjump target's decision was made is purged: such entries were
computed while an impossible sibling subproblem was still considered
open and their values cannot be trusted. Learned constraints also only
ever force variables inside the subproblem currently being counted,
which keeps independently-multiplied components actually independent.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Callable, Optional

from .components import (Component, CountCache, count_by_gaps, count_bytes,
                         count_component, encode_component)
from .engine import Engine, UNASSIGNED
from .formula import PBFormula, lit_var
from .mass import MassVectors, choose_mass_constraint

#: the memory budget, which walks the open frames, is checked every 256
#: decisions, conflicts and counts without search; the deadline is checked
#: at each of them and at every cache hit. Between two checks the slowest
#: work is a product of vectors per frame left: 0.011 s for two dense ones
#: of 4,097 slots of 64 bits, 0.036 s at 128 bits (2-vCPU VM)
_BUDGET_CHECK_MASK = (1 << 8) - 1


class SolveTimeout(Exception):
    """The count did not finish inside the configured wall-clock budget."""


class MemoryBudgetExceeded(Exception):
    """Accounted cache, learned-constraint and weight-vector bytes left the budget."""


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
    constraints, plus with K the weight vectors of the open search frames.
    Both are ints of at least 0 (None lifts the second), and
    ``timeout_s`` is a positive, finite int or float; no ``bool`` passes.
    The learned constraints take no bound of their own: each lives only
    until the search backjumps below the level it was learned at.

    ``leaf_cells``, an int of at least 0, is the largest component the
    counter counts by enumeration instead of search, in cells: its
    constraints times 2 to the power of its variables. A component all of
    whose constraints span its block is also counted without search, by
    :func:`count_by_gaps`, when its table fits. The only constraint over
    every variable, beside a narrower one, becomes the counter's K
    (:attr:`ModelCounter.mass`) when its degree is below ``leaf_cells``:
    it is counted by weight vectors instead of searched, and then no gap
    table is built. 0 turns all three off, so every component is searched
    with every constraint in the engine.

    ``on_event(kind, payload)``, when set, sees the search as it runs:
    ``("decision", (level, lit))`` after each decision, with ``lit`` in
    the input's variable ids, and ``("learned", (terms, degree, jump))``
    after the backjump to ``jump`` and before the learned constraint joins
    the engine; ``terms`` come in no set order, over the ids of
    :attr:`ModelCounter.formula`, which renumbers the input's referenced
    variables 1..n in order.
    """

    __slots__ = ("heuristic", "saturate_keys", "max_cache_bytes",
                 "max_memory_bytes", "timeout_s", "leaf_cells",
                 "on_event", "debug_checks")

    def __init__(self, heuristic: str = "vcis", saturate_keys: bool = True,
                 max_cache_bytes: int = 256 << 20,
                 max_memory_bytes: Optional[int] = None,
                 timeout_s: Optional[float] = None, leaf_cells: int = 4096,
                 on_event: Optional[Callable[[str, tuple], None]] = None,
                 debug_checks: bool = False):
        if heuristic not in ("vcis", "baseline"):
            raise ValueError("heuristic must be 'vcis' or 'baseline'")
        # written so that NaN fails too: every comparison with it is false
        if timeout_s is not None and (type(timeout_s) not in (int, float)
                                      or not 0 < timeout_s < math.inf):
            raise ValueError("timeout_s must be positive and finite, got %r"
                             % (timeout_s,))
        # checked here: a float or None would fail only deep inside a count
        sizes = [("max_cache_bytes", max_cache_bytes), ("leaf_cells", leaf_cells)]
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
        self.leaf_cells = leaf_cells
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
    bodies = []
    for c in formula.constraints:
        body = c.body()
        if body in seen:
            continue
        seen.add(body)
        bodies.append(body)
    if len(bodies) == len(formula.constraints):
        return formula
    return PBFormula(formula.num_vars, bodies, formula.unsat_at_load)


def compact_variables(formula: PBFormula):
    """The formula over its referenced variables, renumbered 1..n in order.

    Returns ``(compact, input_ids)``, where ``input_ids[v]`` is the input
    id of compact variable ``v``; slot 0 is unused. The order is kept, so
    a tie broken by the smallest id breaks the same way in both. Each
    input variable in no constraint doubles the count, and is left to the
    caller. When at least half of the variables are referenced,
    ``formula`` itself comes back: its per-variable lists are at most
    twice as long as needed, the search counts its unreferenced variables
    as free, and no rebuild slows the load.
    """
    used = {lit if lit > 0 else -lit for c in formula.constraints for _, lit in c.terms}
    if 2 * len(used) >= formula.num_vars:
        return formula, range(formula.num_vars + 1)
    used = sorted(used)
    new_id = {v: i for i, v in enumerate(used, 1)}
    bodies = [(tuple((a, new_id[lit] if lit > 0 else -new_id[-lit]) for a, lit in c.terms),
               c.degree) for c in formula.constraints]
    return PBFormula(len(used), bodies, formula.unsat_at_load), [0] + used


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

    __slots__ = ("comp", "key", "lit", "log_pos", "phase",
                 "branch_sum", "prod", "pending")

    def __init__(self, comp, key, lit, log_pos: int):
        self.comp = comp
        self.key = key
        self.lit = lit
        self.log_pos = log_pos
        self.phase = 0
        #: the first branch's count, once it is done
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
        self.mass = choose_mass_constraint(self.formula, self.config.leaf_cells)
        searched = self.formula
        self._vectors = None
        if self.mass is not None:
            searched = self.formula.without(self.mass)
            self._vectors = MassVectors(self.mass, n)
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
        constraints', and with K the vectors the open frames hold."""
        used = self.cache.bytes_used + self.engine.learned_bytes
        if self._vectors is not None:
            for frame in self._stack:
                for p in (frame.prod, frame.branch_sum):
                    if p is not None:
                        used += count_bytes(p)
        return used

    def _count_without_search(self, comp: Component):
        """The component's count by enumeration or by its gaps, or None to search it.

        Enumeration takes a component of at most ``leaf_cells`` cells. It
        evaluates clauses and cardinality rows on bitsets, with no numpy
        call, and rows of unequal coefficients, and K, in numpy tables
        (:func:`count_component`). The gap table takes one whose constraints
        are all flagged in ``_spans_block``: each holds every variable of
        its block, so of the component too, and the table holds about as
        many states as the search would reach, while over many clauses it
        grows as 2 to the power of their number. The table is exact for any
        component, so the flags only choose where it is worth building. It
        must fit in what ``max_memory_bytes`` leaves free, and the deadline
        is checked as it fills. With K no flag is set, and enumeration gives
        the component's vector.
        """
        cfg = self.config
        engine = self.engine
        # cstrs << vars <= leaf_cells, without building 1 << vars
        if len(comp.cstr_ids) <= cfg.leaf_cells >> len(comp.var_ids):
            n = count_component(comp, engine.constraints, engine.gapv, engine.val,
                                self._vectors)
            if n is not None:
                self.stats.leaf_counts += 1
                return n
        if not cfg.leaf_cells:
            return None
        spans = self._spans_block
        for ci in comp.cstr_ids:
            if not spans[ci]:
                return None
        room = cfg.max_memory_bytes
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

    def _level_vector(self, free):
        """With K, a split branch's vector before its components multiply in.

        The free variables' factor, shifted by the K weight of the literals
        set at the current level: the frame's decision and what that propagated.
        """
        engine = self.engine
        lim = engine.trail_lim
        vectors = self._vectors
        return vectors.shift(vectors.free(free),
                             vectors.weight(engine.trail[lim[-1] if lim else 0:]))

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
        mul = operator.mul if vectors is None else vectors.mul
        stack = self._stack
        stack.append(_Frame(None, None, 0, 0))
        stats.peak_depth = 1
        split_gaps = {}  # debug_checks: stack depth -> original gaps at that frame's split

        while True:
            frame = stack[-1]
            if cfg.debug_checks and vectors is not None:
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
                if vectors is None:
                    frame.prod = 1 << len(free)
                else:
                    frame.prod = self._level_vector(free)
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
                return frame.prod if vectors is None else vectors.final(frame.prod)
            else:
                engine.backjump_to(len(stack) - 2)
                if frame.phase == 0:
                    frame.branch_sum = frame.prod
                    frame.phase = 1
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
