"""Exact model counting by component-splitting conflict-driven search.

The search keeps a stack of frames, one per subproblem being counted.
A frame owns a branching literal; each branch is propagated, split into
variable-disjoint residual components, and every component is answered
from the cache, counted by enumerating its assignments when it is small
(``CounterConfig.leaf_cells``), or pushed as a child frame. A finished frame
reports models(branch true) + models(branch false), multiplied into its
parent, and unconstrained variables contribute a power of two directly.

Conflicts are analyzed into learned constraints as in a clause-learning
satisfiability search. Because a conflict proves the current combination
of assumptions impossible, every cache entry inserted after the backjump
target's decision was made is purged: such entries were computed while
an impossible sibling subproblem was still considered open and their
values cannot be trusted. Learned constraints also only ever force
variables inside the subproblem currently being counted, which keeps
independently-multiplied components actually independent.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

from .components import Component, CountCache, count_component, encode_component
from .engine import Engine, UNASSIGNED
from .formula import PBFormula, lit_var

#: budgets are checked every 256 decisions plus conflicts
_BUDGET_CHECK_MASK = (1 << 8) - 1


class SolveTimeout(Exception):
    """The count did not finish inside the configured wall-clock budget."""


class MemoryBudgetExceeded(Exception):
    """Accounted cache plus learned-constraint bytes left the budget."""


class CounterConfig:
    """Knobs for one counting run; defaults match the command line.

    ``heuristic`` picks the branching variable: ``"vcis"`` weighs conflict
    activity and the static :func:`compute_vcis_scores` score equally,
    each scaled by its maximum over the component, and takes the score's
    preferred phase; ``"baseline"`` adds activity to the number of active
    constraints and branches positive first.

    ``max_learned``, an int of at least 0, caps the learned constraints
    the engine holds. Past it the coldest ones that are not a reason on
    the trail are evicted down to 3/4 of the cap.

    ``max_cache_bytes`` bounds the count cache, which evicts its oldest
    entries first; ``max_memory_bytes`` bounds the cache plus the learned
    constraints. Both are ints of at least 0 (None lifts the second), and
    ``timeout_s`` is a positive, finite int or float; no ``bool`` passes.

    ``leaf_cells``, an int of at least 0, is the largest component the
    counter counts by enumeration instead of search, in cells: its
    constraints times 2 to the power of its variables. 0 turns
    enumeration off, so every component is searched.

    ``on_event(kind, payload)``, when set, sees the search as it runs:
    ``("decision", (level, lit))`` after each decision, and
    ``("learned", (terms, degree, jump))`` after the backjump to ``jump``
    and before the learned constraint joins the engine; ``terms`` come in
    no set order.
    """

    __slots__ = ("heuristic", "saturate_keys", "max_cache_bytes",
                 "max_memory_bytes", "timeout_s", "max_learned",
                 "leaf_cells", "on_event", "debug_checks")

    def __init__(self, heuristic: str = "vcis", saturate_keys: bool = True,
                 max_cache_bytes: int = 256 << 20,
                 max_memory_bytes: Optional[int] = None,
                 timeout_s: Optional[float] = None, max_learned: int = 10000,
                 leaf_cells: int = 4096,
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
        sizes = [("max_cache_bytes", max_cache_bytes), ("max_learned", max_learned),
                 ("leaf_cells", leaf_cells)]
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
        self.max_learned = max_learned
        self.leaf_cells = leaf_cells
        self.on_event = on_event
        self.debug_checks = debug_checks


class SearchStats:
    __slots__ = ("decisions", "conflicts", "propagations", "learned",
                 "cache_hits", "cache_misses", "cache_stores",
                 "cache_evictions", "cache_purged", "cache_entries",
                 "cache_bytes_peak", "peak_depth", "peak_open_components",
                 "leaf_counts")

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
        self.branch_sum = 0
        self.prod = 1
        self.pending = None


class ModelCounter:
    """Single-use driver: construct, then call :meth:`run` once."""

    def __init__(self, formula: PBFormula, config: Optional[CounterConfig] = None):
        self.config = config or CounterConfig()
        self.formula = dedup_constraints(formula)
        self.engine = Engine(self.formula, max_learned=self.config.max_learned)
        self.cache = CountCache(max_bytes=self.config.max_cache_bytes)
        self.stats = SearchStats()
        self.vcis_scores, self.vcis_phases = compute_vcis_scores(self.formula)
        #: components waiting in the ``pending`` lists of all stack frames
        self._open_pending = 0
        self._var_stamp = [0] * (self.formula.num_vars + 1)
        self._cstr_stamp = [0] * len(self.formula.constraints)
        #: no constraint covers a component with more variables than its terms
        self._widest = max((len(c.terms) for c in self.formula.constraints), default=0)
        self._stamp = 0
        self._ops = 0
        self._deadline = None

    # ----- pieces ---------------------------------------------------------

    def _split_scope(self, scope_vars, parent: Optional[Component] = None):
        """Residual components among the given unassigned variables.

        Two variables connect when an unsatisfied original constraint
        contains both. Returns ``(components, n_free)`` with free
        variables (in no active constraint) only counted: each doubles
        the model count of the surrounding subproblem.

        ``parent`` is the component whose frame is being split (``None``
        at the root). Unless it is -1, its ``cover`` is a constraint whose
        unassigned variables were exactly the component's when it was
        split: :meth:`run` looks one up before branching on a component,
        and this method passes it on. If the cover is still active, the
        search is skipped: the answer is one component holding the
        parent's still-unassigned variables and still-active constraints,
        with the same cover. That is exact
        after a conflict-free propagation below the parent's split: the
        trail extends the one the parent was split under, so every active
        constraint on the parent's unassigned variables is in
        ``parent.cstr_ids``, and satisfied constraints stay satisfied.
        Each active constraint keeps an unassigned variable, or
        propagation would have found a conflict. The active cover holds
        every unassigned variable, so they stay connected and none is
        free. With ``debug_checks`` the search runs anyway and must agree.
        """
        engine = self.engine
        val = engine.val
        gapv = engine.gapv
        if parent is not None and parent.cover >= 0 and gapv[parent.cover] > 0:
            comp = Component([v for v in parent.var_ids if val[v] == UNASSIGNED],
                             [ci for ci in parent.cstr_ids if gapv[ci] > 0],
                             cover=parent.cover)
            if self.config.debug_checks:
                assert self._split_scope(scope_vars) == ([comp], 0)
            return [comp], 0
        occ = engine.occ_static
        constraints = engine.constraints
        self._stamp += 1
        stamp = self._stamp
        vstamp = self._var_stamp
        cstamp = self._cstr_stamp
        comps = []
        free = 0
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
                free += 1
                continue
            comp_vars.sort()
            comp_cids.sort()
            comps.append(Component(comp_vars, comp_cids))
        return comps, free

    def _find_cover(self, comp: Component) -> int:
        """An active constraint whose unassigned variables are exactly the
        component's, or -1.

        Only the constraints of the component's smallest variable are
        tried, in occurrence order. Every unassigned variable of a
        component constraint is in the component, so one with as many
        unassigned terms as the component has variables covers it.
        """
        n = len(comp.var_ids)
        if n > self._widest:
            return -1
        engine = self.engine
        val = engine.val
        gapv = engine.gapv
        constraints = engine.constraints
        for ci, _, _ in engine.occ_static[comp.var_ids[0]]:
            if gapv[ci] <= 0:
                continue
            terms = constraints[ci].terms
            if len(terms) < n:
                continue
            k = 0
            for _, w in terms:
                if val[w if w > 0 else -w] == UNASSIGNED:
                    k += 1
            if k == n:
                return ci
        return -1

    def _pick_literal(self, comp: Component) -> int:
        """Branching literal for a component, ties to the smallest id."""
        engine = self.engine
        if self.config.heuristic == "baseline":
            # an active constraint of a component variable is a component
            # constraint, so the active ones are counted without a lookup
            best_v = comp.var_ids[0]
            best = -1.0
            for v in comp.var_ids:
                occ_count = 0
                for ci, _, _ in engine.occ_static[v]:
                    if engine.gapv[ci] > 0:
                        occ_count += 1
                score = engine.activity[v] + occ_count
                if score > best:
                    best = score
                    best_v = v
            return best_v

        scores = self.vcis_scores
        activity = engine.activity
        act_max = 0.0
        sta_max = 0.0
        for v in comp.var_ids:
            if activity[v] > act_max:
                act_max = activity[v]
            if scores[v] > sta_max:
                sta_max = scores[v]
        best_v = comp.var_ids[0]
        best = -1.0
        for v in comp.var_ids:
            score = 0.0
            if act_max > 0.0:
                score += 0.5 * (activity[v] / act_max)
            if sta_max > 0.0:
                score += 0.5 * (scores[v] / sta_max)
            if score > best:
                best = score
                best_v = v
        return best_v if self.vcis_phases[best_v] else -best_v

    def _budget_tick(self) -> None:
        self._ops += 1
        if self._ops & _BUDGET_CHECK_MASK:
            return
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SolveTimeout("timed out after %.3fs" % self.config.timeout_s)
        limit = self.config.max_memory_bytes
        if limit is not None:
            used = self.cache.bytes_used + self.engine.learned_bytes
            if used > limit:
                raise MemoryBudgetExceeded(
                    "accounted %d bytes exceeds budget %d" % (used, limit))

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
        frame = stack[jump]
        frame.prod = 1
        frame.pending = None
        if self.config.on_event is not None:
            self.config.on_event("learned", (terms, degree, jump))
        engine.add_learned(terms, degree)
        return True

    def _note_decision(self, lit: int) -> None:
        self.stats.decisions += 1
        self._budget_tick()
        if self.config.on_event is not None:
            self.config.on_event("decision", (self.engine.current_level(), lit))

    # ----- main loop --------------------------------------------------------

    def run(self) -> CountResult:
        cfg = self.config
        stats = self.stats
        engine = self.engine
        cache = self.cache
        if cfg.timeout_s is not None:
            self._deadline = time.monotonic() + cfg.timeout_s

        count = None
        if self.formula.unsat_at_load:
            count = 0
        stack = [_Frame(None, None, 0, 0)]
        stats.peak_depth = 1
        split_gaps = {}  # debug_checks: stack depth -> original gaps at that frame's split

        while count is None:
            frame = stack[-1]
            if frame.pending is None:
                if frame.comp is None:
                    engine.clear_scope()
                else:
                    engine.set_scope(frame.comp.var_ids)
                confl = engine.propagate()
                if confl is not None:
                    if not self._handle_conflict(confl, stack):
                        count = 0
                        break
                    continue
                if cfg.debug_checks:
                    assert engine.current_level() == len(stack) - 1
                    engine.check_integrity()
                if frame.comp is None:
                    scope = range(1, engine.num_vars + 1)
                else:
                    scope = frame.comp.var_ids
                comps, free = self._split_scope(scope, frame.comp)
                if cfg.debug_checks:
                    split_gaps[len(stack)] = engine.gapv[:]
                frame.prod = 1 << free
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
                    assert self._split_scope(comp.var_ids) == ([comp], 0)
                    assert engine.gapv == split_gaps[len(stack)]
                key = encode_component(comp, engine.constraints, engine.gapv,
                                       engine.val, cfg.saturate_keys)
                cached = cache.lookup(key)
                if cached is not None:
                    frame.prod *= cached
                    continue
                # cstrs << vars <= leaf_cells, without building 1 << vars
                if len(comp.cstr_ids) <= cfg.leaf_cells >> len(comp.var_ids):
                    leaf = count_component(comp, engine.constraints,
                                           engine.gapv, engine.val)
                    if leaf is not None:
                        stats.leaf_counts += 1
                        self._budget_tick()
                        frame.prod *= cache.store(key, leaf)
                        continue
                # a cache miss is about to be branched on, so its split
                # may skip the search; the trail is still the one it was
                # split under
                if comp.cover < 0:
                    comp.cover = self._find_cover(comp)
                lit = self._pick_literal(comp)
                stack.append(_Frame(comp, key, lit, cache.log_position()))
                if len(stack) > stats.peak_depth:
                    stats.peak_depth = len(stack)
                engine.decide(lit)
                self._note_decision(lit)
            else:
                if len(stack) == 1:
                    count = frame.prod
                    break
                frame.branch_sum += frame.prod
                engine.backjump_to(len(stack) - 2)
                if frame.phase == 0:
                    frame.phase = 1
                    frame.lit = -frame.lit
                    frame.log_pos = cache.log_position()
                    frame.prod = 1
                    frame.pending = None
                    engine.decide(frame.lit)
                    self._note_decision(frame.lit)
                else:
                    stack.pop()
                    stack[-1].prod *= cache.store(frame.key, frame.branch_sum)

        assert 0 <= count <= (1 << self.formula.num_vars)
        stats.propagations = engine.n_propagations
        stats.learned = engine.learned_total
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.cache_stores = cache.stores
        stats.cache_evictions = cache.evictions
        stats.cache_purged = cache.purged
        stats.cache_entries = len(cache)
        stats.cache_bytes_peak = cache.bytes_peak
        return CountResult(count, stats, cache)


def count_models(formula: PBFormula, config: Optional[CounterConfig] = None) -> CountResult:
    """Exact number of complete assignments satisfying the formula."""
    return ModelCounter(formula, config).run()
