"""End-to-end counting, branching scores, budgets, and search events."""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _helpers
import pbtally.counter
from pbtally import (CounterConfig, MemoryBudgetExceeded,
                     ModelCounter, PBFormula, SearchStats, SolveTimeout,
                     brute_count, build_formula, compute_vcis_scores,
                     count_models, residual_components)
from pbtally.components import CountCache, _assignment_masks, count_component
from pbtally.counter import compact_variables, dedup_constraints
from pbtally.engine import Engine
from pbtally.generators import gen_auction, gen_knapsack, gen_sensor
from pbtally.formula import constraint_gap, lit_var, parse_opb


def _covered_formulas(rng, singles: int, unions: int):
    """``(formula, count)`` for covered formulas, then for disjoint unions
    of two, each counted as the product of its blocks' oracle counts."""
    for i in range(singles + unions):
        parts = [_helpers.covered_formula(rng) for _ in range(1 if i < singles else 2)]
        if any(p.unsat_at_load for p in parts):
            continue
        want = 1
        for p in parts:
            want *= brute_count(p).count
        yield parts[0] if len(parts) == 1 else _helpers.disjoint_union(parts), want


def _capped_shift(table, axis: int, mass: int):
    """``table`` with each entry moved ``mass`` up ``axis``, capped at its last index."""
    if mass == 0:
        return table
    top = table.shape[axis] - 1
    src = np.moveaxis(table, axis, 0)
    out = np.zeros_like(table)
    dst = np.moveaxis(out, axis, 0)
    kept = max(top - mass, 0)
    dst[mass:top] = src[:kept]
    dst[top] = src[kept:].sum(axis=0)
    return out


def _two_row_count(f) -> int:
    """Models of a formula of two normalized rows, by a table over the
    masses their true literals carry, each capped at its row's degree."""
    rows = f.constraints
    assert len(rows) == 2
    # per variable, the masses its true and its false phase add to each row
    adds = [[[0, 0], [0, 0]] for _ in range(f.num_vars + 1)]
    for r, row in enumerate(rows):
        for a, lit in row.terms:
            adds[lit_var(lit)][lit < 0][r] += a
    table = np.zeros((rows[0].degree + 1, rows[1].degree + 1), dtype=object)
    table[0, 0] = 1
    for v in range(1, f.num_vars + 1):
        table = sum(_capped_shift(_capped_shift(table, 0, m0), 1, m1) for m0, m1 in adds[v])
    return table[-1, -1]


def all_configs():
    """Every heuristic x key-mode pair under search_only, then the default."""
    return [CounterConfig(heuristic=h, saturate_keys=s, search_only=True)
            for h in ("vcis", "baseline") for s in (True, False)] + [CounterConfig()]


def _pinned_formulas():
    """Instances whose search statistics the tests pin.

    Disjoint conflict-prone blocks make backjumps discard frames whose
    sibling components were still waiting; the auction and sensor
    instances add conflicts at larger depth (the 35-bid auction most of
    them), and the knapsack instances are one wide component that never
    splits.
    """
    rng = random.Random(1)
    formulas = [_helpers.disjoint_union(
        [_helpers.tight_formula(rng, max_vars=7) for _ in range(rng.randint(2, 3))])
        for _ in range(12)]
    formulas += [parse_opb(gen_auction(bids=16, items=10, revenue_fraction=0.15,
                                       seed=s)) for s in range(4)]
    formulas.append(parse_opb(gen_sensor(
        sensors=30, targets=40, cost_aware=True, budget_fraction=0.7,
        max_cover=5, redundancy_rate=0.4, seed=3)))
    formulas.append(parse_opb(gen_auction(bids=35, items=20, revenue_fraction=0.15,
                                          seed=17)))
    formulas += [parse_opb(gen_knapsack(items=18, dims=2, seed=s)) for s in range(3)]
    return formulas


_STAT_FIELDS = ("decisions", "conflicts", "propagations", "learned",
                "cache_hits", "cache_misses", "cache_stores",
                "cache_evictions", "cache_purged", "cache_entries",
                "cache_bytes_peak", "peak_depth", "peak_open_components",
                "leaf_counts", "gap_counts")

#: (count, SearchStats values in _STAT_FIELDS order) per pinned instance,
#: with enumeration off
_PINNED_STATS = {
    "vcis": [
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
        (21, (15, 2, 24, 2, 2, 8, 6, 0, 0, 6, 449, 5, 4, 0, 0)),
        (1428, (14, 0, 14, 0, 0, 7, 7, 0, 0, 7, 528, 4, 4, 0, 0)),
        (0, (0, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
        (0, (1, 2, 12, 1, 0, 1, 0, 0, 0, 0, 0, 2, 1, 0, 0)),
        (120, (10, 2, 13, 2, 1, 5, 3, 0, 0, 3, 221, 5, 4, 0, 0)),
        (8, (6, 1, 20, 1, 0, 3, 2, 0, 0, 2, 151, 3, 2, 0, 0)),
        (77, (16, 0, 27, 0, 0, 8, 8, 0, 0, 8, 631, 5, 5, 0, 0)),
        (0, (9, 2, 12, 1, 0, 5, 4, 0, 0, 4, 292, 4, 5, 0, 0)),
        (192, (21, 4, 35, 4, 1, 11, 7, 0, 0, 7, 543, 5, 5, 0, 0)),
        (260, (26, 1, 32, 1, 1, 13, 12, 0, 0, 12, 907, 5, 4, 0, 0)),
        (954, (38, 2, 29, 2, 6, 19, 17, 0, 0, 17, 1266, 6, 5, 0, 0)),
        (164, (110, 1, 124, 1, 5, 55, 54, 0, 0, 54, 4188, 16, 15, 0, 0)),
        (296, (120, 0, 105, 0, 3, 60, 60, 0, 0, 60, 4611, 15, 14, 0, 0)),
        (104, (59, 2, 111, 2, 2, 30, 28, 0, 0, 28, 2279, 12, 11, 0, 0)),
        (62, (53, 5, 128, 5, 4, 27, 22, 0, 0, 22, 1815, 14, 13, 0, 0)),
        (66064, (6626, 0, 2844, 0, 2606, 3313, 3313, 0, 0, 3313, 252652, 20, 20, 0, 0)),
        (6147, (3145, 142, 4964, 142, 622, 1614, 1472, 0, 0, 1472, 117621, 30, 29, 0, 0)),
        (102937, (4800, 0, 2628, 0, 1895, 2400, 2400, 0, 0, 2400, 188351, 18, 17, 0, 0)),
        (95980, (2674, 0, 1350, 0, 1054, 1337, 1337, 0, 0, 1337, 104613, 18, 17, 0, 0)),
        (100133, (4302, 0, 2397, 0, 1679, 2151, 2151, 0, 0, 2151, 169449, 18, 17, 0, 0)),
    ],
    "baseline": [
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
        (21, (13, 3, 24, 3, 2, 7, 4, 0, 0, 4, 307, 5, 4, 0, 0)),
        (1428, (14, 0, 14, 0, 0, 7, 7, 0, 0, 7, 528, 4, 4, 0, 0)),
        (0, (0, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
        (0, (1, 2, 12, 1, 0, 1, 0, 0, 0, 0, 0, 2, 1, 0, 0)),
        (120, (9, 2, 11, 2, 1, 5, 3, 0, 0, 3, 226, 5, 4, 0, 0)),
        (8, (5, 1, 15, 1, 0, 3, 2, 0, 0, 2, 151, 3, 2, 0, 0)),
        (77, (15, 1, 27, 1, 0, 8, 7, 0, 0, 7, 557, 5, 4, 0, 0)),
        (0, (9, 2, 14, 1, 0, 5, 4, 0, 0, 4, 298, 4, 5, 0, 0)),
        (192, (22, 6, 37, 6, 0, 13, 7, 0, 0, 7, 541, 5, 5, 0, 0)),
        (260, (32, 3, 36, 3, 1, 17, 14, 0, 0, 14, 1056, 5, 5, 0, 0)),
        (954, (36, 1, 28, 1, 2, 18, 17, 0, 0, 17, 1269, 6, 5, 0, 0)),
        (164, (131, 1, 130, 1, 7, 66, 65, 0, 0, 65, 4989, 14, 13, 0, 0)),
        (296, (180, 0, 107, 0, 29, 90, 90, 0, 0, 90, 6775, 15, 15, 0, 0)),
        (104, (60, 3, 113, 3, 2, 31, 28, 0, 0, 28, 2284, 12, 11, 0, 0)),
        (62, (57, 5, 124, 5, 3, 31, 26, 0, 0, 26, 2114, 13, 13, 0, 0)),
        (66064, (5758, 0, 2806, 0, 2265, 2879, 2879, 0, 0, 2879, 219357, 21, 20, 0, 0)),
        (6147, (3198, 206, 5710, 206, 734, 1652, 1446, 0, 0, 1446, 118490, 25, 24, 0, 0)),
        (102937, (6306, 0, 2952, 0, 2435, 3153, 3153, 0, 0, 3153, 246302, 18, 17, 0, 0)),
        (95980, (6148, 0, 2764, 0, 2219, 3074, 3074, 0, 0, 3074, 238511, 18, 17, 0, 0)),
        (100133, (5868, 0, 3030, 0, 2255, 2934, 2934, 0, 0, 2934, 229831, 17, 17, 0, 0)),
    ],
}

class TestCountMatchesOracle:
    def test_random_formulas_all_configs(self):
        rng = random.Random(6601)
        for _ in range(250):
            f = _helpers.random_formula(rng, max_vars=10)
            want = 0 if f.unsat_at_load else brute_count(f).count
            for cfg in all_configs():
                assert count_models(f, cfg).count == want

    def test_conflict_heavy_formulas(self):
        rng = random.Random(6602)
        conflicts = 0
        for _ in range(200):
            f = _helpers.tight_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            want = brute_count(f).count
            res = count_models(f, CounterConfig(search_only=True))
            assert res.count == want
            conflicts += res.stats.conflicts
        assert conflicts > 100

    def test_tiny_cache_and_learned_budgets(self):
        # heavy eviction from the cache must never change the answer, and
        # its byte accounting must match its live entries; the debug checks
        # hold the learned stack's occurrence lists and levels to its live
        # constraints after every backjump that pops some
        rng = random.Random(6603)
        evictions = conflicts = 0
        for _ in range(200):
            f = _helpers.tight_formula(rng, max_vars=12)
            if f.unsat_at_load:
                continue
            want = brute_count(f).count
            cfg = CounterConfig(max_cache_bytes=256, search_only=True, debug_checks=True)
            res = count_models(f, cfg)
            assert res.count == want
            cache = res.cache
            assert cache.bytes_used == sum(CountCache._entry_bytes(k, c)
                                           for k, c in cache._store.items())
            assert cache.bytes_used <= cfg.max_cache_bytes
            assert sorted(cache._log) == sorted(cache._store)
            evictions += res.stats.cache_evictions
            conflicts += res.stats.conflicts
        # 584 of the 964 stores are evicted, in 90 of the formulas
        assert evictions >= 584
        assert conflicts >= 100

    def test_no_count_is_stored_under_a_held_key(self, monkeypatch):
        # CountCache.store writes without looking: a leaf is stored right
        # after its lookup missed, and a frame after a subtree whose keys
        # all name fewer variables; tiny caches evict and conflicts purge
        # between the two
        store = CountCache.store
        stores = 0

        def checked_store(cache, key, count):
            nonlocal stores
            assert key not in cache._store
            stores += 1
            return store(cache, key, count)

        monkeypatch.setattr(CountCache, "store", checked_store)
        configs = [CounterConfig(max_cache_bytes=600, search_only=True),
                   CounterConfig(max_cache_bytes=600)]
        builders = [_helpers.random_formula, _helpers.tight_formula,
                    _helpers.covered_formula, _helpers.clause_heavy_formula]
        rng = random.Random(6617)
        formulas = []
        for i in range(2800):
            f = builders[i % 4](rng)
            if not f.unsat_at_load:
                formulas.append((f, brute_count(f).count))
        for seed in range(8):
            f = parse_opb(gen_auction(bids=26, items=12, revenue_fraction=0.15, seed=seed))
            formulas.append((f, count_models(f).count))
        evictions = conflicts = 0
        for f, want in formulas:
            for cfg in configs:
                res = count_models(f, cfg)
                assert res.count == want
                evictions += res.stats.cache_evictions
                conflicts += res.stats.conflicts
        assert stores >= 9000
        assert evictions >= 4000
        assert conflicts >= 1500

    def test_debug_checks_stay_silent(self):
        rng = random.Random(6605)
        for _ in range(40):
            f = _helpers.random_formula(rng, max_vars=9)
            if f.unsat_at_load:
                continue
            cfg = CounterConfig(search_only=True, debug_checks=True)
            assert count_models(f, cfg).count == brute_count(f).count

    def test_debug_checks_stay_silent_below_covers(self):
        # debug mode re-splits every popped component by search, also
        # below a constraint over every variable of its block and inside
        # each block of a union
        rng = random.Random(6613)
        decisions = 0
        for f, want in _covered_formulas(rng, 100, 30):
            res = count_models(f, CounterConfig(search_only=True, debug_checks=True))
            assert res.count == want
            decisions += res.stats.decisions
        assert decisions > 400

    def test_debug_checks_change_nothing_across_hundreds_of_conflicts(self):
        # check_integrity recomputes every learned slack at every node; here
        # it runs where hundreds of learned constraints propagate, with a
        # learned stack pushed and popped on every conflict
        conflicts = 0
        for seed in range(12):
            f = parse_opb(gen_auction(bids=26, items=14, revenue_fraction=0.15, seed=seed))
            counts = set()
            for heuristic in ("vcis", "baseline"):
                plain, checked = (count_models(f, CounterConfig(
                    heuristic=heuristic, search_only=True, debug_checks=debug))
                    for debug in (False, True))
                assert checked.count == plain.count
                assert checked.stats.as_dict() == plain.stats.as_dict()
                counts.add(plain.count)
                conflicts += plain.stats.conflicts
            assert len(counts) == 1
        assert conflicts >= 250

    def test_learned_join_scans_reach_the_scope_assertion(self, monkeypatch):
        # every learned constraint of this union joins below the root, where
        # the search names the backjump target's component as the scope; an
        # empty scope named in its place trips the engine's assertion at the
        # first join scan that forces, so real counts reach that assertion.
        # Without the assertion, learned constraints that force nothing let
        # the same conflict come back, and the budgets end that count
        f = _helpers.disjoint_union([parse_opb(gen_sensor(sensors=40, targets=50, seed=s))
                                     for s in (0, 1)])
        set_scope = Engine.set_scope
        monkeypatch.setattr(Engine, "set_scope", lambda engine, var_ids: set_scope(engine, ()))
        with pytest.raises(AssertionError, match="forces x[0-9]+ outside its component"):
            count_models(f, CounterConfig(timeout_s=10, max_memory_bytes=32 << 20))

    @pytest.mark.parametrize("max_cache_bytes", [1, 10000])
    def test_engine_keys_match_reference_on_search_states(self, monkeypatch,
                                                          max_cache_bytes):
        # every key the search encodes from the engine's arrays equals the
        # reference encoder's, which takes its gaps from the assignment and
        # finds the component's terms through its variable ids; a cache that
        # holds no entry makes the search re-enter every component it has
        # counted, one that holds some skips them on a hit
        encode = pbtally.counter.encode_component
        mc = None
        keys = 0

        def checked_encode(comp, constraints, gapv, val, saturate=True):
            nonlocal keys
            key = encode(comp, constraints, gapv, val, saturate)
            asn = mc.engine.assignment_dict()
            gaps = [constraint_gap(constraints[ci], asn) for ci in comp.cstr_ids]
            assert key == _helpers.reference_encode_component(
                comp, constraints, gaps, saturate)
            keys += 1
            return key

        monkeypatch.setattr(pbtally.counter, "encode_component", checked_encode)
        rng = random.Random(6614)
        builders = (_helpers.tight_formula, _helpers.random_formula,
                    _helpers.covered_formula)
        conflicts = 0
        for i in range(900):
            f = builders[i % 3](rng)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig(saturate_keys=i % 2 == 0,
                                               max_cache_bytes=max_cache_bytes,
                                               search_only=True, debug_checks=True))
            res = mc.run()
            assert res.count == brute_count(f).count
            conflicts += res.stats.conflicts
        assert keys > 2000 and conflicts > 300

    def test_component_past_the_int64_margin_is_enumerated(self):
        # the root component's open mass is 3 * 2**59 + 1, past int64 in any
        # sum; enumeration holds masses in Python ints, so it counts the
        # root with no decision
        big = 1 << 59
        f = build_formula(4, [([(big, 1), (big, 2), (big, 3), (1, 4)], ">=", big + 1),
                              ([(1, -1), (1, 4)], ">=", 1)])
        res = count_models(f)
        assert res.count == brute_count(f).count
        assert res.stats.decisions == 0 and res.stats.leaf_counts == 1

    def test_unconstrained_variables_double_the_count(self):
        f = build_formula(10, [([(1, 1), (1, 2)], ">=", 1)])
        assert count_models(f).count == 3 * (1 << 8)

    def test_no_constraints_counts_everything(self):
        f = build_formula(6, [])
        assert count_models(f).count == 1 << 6

    def test_infeasible_at_load_counts_zero(self):
        f = build_formula(3, [([(1, 1), (1, -1)], ">=", 2)])
        assert f.unsat_at_load
        res = count_models(f)
        assert res.count == 0
        assert res.stats.decisions == 0

    def test_contradiction_found_by_search(self):
        f = build_formula(2, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 1), (1, -2)], ">=", 1),
            ([(1, -1), (1, 2)], ">=", 1),
            ([(1, -1), (1, -2)], ">=", 1),
        ])
        assert count_models(f).count == 0

    def test_counts_match_across_all_configs_on_shared_instances(self):
        rng = random.Random(6606)
        for _ in range(60):
            f = _helpers.clause_heavy_formula(rng)
            if f.unsat_at_load:
                continue
            counts = {count_models(f, cfg).count for cfg in all_configs()}
            assert len(counts) == 1


class TestDedup:
    def test_identical_bodies_collapse(self):
        f = build_formula(2, [
            ([(-2, 1), (3, 2)], ">=", 1),
            ([(3, 2), (-2, 1)], ">=", 1),
            ([(1, 1), (1, 2)], ">=", 1),
        ])
        d = dedup_constraints(f)
        assert len(f.constraints) == 3
        assert len(d.constraints) == 2
        assert brute_count(f).count == brute_count(d).count

    def test_distinct_bodies_survive(self):
        f = build_formula(2, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 1), (1, 2)], ">=", 2),
        ])
        assert len(dedup_constraints(f).constraints) == 2


def _shape(formula):
    return (formula.num_vars, formula.unsat_at_load,
            [(c.cid, c.terms, c.degree, c.clausal) for c in formula.constraints])


def _repeating_formula(rng):
    """A random formula with repeated constraints over a third of its variables."""
    base = _helpers.random_formula(rng, max_vars=8)
    bodies = [c.body() for c in base.constraints]
    bodies += [rng.choice(bodies) for _ in range(rng.randint(0, 4)) if bodies]
    rng.shuffle(bodies)
    return PBFormula(3 * base.num_vars + rng.randint(0, 2), bodies, base.unsat_at_load)


class TestRenumbering:
    """Each formula kept without a rebuild equals the full rebuild from bodies."""

    def test_dedup_equals_a_rebuild(self):
        rng = random.Random(31)
        repeated = 0
        for _ in range(200):
            f = _repeating_formula(rng)
            unique = list(dict.fromkeys(c.body() for c in f.constraints))
            repeated += len(unique) < len(f.constraints)
            want = PBFormula(f.num_vars, unique, f.unsat_at_load)
            assert _shape(dedup_constraints(f)) == _shape(want)
        assert repeated > 50

    def test_compact_equals_a_rebuild(self):
        rng = random.Random(32)
        renamed = 0
        for _ in range(200):
            f = _repeating_formula(rng)
            used = sorted({abs(l) for c in f.constraints for _, l in c.terms})
            new_id = {v: i for i, v in enumerate(used, 1)}
            bodies = [(tuple((a, new_id[l] if l > 0 else -new_id[-l]) for a, l in c.terms),
                       c.degree) for c in f.constraints]
            got, input_ids = compact_variables(f)
            if got is f:
                assert 2 * len(used) >= f.num_vars
                continue
            renamed += 1
            assert list(input_ids) == [0] + used
            assert _shape(got) == _shape(PBFormula(len(used), bodies, f.unsat_at_load))
        assert renamed > 50

    def test_without_equals_a_rebuild(self):
        rng = random.Random(33)
        for _ in range(200):
            f = _repeating_formula(rng)
            for c in f.constraints:
                rest = [d.body() for d in f.constraints if d is not c]
                want = PBFormula(f.num_vars, rest, f.unsat_at_load)
                assert _shape(f.without(c)) == _shape(want)


class TestBranchingScores:
    def test_scores_worked_example(self):
        f = build_formula(2, [([(3, 1), (2, 2)], ">=", 4)])
        scores, phases = compute_vcis_scores(f)
        assert scores[1] == 0.75
        assert scores[2] == 0.5
        assert phases[1] and phases[2]

    def test_scores_average_over_occurrences(self):
        f = build_formula(4, [
            ([(2, 1), (3, 2)], ">=", 4),
            ([(1, 1), (2, 3)], ">=", 2),
        ])
        scores, phases = compute_vcis_scores(f)
        assert scores[1] == 0.5
        assert scores[2] == 0.75
        assert scores[3] == 1.0
        assert scores[4] == 0.0
        assert phases[1] and phases[2] and phases[3] and phases[4]

    def test_phase_follows_polarity_mass(self):
        f = build_formula(3, [([(-2, 1), (1, 2), (1, 3)], ">=", 0)])
        scores, phases = compute_vcis_scores(f)
        # normalized form carries the negated first variable
        assert not phases[1]
        assert phases[2] and phases[3]
        assert scores[1] == 1.0
        assert scores[2] == scores[3] == 0.5

    def test_scores_match_exact_fractions(self):
        rng = random.Random(6607)
        checked = 0
        for _ in range(60):
            f = _helpers.random_formula(rng, max_vars=10)
            scores, _ = compute_vcis_scores(f)
            pull = [Fraction(0)] * (f.num_vars + 1)
            occ = [0] * (f.num_vars + 1)
            for c in f.constraints:
                for coeff, lit in c.terms:
                    v = abs(lit)
                    pull[v] += Fraction(coeff, c.degree)
                    occ[v] += 1
            for v in range(1, f.num_vars + 1):
                want = pull[v] / occ[v] if occ[v] else Fraction(0)
                if want == 0:
                    assert scores[v] == 0.0
                else:
                    assert abs(scores[v] - float(want)) <= 1e-12 * float(want)
                    checked += 1
        assert checked > 100

    def test_static_pick_prefers_negative_phase(self):
        f = build_formula(3, [([(-2, 1), (1, 2), (1, 3)], ">=", 0)])
        mc = ModelCounter(f, CounterConfig())
        assert mc.engine.propagate() is None
        comps, free = mc._split_scope(range(1, 4))
        assert len(comps) == 1 and free == []
        assert mc._pick_literal(comps[0]) == -1

    def test_baseline_pick_is_positive_and_tie_breaks_low(self):
        f = build_formula(3, [([(-2, 1), (1, 2), (1, 3)], ">=", 0)])
        mc = ModelCounter(f, CounterConfig(heuristic="baseline"))
        assert mc.engine.propagate() is None
        comps, _ = mc._split_scope(range(1, 4))
        assert mc._pick_literal(comps[0]) == 1

    def test_every_pick_matches_the_documented_score(self, monkeypatch):
        # the score recomputed from its definition, with each variable's
        # active constraints found in the component's own list; many picks
        # are in components whose constraints all hold every variable of
        # the block (the component holding it on the empty trail)
        pick = ModelCounter._pick_literal
        spanning_picks = 0

        def checked(mc, comp):
            nonlocal spanning_picks
            e = mc.engine
            if mc.config.heuristic == "vcis":
                static, phase = compute_vcis_scores(mc.formula)
                act_max = max(e.activity[v] for v in comp.var_ids) or 1.0
                sta_max = max(static[v] for v in comp.var_ids) or 1.0
            else:
                static = [0.0] * (mc.formula.num_vars + 1)
                phase = [True] * (mc.formula.num_vars + 1)
                act_max = sta_max = 1.0
            held = [{lit_var(lit) for _, lit in e.constraints[ci].terms}
                    for ci in comp.cstr_ids]

            def score(v):
                live = sum(v in vs for vs in held)
                return e.activity[v] / act_max + static[v] / sta_max + live

            v = max(comp.var_ids, key=lambda v: (score(v), -v))
            lit = pick(mc, comp)
            assert lit == (v if phase[v] else -v)
            block = next(set(b.var_ids) for b in residual_components(mc.formula, {})[0]
                         if comp.var_ids[0] in b.var_ids)
            spanning_picks += all(vs == block for vs in held)
            return lit

        monkeypatch.setattr(ModelCounter, "_pick_literal", checked)
        rng = random.Random(6615)
        knapsacks = [parse_opb(gen_knapsack(items=12, dims=3, seed=s)) for s in range(3)]
        cases = [(f, brute_count(f).count) for f in knapsacks]
        # two blocks, and a header naming a variable no constraint holds
        cases.append((_helpers.disjoint_union(knapsacks[:2]),
                      cases[0][1] * cases[1][1]))
        cases.append((_helpers.spare_variable_knapsack(items=12, dims=3, seed=2),
                      2 * cases[2][1]))
        for f in ([_helpers.covered_formula(rng) for _ in range(60)]
                  + [_helpers.tight_formula(rng) for _ in range(60)]):
            if not f.unsat_at_load:
                cases.append((f, brute_count(f).count))
        for f, want in cases:
            for heuristic in ("vcis", "baseline"):
                res = count_models(f, CounterConfig(heuristic=heuristic, search_only=True))
                assert res.count == want
        assert spanning_picks > 1000

    def test_bad_heuristic_name_rejected(self):
        with pytest.raises(ValueError):
            CounterConfig(heuristic="random")


class TestSplitScopeMirror:
    def test_matches_pure_splitter_at_root_and_mid_search(self):
        rng = random.Random(6608)
        compared = with_mass = 0
        for _ in range(200):
            f = _helpers.random_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig())
            e = mc.engine
            # the counter renumbers the variables that some constraint
            # holds, and splits the formula without K
            n = mc.formula.num_vars
            searched = PBFormula(n, [c.body() for c in e.constraints])
            with_mass += mc.mass is not None
            if e.propagate() is not None:
                continue
            for _round in range(3):
                comps, free = mc._split_scope(range(1, n + 1))
                ref_comps, ref_free = residual_components(
                    searched, e.assignment_dict())
                assert comps == ref_comps
                assert free == ref_free
                self._assert_gaps_exact(mc, comps)
                compared += 1
                unassigned = [v for v in range(1, n + 1)
                              if e.lit_value(v) is None]
                if not unassigned:
                    break
                v = rng.choice(unassigned)
                e.decide(v if rng.random() < 0.5 else -v)
                if e.propagate() is not None:
                    break
        assert compared > 120 and with_mass > 10

    @staticmethod
    def _assert_gaps_exact(mc, comps):
        # the key encoder reads each component's gaps from the engine
        asn = mc.engine.assignment_dict()
        for comp in comps:
            for ci in comp.cstr_ids:
                assert mc.engine.gapv[ci] == constraint_gap(mc.engine.constraints[ci], asn)

    @staticmethod
    def _assert_flags_exact(mc, comps):
        # an active constraint flagged as spanning its block holds open
        # exactly its component's variables
        e = mc.engine
        for comp in comps:
            for ci in comp.cstr_ids:
                if mc._spans_block[ci]:
                    open_vars = {lit_var(lit) for _, lit in e.constraints[ci].terms
                                 if e.lit_value(lit) is None}
                    assert open_vars == set(comp.var_ids)

    def test_cover_fast_path_matches_pure_splitter(self):
        # one constraint over every variable of a block spans it; the
        # splits below it equal the pure splitter's while it is active and
        # after it is satisfied. Under search_only a formula's spanning
        # constraint is searched, not its K
        rng = random.Random(6612)
        below = after = 0
        for f, _ in _covered_formulas(rng, 300, 100):
            mc = ModelCounter(f, CounterConfig(search_only=True))
            n = mc.formula.num_vars
            e = mc.engine
            if e.propagate() is not None:
                continue
            comps, _ = mc._split_scope(range(1, n + 1))
            self._assert_flags_exact(mc, comps)
            while comps:
                comp = rng.choice(comps)
                v = rng.choice(comp.var_ids)
                e.decide(v if rng.random() < 0.5 else -v)
                if e.propagate() is not None:
                    break
                flagged = [ci for ci in comp.cstr_ids if mc._spans_block[ci]]
                comps, free = mc._split_scope(comp.var_ids)
                ref_comps, ref_free = residual_components(
                    mc.formula, e.assignment_dict())
                scope = set(comp.var_ids)
                assert comps == [c for c in ref_comps if scope.issuperset(c.var_ids)]
                assert free == [v for v in ref_free if v in scope]
                self._assert_gaps_exact(mc, comps)
                self._assert_flags_exact(mc, comps)
                if any(e.gapv[ci] > 0 for ci in flagged):
                    assert len(comps) == 1 and free == []
                    below += 1
                elif flagged:
                    after += 1
        assert below > 100 and after > 50


def _chain(n: int, *rows) -> PBFormula:
    """The clauses x_i or x_i+1 for i < n, one connected component of n
    variables, and ``rows``."""
    return build_formula(n, [([(1, i), (1, i + 1)], ">=", 1) for i in range(1, n)]
                         + list(rows))


#: past LEAF_CELLS, each component the bits test admits or declines at its
#: edge, with the bits it holds: (2 * held + 2) << k at these sizes. The rows
#: over x1..x9 beside x10 have unequal coefficients and are no K; K is over
#: every variable and all gaps are 1, so its degree alone is held. No
#: variable is forced at the root
_BITS_EDGES = {
    "14-variable chain": (_chain(14), 4 << 14),
    "15-variable chain": (_chain(15), 4 << 15),
    "row of gap 31 on 10 variables": (
        _chain(10, ([(v, v) for v in range(1, 10)], ">=", 31)), 64 << 10),
    "row of gap 32 on 10 variables": (
        _chain(10, ([(v, v) for v in range(1, 10)], ">=", 32)), 66 << 10),
    "K of degree 31 on 10 variables": (
        _chain(10, ([(4, i) for i in range(1, 11)], ">=", 31)), 64 << 10),
    "K of degree 32 on 10 variables": (
        _chain(10, ([(4, i) for i in range(1, 11)], ">=", 32)), 66 << 10),
}


class TestLeafBounds:
    @pytest.mark.parametrize("name", _BITS_EDGES)
    @pytest.mark.parametrize("leaf_bits", ["real", "at", "below"])
    def test_bits_test_at_its_edge(self, monkeypatch, name, leaf_bits):
        # each root component fails the cells test, so it is one leaf with
        # no decision exactly when its bits fit in LEAF_BITS: the real
        # constant, patched to its bits, or patched to one less
        f, bits = _BITS_EDGES[name]
        if leaf_bits != "real":
            monkeypatch.setattr(pbtally.counter, "LEAF_BITS", bits - (leaf_bits == "below"))
        mc = ModelCounter(f)
        assert (mc.mass is not None) == name.startswith("K")
        [comp], _ = mc._split_scope(range(1, f.num_vars + 1))
        assert len(comp.var_ids) == f.num_vars
        assert len(comp.cstr_ids) << f.num_vars > pbtally.counter.LEAF_CELLS
        res = mc.run()
        assert res.count == brute_count(f).count
        if bits <= pbtally.counter.LEAF_BITS:
            assert res.stats.decisions == 0 and res.stats.leaf_counts == 1
        else:
            assert res.stats.decisions > 0

    def test_bits_test_admits_14_variables_and_9_at_auction_degrees(self):
        # with K, held is at least its degree, which caps the variables of
        # every leaf the bits test admits
        assert ModelCounter(_chain(3))._leaf_bits_vars == 14
        f = parse_opb(gen_auction(bids=29, items=20, revenue_fraction=0.15, seed=0))
        mc = ModelCounter(f)
        assert mc.mass.degree == 55 and mc._leaf_bits_vars == 9

    @pytest.mark.parametrize("name", ["14-variable chain", "row of gap 31 on 10 variables",
                                      "K of degree 31 on 10 variables"])
    def test_enumeration_peak_at_the_bits_bound(self, name):
        # the largest components only the bits test admits peak well below
        # the cells test's worst case of 2.4 MiB: 71 KiB for the chain with
        # the first build of its masks, cleared here, 10 KiB for the row and
        # 7 KiB for K (Python 3.11)
        f, _ = _BITS_EDGES[name]
        mc = ModelCounter(f)
        [comp], _ = mc._split_scope(range(1, f.num_vars + 1))
        e = mc.engine
        _assignment_masks.cache_clear()
        tracemalloc.start()
        try:
            n = count_component(comp, e.constraints, e.gapv, e.val, mc._vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc._vectors.final(n) == brute_count(f).count
        assert peak < 256 << 10


class TestGapCounts:
    @staticmethod
    def _knapsacks():
        """``(formula, blocks)`` for knapsacks, one block each unless a union."""
        singles = [parse_opb(gen_knapsack(items=items, dims=dims, seed=seed))
                   for dims, items in ((1, 20), (2, 16), (3, 13)) for seed in (0, 1)]
        cases = [(f, 1) for f in singles]
        cases.append((_helpers.spare_variable_knapsack(items=14, dims=3, seed=2), 1))
        cases.append((_helpers.disjoint_union(singles[2:5]), 3))
        cases.append((_helpers.disjoint_union(singles[:2]), 2))
        return cases

    def test_knapsacks_count_at_the_root_as_the_search_counts(self):
        # each block's constraints all span it, so its root component is
        # counted by its gaps and the count makes no decision
        for f, blocks in self._knapsacks():
            default = count_models(f)
            assert default.count == count_models(f, CounterConfig(search_only=True)).count
            assert default.stats.decisions == 0
            assert default.stats.gap_counts == blocks
            assert default.stats.leaf_counts == 0

    def test_counts_match_the_oracle_where_every_table_is_used(self, monkeypatch):
        # with enumeration off, each component whose constraints all span
        # its block is counted by its gaps, below the root too, and never
        # where the formula has a K; the debug checks run at every node
        monkeypatch.setattr(pbtally.counter, "LEAF_CELLS", 0)
        monkeypatch.setattr(pbtally.counter, "LEAF_BITS", 0)
        rng = random.Random(6617)
        builders = (_helpers.random_formula, _helpers.tight_formula,
                    _helpers.covered_formula, _helpers.clause_heavy_formula)
        gap_counts = [0, 0]
        for i in range(3200):
            f = builders[i % 4](rng)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig(debug_checks=True))
            res = mc.run()
            assert res.count == brute_count(f).count
            gap_counts[mc.mass is not None] += res.stats.gap_counts
        assert gap_counts[0] > 300 and gap_counts[1] == 0

    def test_timeout_holds_inside_the_table(self):
        # the root table of 1.7 million cells takes tenths of a second; the
        # deadline is checked before each of its 40 variables
        f = parse_opb(gen_knapsack(items=40, dims=3, seed=1))
        mc = ModelCounter(f, CounterConfig(timeout_s=0.05))
        started = time.monotonic()
        with pytest.raises(SolveTimeout):
            mc.run()
        assert time.monotonic() - started < 2.5
        assert mc.stats.decisions == 0 and mc.stats.gap_counts == 0

    def test_table_over_the_memory_budget_is_searched(self):
        # the root table takes three times 8 bytes per cell beside what is
        # accounted at the root, the root frame's count among it; one byte
        # less than both, and the search branches with the count unchanged
        f = parse_opb(gen_knapsack(items=14, dims=3, seed=0))
        mc = ModelCounter(f)
        assert mc.engine.gapv == [45, 40, 43]
        table_bytes = 24 * 46 * 41 * 44
        at_root = []
        count_without_search = mc._count_without_search

        def watched(comp):
            at_root.append(mc._accounted_bytes())
            return count_without_search(comp)

        mc._count_without_search = watched
        count = mc.run().count
        assert mc.stats.decisions == 0 and at_root[0] > 0
        budget = CounterConfig(max_memory_bytes=table_bytes + at_root[0] - 1)
        res = count_models(f, budget)
        assert res.count == count
        assert res.stats.decisions > 0
        exact = CounterConfig(max_memory_bytes=table_bytes + at_root[0])
        assert count_models(f, exact).stats.decisions == 0

    def test_search_past_the_table_variable_bound_matches_a_dp(self):
        # 70 variables are past the table's 62, so the root is searched
        # and the components below it are counted by their gaps
        f = parse_opb(gen_knapsack(items=70, dims=2, seed=1))
        res = count_models(f)
        assert res.stats.decisions > 0 and res.stats.gap_counts > 0
        assert res.count == _two_row_count(f) == 485191427743731894841

    def test_two_row_knapsacks_past_the_oracle_count_at_the_root(self):
        # 30 to 60 variables, past brute_count's 24: both rows hold every
        # variable, about half of them complemented, so each row has
        # negated literals, and one term of each weighs at least its gap
        rng = random.Random(3011)
        for n in (30, 41, 52, 60):
            flipped = set(rng.sample(range(1, n + 1), n // 2))
            lines = []
            for _ in range(2):
                weights = [rng.randint(1, 10) for _ in range(n)]
                degree = sum(weights) // 2
                weights[rng.randrange(n)] = degree + rng.randint(0, 3)
                lines.append(" ".join("+%d %sx%d" % (w, "~" if v in flipped else "", v)
                                      for v, w in enumerate(weights, 1))
                             + " >= %d ;" % degree)
            f = parse_opb("\n".join(lines) + "\n")
            for row in f.constraints:
                assert {l > 0 for _, l in row.terms} == {True, False}
                assert row.terms[0][0] >= row.degree
            res = count_models(f)
            assert res.stats.decisions == 0 and res.stats.gap_counts == 1
            assert res.count == _two_row_count(f)


class TestBudgets:
    def test_timeout_raises(self):
        opb = gen_knapsack(items=30, dims=2, max_coeff=9,
                           capacity_fraction=0.5, seed=3)
        f = parse_opb(opb)
        with pytest.raises(SolveTimeout):
            count_models(f, CounterConfig(timeout_s=1e-6))

    def test_memory_budget_raises(self):
        opb = gen_knapsack(items=30, dims=2, max_coeff=9,
                           capacity_fraction=0.5, seed=3)
        f = parse_opb(opb)
        with pytest.raises(MemoryBudgetExceeded):
            count_models(f, CounterConfig(max_memory_bytes=1000))

    def test_timeout_overshoot_is_bounded(self):
        # few decisions, each propagating through many learned constraints,
        # so the budget must be polled often to stop near the deadline
        f = parse_opb(gen_auction(bids=50, items=20, revenue_fraction=0.15, seed=5))
        started = time.monotonic()
        with pytest.raises(SolveTimeout):
            count_models(f, CounterConfig(timeout_s=0.5, search_only=True))
        assert time.monotonic() - started < 2.5

    @pytest.mark.parametrize("search_only", [True, False])
    def test_deadline_is_polled_at_every_decision(self, search_only):
        # the first decision sleeps past the budget, so the next one stops
        # the count, with the revenue floor chosen as K or searched
        f = parse_opb(gen_auction(bids=50, items=20, revenue_fraction=0.15, seed=5))

        def on_event(kind, _):
            if kind == "decision" and mc.stats.decisions == 1:
                time.sleep(0.1)

        mc = ModelCounter(f, CounterConfig(timeout_s=0.05, search_only=search_only,
                                           on_event=on_event))
        assert (mc.mass is None) == search_only
        with pytest.raises(SolveTimeout):
            mc.run()
        assert mc.stats.decisions <= 2

    def test_lists_are_sized_by_the_referenced_variables(self):
        # x2..x199999 are in no constraint: each doubles the count, and
        # none takes a slot in the engine's or the counter's lists
        f = parse_opb("1 x1 +1 x200000 >= 1 ;")
        mc = ModelCounter(f)
        assert mc.formula.num_vars == 2 and mc.unreferenced == 199998
        assert len(mc.engine.val) == len(mc.engine.activity) == 3
        assert len(mc._var_stamp) == len(mc._static) == 3
        assert mc.run().count == 3 << 199998
        # the header's variables count too, referenced or not
        f = parse_opb("* #variable= 12 #constraint= 1\n+2 x9 +1 ~x4 +1 x11 >= 2 ;\n")
        mc = ModelCounter(f)
        assert mc.formula.num_vars == 3 and mc.unreferenced == 9
        assert mc.run().count == brute_count(f).count == 5 << 9

    def test_unreferenced_variables_change_only_the_count(self):
        # the padded formula is renumbered back in the same order, so its
        # search is the same, and each pad doubles the count
        rng = random.Random(6616)
        for _ in range(60):
            f = _helpers.tight_formula(rng, max_vars=8)
            if f.unsat_at_load:
                continue
            padded = PBFormula(3 * f.num_vars + 1, [c.body() for c in f.constraints])
            for cfg in all_configs():
                plain, more = count_models(f, cfg), count_models(padded, cfg)
                assert more.count == plain.count << (2 * f.num_vars + 1)
                assert more.stats.as_dict() == plain.stats.as_dict()

    def test_decision_events_name_the_input_variables(self):
        # the counter branches on x3, then on x8 below ~x3; it knows them
        # as x1 and x2
        f = parse_opb("+1 x3 +1 x8 +1 x12 >= 1 ;")
        _, res, decisions, _ = _helpers.count_with_events(f)
        assert res.count == brute_count(f).count == 7 << 9
        assert [lit for _, lit in decisions] == [3, -3, 8, -8]

    def test_memory_budget_holds_between_enumerations(self):
        # every block is a root component counted by enumeration, so the
        # count makes no decision; each enumeration ticks the budget
        blocks = [build_formula(3, [([(1, 1), (1, 2), (1, 3)], ">=", 2)])] * 600
        f = _helpers.disjoint_union(blocks)
        res = count_models(f)
        assert res.count == 4 ** 600
        assert res.stats.decisions == 0 and res.stats.leaf_counts == 600
        with pytest.raises(MemoryBudgetExceeded):
            count_models(f, CounterConfig(max_memory_bytes=4096))

    def test_a_finished_count_holds_only_what_it_learned_at_level_0(self):
        # neither block's budget holds every variable of the union, so the
        # default count learns; each learned constraint leaves on the
        # backjump below the level it was learned at, and the bytes the
        # memory budget counts leave with it
        f = _helpers.disjoint_union([parse_opb(gen_sensor(sensors=40, targets=50, seed=s))
                                     for s in (0, 1)])
        mc = ModelCounter(f)
        res = mc.run()
        assert res.count == 2013792 and res.stats.learned > 0
        engine = mc.engine
        held = engine.constraints[engine.first_learned:]
        assert engine.learned_level == [0] * len(held)
        assert len(held) < res.stats.learned
        assert engine.learned_bytes == sum(engine._learned_cost(len(c.terms)) for c in held)

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": float("nan")}, {"timeout_s": 0}, {"timeout_s": -1.0},
        {"max_cache_bytes": -1}, {"max_memory_bytes": -1},
        {"timeout_s": float("inf")},
        {"timeout_s": float("-inf")}, {"max_cache_bytes": float("inf")},
        {"max_memory_bytes": float("inf")}, {"max_cache_bytes": "10"},
        {"max_memory_bytes": True},
        {"max_cache_bytes": None}, {"max_memory_bytes": "10"}, {"timeout_s": "1"},
        {"max_cache_bytes": 2.5}, {"max_memory_bytes": 2.5}, {"timeout_s": True},
        {"max_cache_bytes": True},
        {"search_only": 1}, {"search_only": None}, {"search_only": "yes"},
    ])
    def test_out_of_range_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CounterConfig(**kwargs)

    def test_smallest_budgets_accepted(self):
        cfg = CounterConfig(timeout_s=1e-6, max_cache_bytes=0, max_memory_bytes=0,
                            search_only=True)
        assert cfg.timeout_s == 1e-6
        assert cfg.max_cache_bytes == 0 and cfg.max_memory_bytes == 0
        assert cfg.search_only is True

    def test_generous_budgets_do_not_interfere(self):
        f = build_formula(4, [([(1, 1), (1, 2), (1, 3), (1, 4)], ">=", 2)])
        cfg = CounterConfig(timeout_s=60.0, max_memory_bytes=1 << 30)
        assert count_models(f, cfg).count == 11


class TestLogsAndStats:
    def test_decision_log_matches_stats(self):
        rng = random.Random(6609)
        seen = 0
        for _ in range(40):
            f = _helpers.tight_formula(rng, max_vars=9)
            if f.unsat_at_load:
                continue
            _, res, decisions, _ = _helpers.count_with_events(f)
            assert len(decisions) == res.stats.decisions
            for level, lit in decisions:
                assert level >= 1
                assert 1 <= abs(lit) <= f.num_vars
            seen += 1
        assert seen > 25

    def test_learned_log_constraints_are_implied_and_asserting(self):
        rng = random.Random(6610)
        logged = 0
        for _ in range(120):
            f = _helpers.tight_formula(rng, max_vars=8)
            if f.unsat_at_load:
                continue
            mc, res, _, learned = _helpers.count_with_events(f)
            assert res.count == brute_count(f).count
            base = [c.body() for c in mc.formula.constraints]
            for terms, degree, jump, asserting in learned:
                assert asserting
                assert jump >= 0
                with_it = PBFormula(f.num_vars, base + [(tuple(terms), degree)])
                assert brute_count(with_it).count == res.count
                logged += 1
        assert logged > 50

    def test_peak_open_components_pinned(self):
        peaks = []
        conflicts = 0
        for f in _pinned_formulas()[:18]:
            stats = count_models(f, CounterConfig(search_only=True)).stats
            peaks.append(stats.peak_open_components)
            conflicts += stats.conflicts
        assert conflicts > 50
        assert peaks == [0, 4, 4, 0, 1, 4, 2, 5, 5, 5, 4, 5, 15, 14, 11, 13, 20, 29]

    @pytest.mark.parametrize("heuristic", ["vcis", "baseline"])
    def test_search_stats_pinned(self, heuristic):
        # every decision shows in these numbers, so a change to splitting
        # or branching that alters the search fails here
        assert SearchStats.__slots__ == _STAT_FIELDS
        got = []
        for f in _pinned_formulas():
            res = count_models(f, CounterConfig(heuristic=heuristic, search_only=True))
            got.append((res.count, tuple(res.stats.as_dict().values())))
        assert got == _PINNED_STATS[heuristic]

    def test_stats_are_coherent(self):
        rng = random.Random(6611)
        res = None
        # up to 16 variables: LEAF_BITS enumerates most root components of
        # 10 variables at these gaps, so such a formula seldom decides
        for _ in range(30):
            f = _helpers.tight_formula(rng, max_vars=16)
            if f.unsat_at_load:
                continue
            res = count_models(f)
            if res.stats.decisions > 0:
                break
        assert res is not None
        st = res.stats.as_dict()
        assert set(st) == set(res.stats.__slots__)
        assert st["decisions"] > 0
        assert st["cache_entries"] == len(res.cache)
        assert st["cache_stores"] >= st["cache_entries"]
        assert st["cache_bytes_peak"] >= res.cache.bytes_used
        assert st["peak_depth"] >= 1
