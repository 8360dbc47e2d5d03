"""End-to-end counting, branching scores, budgets, and search events."""

import random
import time
from fractions import Fraction

import pytest

import _helpers
import pbtally.counter
from pbtally import (Component, CounterConfig, MemoryBudgetExceeded,
                     ModelCounter, PBFormula, SearchStats, SolveTimeout,
                     brute_count, build_formula, compute_vcis_scores,
                     count_models, residual_components)
from pbtally.components import CountCache
from pbtally.counter import dedup_constraints
from pbtally.generators import gen_auction, gen_knapsack, gen_sensor
from pbtally.formula import constraint_gap, lit_var, parse_opb


def all_configs():
    return [CounterConfig(heuristic=h, saturate_keys=s)
            for h in ("vcis", "baseline") for s in (True, False)]


def _pinned_formulas():
    """Instances whose search statistics the tests pin.

    Disjoint conflict-prone blocks make backjumps discard frames whose
    sibling components were still waiting; the auction and sensor
    instances add conflicts at larger depth, and the knapsack instances
    are one wide component that never splits.
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
    formulas += [parse_opb(gen_knapsack(items=18, dims=2, seed=s)) for s in range(3)]
    return formulas


_STAT_FIELDS = ("decisions", "conflicts", "propagations", "learned",
                "cache_hits", "cache_misses", "cache_stores",
                "cache_evictions", "cache_purged", "cache_entries",
                "cache_bytes_peak", "peak_depth", "peak_open_components")

#: (count, SearchStats values in _STAT_FIELDS order) per pinned instance
_PINNED_STATS = {
    "vcis": [
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        (21, (14, 2, 19, 2, 1, 8, 6, 0, 0, 6, 448, 4, 3)),
        (1428, (14, 0, 15, 0, 0, 7, 7, 0, 0, 7, 529, 5, 5)),
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        (0, (1, 2, 12, 1, 0, 1, 0, 0, 0, 0, 0, 2, 1)),
        (120, (12, 2, 12, 2, 1, 6, 4, 0, 0, 4, 300, 5, 4)),
        (8, (11, 4, 24, 4, 0, 6, 2, 0, 0, 2, 151, 4, 4)),
        (77, (18, 1, 24, 1, 1, 9, 8, 0, 0, 8, 622, 5, 4)),
        (0, (9, 2, 13, 1, 0, 5, 4, 0, 0, 4, 292, 4, 5)),
        (192, (22, 4, 31, 4, 2, 12, 8, 0, 0, 8, 614, 5, 5)),
        (260, (43, 6, 53, 6, 1, 22, 16, 0, 0, 16, 1217, 6, 5)),
        (954, (48, 4, 36, 4, 7, 24, 20, 0, 0, 20, 1503, 7, 6)),
        (164, (131, 9, 216, 9, 21, 69, 60, 0, 0, 60, 4978, 11, 10)),
        (296, (150, 12, 269, 12, 14, 80, 68, 0, 0, 68, 5689, 13, 12)),
        (104, (74, 6, 146, 6, 3, 39, 33, 0, 0, 33, 2762, 12, 11)),
        (62, (57, 6, 134, 6, 0, 31, 25, 0, 0, 25, 2087, 9, 8)),
        (66064, (5264, 32, 4471, 32, 2017, 2642, 2610, 0, 0, 2610, 206195, 20, 20)),
        (102937, (4800, 0, 2628, 0, 1895, 2400, 2400, 0, 0, 2400, 188351, 18, 17)),
        (95980, (2674, 0, 1350, 0, 1054, 1337, 1337, 0, 0, 1337, 104613, 18, 17)),
        (100133, (4302, 0, 2397, 0, 1679, 2151, 2151, 0, 0, 2151, 169449, 18, 17)),
    ],
    "baseline": [
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        (21, (13, 3, 21, 3, 2, 7, 4, 0, 0, 4, 307, 5, 4)),
        (1428, (14, 0, 14, 0, 0, 7, 7, 0, 0, 7, 528, 4, 4)),
        (0, (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        (0, (1, 2, 11, 1, 0, 1, 0, 0, 0, 0, 0, 2, 1)),
        (120, (9, 2, 10, 2, 1, 5, 3, 0, 0, 3, 226, 5, 4)),
        (8, (5, 1, 15, 1, 0, 3, 2, 0, 0, 2, 151, 3, 2)),
        (77, (15, 1, 27, 1, 0, 8, 7, 0, 0, 7, 557, 5, 4)),
        (0, (9, 2, 12, 1, 0, 5, 4, 0, 0, 4, 298, 4, 5)),
        (192, (23, 6, 38, 6, 0, 13, 7, 0, 0, 7, 541, 5, 5)),
        (260, (32, 3, 34, 3, 1, 17, 14, 0, 0, 14, 1056, 5, 5)),
        (954, (36, 1, 28, 1, 2, 18, 17, 0, 0, 17, 1269, 6, 5)),
        (164, (131, 1, 130, 1, 7, 66, 65, 0, 0, 65, 4989, 14, 13)),
        (296, (180, 0, 107, 0, 29, 90, 90, 0, 0, 90, 6775, 15, 15)),
        (104, (60, 3, 112, 3, 2, 31, 28, 0, 0, 28, 2284, 12, 11)),
        (62, (52, 4, 118, 4, 2, 28, 24, 0, 0, 24, 1973, 12, 11)),
        (66064, (5758, 0, 2806, 0, 2265, 2879, 2879, 0, 0, 2879, 219357, 21, 20)),
        (102937, (6306, 0, 2952, 0, 2435, 3153, 3153, 0, 0, 3153, 246302, 18, 17)),
        (95980, (6148, 0, 2764, 0, 2219, 3074, 3074, 0, 0, 3074, 238511, 18, 17)),
        (100133, (5868, 0, 3030, 0, 2255, 2934, 2934, 0, 0, 2934, 229831, 17, 17)),
    ],
}

#: with ``max_learned=2``: the pinned rows that differ from _PINNED_STATS,
#: and the learned constraints evicted over all instances
_PINNED_TWO_LEARNED = {
    "vcis": ({6: (8, (12, 5, 26, 5, 0, 7, 2, 0, 0, 2, 151, 4, 4)),
              10: (260, (43, 6, 55, 6, 1, 22, 16, 0, 0, 16, 1217, 6, 5)),
              12: (164, (132, 9, 220, 9, 20, 69, 60, 0, 0, 60, 4978, 11, 10))},
             67),
    "baseline": ({}, 9),
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
        for _ in range(150):
            f = _helpers.tight_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            want = brute_count(f).count
            res = count_models(f, CounterConfig())
            assert res.count == want
            conflicts += res.stats.conflicts
        assert conflicts > 100

    def test_tiny_cache_and_learned_budgets(self):
        # heavy eviction on both stores must never change the answer, and
        # the cache's byte accounting must match its live entries; the
        # debug checks hold the learned store's occurrence lists to its
        # live constraints after every reduction
        rng = random.Random(6603)
        evictions = 0
        reduced = 0
        for _ in range(120):
            f = _helpers.tight_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            want = brute_count(f).count
            cfg = CounterConfig(max_cache_bytes=2048, max_learned=1,
                                debug_checks=True)
            res = count_models(f, cfg)
            assert res.count == want
            cache = res.cache
            assert cache.bytes_used == sum(CountCache._entry_bytes(k, c)
                                           for k, c in cache._store.items())
            assert cache.bytes_used <= cfg.max_cache_bytes
            assert sorted(cache._log) == sorted(cache._store)
            evictions += res.stats.cache_evictions
            reduced += res.stats.learned > cfg.max_learned
        assert evictions > 0
        assert reduced >= 10

    def test_debug_checks_stay_silent(self):
        rng = random.Random(6605)
        for _ in range(40):
            f = _helpers.random_formula(rng, max_vars=9)
            if f.unsat_at_load:
                continue
            cfg = CounterConfig(debug_checks=True)
            assert count_models(f, cfg).count == brute_count(f).count

    def test_debug_checks_stay_silent_below_covers(self):
        # debug mode re-splits by search wherever the cover fast path runs
        rng = random.Random(6613)
        fast = 0
        for _ in range(100):
            f = _helpers.covered_formula(rng)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig(debug_checks=True))
            split = mc._split_scope

            def counting_split(scope_vars, parent=None):
                nonlocal fast
                if (parent is not None and parent.cover >= 0
                        and mc.engine.gapv[parent.cover] > 0):
                    fast += 1
                return split(scope_vars, parent)

            mc._split_scope = counting_split
            assert mc.run().count == brute_count(f).count
        assert fast > 100

    def test_debug_checks_change_nothing_across_hundreds_of_conflicts(self):
        # check_integrity recomputes every learned slack at every node; here
        # it runs where hundreds of learned constraints propagate, with a
        # store reduced on most conflicts and with one never reduced
        conflicts = 0
        for seed in range(6):
            f = parse_opb(gen_auction(bids=22, items=14, revenue_fraction=0.15, seed=seed))
            counts = set()
            for heuristic in ("vcis", "baseline"):
                for max_learned in (2, CounterConfig().max_learned):
                    plain, checked = (count_models(f, CounterConfig(
                        heuristic=heuristic, max_learned=max_learned, debug_checks=debug))
                        for debug in (False, True))
                    assert checked.count == plain.count
                    assert checked.stats.as_dict() == plain.stats.as_dict()
                    counts.add(plain.count)
                    conflicts += plain.stats.conflicts
            assert len(counts) == 1
        assert conflicts >= 250

    @pytest.mark.parametrize("max_learned", [1, 10000])
    def test_engine_keys_match_reference_on_search_states(self, monkeypatch, max_learned):
        # every key the search encodes from the engine's arrays equals the
        # reference encoder's, which takes its gaps from the assignment and
        # finds the component's terms through its variable ids
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
        conflicts = reductions = 0
        for i in range(600):
            f = builders[i % 3](rng)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig(saturate_keys=i % 2 == 0,
                                               max_learned=max_learned,
                                               debug_checks=True))
            res = mc.run()
            assert res.count == brute_count(f).count
            conflicts += res.stats.conflicts
            reductions += res.stats.learned > max_learned
        assert keys > 2000 and conflicts > 300
        assert reductions > 30 or max_learned > 1

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
        assert len(comps) == 1 and free == 0
        assert mc._pick_literal(comps[0]) == -1

    def test_baseline_pick_is_positive_and_tie_breaks_low(self):
        f = build_formula(3, [([(-2, 1), (1, 2), (1, 3)], ">=", 0)])
        mc = ModelCounter(f, CounterConfig(heuristic="baseline"))
        assert mc.engine.propagate() is None
        comps, _ = mc._split_scope(range(1, 4))
        assert mc._pick_literal(comps[0]) == 1

    def test_bad_heuristic_name_rejected(self):
        with pytest.raises(ValueError):
            CounterConfig(heuristic="random")


class TestSplitScopeMirror:
    def test_matches_pure_splitter_at_root_and_mid_search(self):
        rng = random.Random(6608)
        compared = 0
        for _ in range(120):
            f = _helpers.random_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig())
            e = mc.engine
            if e.propagate() is not None:
                continue
            for _round in range(3):
                comps, free = mc._split_scope(range(1, f.num_vars + 1))
                ref_comps, ref_free = residual_components(
                    mc.formula, e.assignment_dict())
                assert comps == ref_comps
                assert free == len(ref_free)
                self._assert_gaps_exact(mc, comps)
                compared += 1
                unassigned = [v for v in range(1, f.num_vars + 1)
                              if e.lit_value(v) is None]
                if not unassigned:
                    break
                v = rng.choice(unassigned)
                e.decide(v if rng.random() < 0.5 else -v)
                if e.propagate() is not None:
                    break
        assert compared > 120

    @staticmethod
    def _assert_gaps_exact(mc, comps):
        # the key encoder reads each component's gaps from the engine
        asn = mc.engine.assignment_dict()
        for comp in comps:
            for ci in comp.cstr_ids:
                assert mc.engine.gapv[ci] == constraint_gap(mc.formula.constraints[ci], asn)

    @staticmethod
    def _assert_cover_exact(engine, comp):
        if comp.cover < 0:
            return
        assert comp.cover in comp.cstr_ids
        open_vars = {lit_var(lit) for _, lit in engine.constraints[comp.cover].terms
                     if engine.lit_value(lit) is None}
        assert open_vars == set(comp.var_ids)

    def test_cover_fast_path_matches_pure_splitter(self):
        # one constraint over every variable covers the root component;
        # the splits below it skip the search until that constraint is
        # satisfied, and search again from then on
        rng = random.Random(6612)
        fast = fallback = 0
        for _ in range(300):
            f = _helpers.covered_formula(rng)
            if f.unsat_at_load:
                continue
            n = f.num_vars
            mc = ModelCounter(f, CounterConfig())
            e = mc.engine
            if e.propagate() is not None:
                continue
            comps, _ = mc._split_scope(range(1, n + 1))
            while comps:
                comp = rng.choice(comps)
                # what the search does before branching on a cache miss
                if comp.cover < 0:
                    comp.cover = mc._find_cover(comp)
                self._assert_cover_exact(e, comp)
                v = rng.choice(comp.var_ids)
                e.decide(v if rng.random() < 0.5 else -v)
                if e.propagate() is not None:
                    break
                takes_fast_path = comp.cover >= 0 and e.gapv[comp.cover] > 0
                comps, free = mc._split_scope(comp.var_ids, comp)
                ref_comps, ref_free = residual_components(
                    mc.formula, e.assignment_dict())
                scope = set(comp.var_ids)
                assert comps == [c for c in ref_comps if scope.issuperset(c.var_ids)]
                assert free == len(scope.intersection(ref_free))
                self._assert_gaps_exact(mc, comps)
                if takes_fast_path:
                    assert [c.cover for c in comps] == [comp.cover]
                    fast += 1
                elif comp.cover >= 0:
                    fallback += 1
        assert fast > 100 and fallback > 50

    def test_debug_checks_catch_a_false_cover(self):
        # two disjoint clauses, and a parent that wrongly claims the first
        # one covers both: the fast path answers one component, the search two
        f = build_formula(4, [([(1, 1), (1, 2)], ">=", 1),
                              ([(1, 3), (1, 4)], ">=", 1)])
        parent = Component((1, 2, 3, 4), (0, 1), cover=0)
        mc = ModelCounter(f, CounterConfig())
        assert mc.engine.propagate() is None
        assert len(mc._split_scope(parent.var_ids, parent)[0]) == 1
        mc = ModelCounter(f, CounterConfig(debug_checks=True))
        assert mc.engine.propagate() is None
        with pytest.raises(AssertionError):
            mc._split_scope(parent.var_ids, parent)


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
        f = parse_opb(gen_auction(bids=40, items=20, revenue_fraction=0.15, seed=5))
        started = time.monotonic()
        with pytest.raises(SolveTimeout):
            count_models(f, CounterConfig(timeout_s=0.5))
        assert time.monotonic() - started < 2.5

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": float("nan")}, {"timeout_s": 0}, {"timeout_s": -1.0},
        {"max_cache_bytes": -1}, {"max_memory_bytes": -1},
        {"timeout_s": float("inf")},
        {"max_learned": -1}, {"max_learned": 2.5}, {"max_learned": None},
        {"max_learned": "10"}, {"max_learned": True},
        {"max_cache_bytes": None}, {"max_memory_bytes": "10"}, {"timeout_s": "1"},
        {"max_cache_bytes": 2.5}, {"max_memory_bytes": 2.5}, {"timeout_s": True},
        {"max_cache_bytes": True},
    ])
    def test_out_of_range_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CounterConfig(**kwargs)

    def test_smallest_budgets_accepted(self):
        cfg = CounterConfig(timeout_s=1e-6, max_cache_bytes=0, max_memory_bytes=0,
                            max_learned=0)
        assert cfg.timeout_s == 1e-6
        assert cfg.max_cache_bytes == 0 and cfg.max_memory_bytes == 0
        assert cfg.max_learned == 0

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
        for f in _pinned_formulas()[:17]:
            stats = count_models(f).stats
            peaks.append(stats.peak_open_components)
            conflicts += stats.conflicts
        assert conflicts > 50
        assert peaks == [0, 3, 5, 0, 1, 4, 4, 4, 5, 5, 5, 6, 10, 12, 11, 8, 20]

    @pytest.mark.parametrize("heuristic", ["vcis", "baseline"])
    def test_search_stats_pinned(self, heuristic):
        # every decision shows in these numbers, so a change to splitting
        # or branching that alters the search fails here
        assert SearchStats.__slots__ == _STAT_FIELDS
        got = []
        for f in _pinned_formulas():
            res = count_models(f, CounterConfig(heuristic=heuristic))
            got.append((res.count, tuple(res.stats.as_dict().values())))
        assert got == _PINNED_STATS[heuristic]

    @pytest.mark.parametrize("heuristic", ["vcis", "baseline"])
    def test_search_stats_pinned_with_two_learned(self, heuristic):
        # a store this small is reduced on most conflicts; what it keeps
        # and how it propagates afterwards both show in the search
        diffs, want_evicted = _PINNED_TWO_LEARNED[heuristic]
        want = [diffs.get(i, row) for i, row in enumerate(_PINNED_STATS[heuristic])]
        got = []
        evicted = 0
        for f in _pinned_formulas():
            mc = ModelCounter(f, CounterConfig(heuristic=heuristic, max_learned=2))
            res = mc.run()
            got.append((res.count, tuple(res.stats.as_dict().values())))
            engine = mc.engine
            # the store ends within its cap, with nothing kept of an evicted one
            held = len(engine.constraints) - engine.first_learned
            assert held <= 2
            for per_cstr in (engine.slack, engine.c_activity, engine.in_dirty):
                assert len(per_cstr) == engine.first_learned + held
            # gaps are kept for original constraints only
            assert len(engine.gapv) == engine.first_learned
            assert sum(map(len, engine.occ_learned)) == sum(
                len(c.terms) for c in engine.constraints[engine.first_learned:])
            evicted += engine.learned_total - held
        assert got == want
        assert evicted == want_evicted

    def test_stats_are_coherent(self):
        rng = random.Random(6611)
        res = None
        for _ in range(30):
            f = _helpers.tight_formula(rng, max_vars=10)
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
