"""Component splitting, canonical keys, and the count cache."""

import random

import pytest

from pbtally import (Component, CountCache, brute_count, brute_residual_count,
                     build_formula, decode_component, encode_component,
                     residual_components, saturate_gap)
from pbtally.components import LEAF_MASS_LIMIT, count_component
from pbtally.engine import UNASSIGNED
from pbtally.formula import PBConstraint, constraint_gap, lit_var

import _helpers


def _hand_arrays(constraints, comp, gaps):
    """``(gapv, val)`` for a hand-built component: ``gaps`` at its
    constraint ids, its variables open and every other variable of the
    constraints assigned, as under the trail it was split under."""
    gapv = [0] * len(constraints)
    for cid, gap in zip(comp.cstr_ids, gaps):
        gapv[cid] = gap
    val = [0] * (max(lit_var(l) for c in constraints for _, l in c.terms) + 1)
    for v in comp.var_ids:
        val[v] = UNASSIGNED
    return gapv, val


def _gaps(gapv, comp):
    return tuple(gapv[cid] for cid in comp.cstr_ids)


class TestResidualComponents:
    def test_disjoint_constraints_split(self):
        f = build_formula(4, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 3), (1, 4)], ">=", 1),
        ])
        comps, free = residual_components(f, {})
        assert free == []
        assert comps == [Component((1, 2), (0,)), Component((3, 4), (1,))]

    def test_shared_variable_connects(self):
        f = build_formula(3, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 2), (1, 3)], ">=", 1),
        ])
        comps, free = residual_components(f, {})
        assert len(comps) == 1
        assert comps[0].var_ids == (1, 2, 3)
        assert comps[0].cstr_ids == (0, 1)

    def test_assigning_bridge_variable_splits(self):
        f = build_formula(3, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 2), (1, 3)], ">=", 1),
        ])
        comps, free = residual_components(f, {2: False})
        assert comps == [Component((1,), (0,)), Component((3,), (1,))]
        assert free == []

    def test_satisfied_constraints_drop_out(self):
        f = build_formula(3, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, 2), (1, 3)], ">=", 1),
        ])
        comps, free = residual_components(f, {2: True})
        assert comps == []
        assert free == [1, 3]

    def test_unconstrained_variables_are_free(self):
        f = build_formula(5, [([(1, 2), (1, 3)], ">=", 1)])
        comps, free = residual_components(f, {})
        assert comps == [Component((2, 3), (0,))]
        assert free == [1, 4, 5]

    def test_gap_counts_only_true_literals(self):
        f = build_formula(3, [([(3, 1), (2, 2), (1, 3)], ">=", 4)])
        for truth, gap in ((True, 1), (False, 4)):
            comps, _ = residual_components(f, {1: truth})
            assert comps == [Component((2, 3), (0,))]
            assert _helpers.engine_arrays(f, {1: truth})[0] == [gap]

    def test_negative_literal_gap(self):
        # ~x1 + x2 >= 1 with x1 true: the negated literal contributes nothing
        f = build_formula(2, [([(1, -1), (1, 2)], ">=", 1)])
        comps, _ = residual_components(f, {1: True})
        assert comps == [Component((2,), (0,))]
        assert _helpers.engine_arrays(f, {1: True})[0] == [1]
        comps, free = residual_components(f, {1: False})
        assert comps == []
        assert free == [2]

    def test_partition_properties_random(self):
        rng = random.Random(4401)
        checked = 0
        for _ in range(200):
            f = _helpers.random_formula(rng, max_vars=9)
            if f.unsat_at_load:
                continue
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, free = residual_components(f, asn)
            spoken = set(free)
            assert len(free) == len(spoken)
            for comp in comps:
                vs = set(comp.var_ids)
                assert not vs & spoken
                spoken |= vs
                assert list(comp.var_ids) == sorted(vs)
                assert list(comp.cstr_ids) == sorted(set(comp.cstr_ids))
            unassigned = {v for v in range(1, f.num_vars + 1) if v not in asn}
            assert spoken == unassigned
            # every active constraint lands in exactly one component,
            # with all of its unassigned variables inside that component
            placed = {}
            for i, comp in enumerate(comps):
                for cid in comp.cstr_ids:
                    assert cid not in placed
                    placed[cid] = i
            for c in f.constraints:
                g = constraint_gap(c, asn)
                open_vars = {lit_var(l) for _, l in c.terms if lit_var(l) not in asn}
                if g <= 0 or not open_vars:
                    assert c.cid not in placed
                else:
                    comp = comps[placed[c.cid]]
                    assert open_vars <= set(comp.var_ids)
            checked += 1
        assert checked > 150

    def test_component_counts_multiply(self):
        # splitting must preserve the residual model count
        rng = random.Random(4402)
        checked = 0
        for _ in range(250):
            f = _helpers.random_formula(rng, max_vars=9)
            if f.unsat_at_load:
                continue
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            dead = any(constraint_gap(c, asn) > 0
                       and all(lit_var(l) in asn for _, l in c.terms)
                       for c in f.constraints)
            if dead:
                # a fully assigned yet unsatisfied constraint: the splitter
                # only sees open variables, so the caller must catch this
                assert brute_residual_count(f, asn) == 0
                continue
            comps, free = residual_components(f, asn)
            gapv, _ = _helpers.engine_arrays(f, asn)
            product = 1 << len(free)
            for comp in comps:
                sub = _helpers.component_subformula(f, comp, _gaps(gapv, comp))
                product *= brute_count(sub).count
            assert product == brute_residual_count(f, asn)
            checked += 1
        assert checked > 150


class TestCountComponent:
    def test_matches_oracle_on_random_residual_components(self):
        # each enumerated count equals exhaustive enumeration of the
        # component's subformula, and with the free variables' powers of
        # two they multiply to the residual count
        rng = random.Random(4411)
        seen = dict.fromkeys(("negative", "saturated", "clausal", "empty"), 0)
        checked = 0
        for _ in range(300):
            f = _helpers.random_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            if any(constraint_gap(c, asn) > 0 and all(lit_var(l) in asn for _, l in c.terms)
                   for c in f.constraints):
                # a fully assigned yet unsatisfied constraint is in no component
                continue
            comps, free = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            product = 1 << len(free)
            for comp in comps:
                n = count_component(comp, f.constraints, gapv, val)
                sub = _helpers.component_subformula(f, comp, _gaps(gapv, comp))
                assert n == brute_count(sub).count
                product *= n
                seen["empty"] += n == 0
                for cid in comp.cstr_ids:
                    c = f.constraints[cid]
                    open_terms = [(a, l) for a, l in c.terms if lit_var(l) not in asn]
                    seen["negative"] += any(l < 0 for _, l in open_terms)
                    seen["saturated"] += gapv[cid] < min(a for a, _ in open_terms)
                    seen["clausal"] += c.clausal
            assert product == brute_residual_count(f, asn)
            checked += 1
        assert checked > 150
        assert min(seen.values()) >= 20, seen

    def test_negative_literal_counts_when_false(self):
        # 2 x1 + 3 ~x2 >= 3 holds exactly when x2 is false
        cons = [PBConstraint(0, [(2, 1), (3, -2)], 3)]
        comp = Component((1, 2), (0,))
        gapv, val = _hand_arrays(cons, comp, [3])
        assert count_component(comp, cons, gapv, val) == 2

    def test_open_mass_at_the_int64_margin_is_left_to_the_search(self):
        half = LEAF_MASS_LIMIT >> 1
        comp = Component((1, 2), (0,))
        at_limit = [PBConstraint(0, [(half, 1), (half, -2)], half)]
        gapv, val = _hand_arrays(at_limit, comp, [half])
        assert count_component(comp, at_limit, gapv, val) is None
        # one less is enumerated: x1 true, or x1 false and x2 false
        below = [PBConstraint(0, [(half, 1), (half - 1, -2)], half - 1)]
        gapv, val = _hand_arrays(below, comp, [half - 1])
        assert count_component(comp, below, gapv, val) == 3


class TestSaturateGap:
    def test_below_smallest_coefficient_is_collapsed(self):
        assert saturate_gap(1, 3) == 3
        assert saturate_gap(2, 3) == 3

    def test_at_or_above_smallest_coefficient_is_kept(self):
        assert saturate_gap(3, 3) == 3
        assert saturate_gap(5, 3) == 5
        assert saturate_gap(7, 2) == 7


class TestComponentKeys:
    def test_clausal_key_layout_exact_bytes(self):
        f = build_formula(7, [
            ([(1, 2), (1, 5)], ">=", 1),
            ([(2, 1), (3, 7)], ">=", 4),
            ([(1, 1), (1, 7)], ">=", 1),
            ([(1, 5), (1, 6)], ">=", 1),
        ])
        comp = Component((2, 5, 6), (0, 3))
        gapv, val = _helpers.engine_arrays(f, {1: True, 7: True})
        key = encode_component(comp, f.constraints, gapv, val)
        # counts and first ids, then deltas; both constraints are clauses,
        # so no remaining-degree bytes follow
        assert key == bytes([3, 2, 3, 1, 2, 0, 3])

    def test_non_clausal_degree_appended(self):
        f = build_formula(2, [([(2, 1), (3, 2)], ">=", 4)])
        comp = Component((1, 2), (0,))
        gapv, val = _helpers.engine_arrays(f, {})
        key = encode_component(comp, f.constraints, gapv, val, saturate=False)
        assert key == bytes([2, 1, 1, 1, 0, 3])

    def test_cover_is_not_part_of_the_subproblem(self):
        f = build_formula(2, [([(2, 1), (3, 2)], ">=", 4)])
        plain = Component((1, 2), (0,))
        covered = Component((1, 2), (0,), cover=0)
        assert plain.cover == -1 and covered.cover == 0
        assert covered == plain and hash(covered) == hash(plain)
        gapv, val = _helpers.engine_arrays(f, {})
        key = encode_component(covered, f.constraints, gapv, val)
        assert key == encode_component(plain, f.constraints, gapv, val)
        assert decode_component(key, f.constraints)[0].cover == -1
        # the cover is keyword-only: a third positional argument is an error
        with pytest.raises(TypeError):
            Component((1, 2), (0,), 0)

    def test_round_trip_without_saturation(self):
        rng = random.Random(4403)
        seen = 0
        for _ in range(150):
            f = _helpers.random_formula(rng, max_vars=10)
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, _ = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            for comp in comps:
                key = encode_component(comp, f.constraints, gapv, val, saturate=False)
                assert decode_component(key, f.constraints) == (comp, _gaps(gapv, comp))
                seen += 1
        assert seen > 100

    def test_round_trip_with_saturation(self):
        rng = random.Random(4404)
        for _ in range(150):
            f = _helpers.random_formula(rng, max_vars=10)
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, _ = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            for comp in comps:
                in_comp = set(comp.var_ids)
                want = []
                for cid, gap in zip(comp.cstr_ids, _gaps(gapv, comp)):
                    c = f.constraints[cid]
                    if c.clausal:
                        want.append(1)
                    else:
                        m = min(a for a, l in c.terms if lit_var(l) in in_comp)
                        want.append(saturate_gap(gap, m))
                key = encode_component(comp, f.constraints, gapv, val, saturate=True)
                got, got_gaps = decode_component(key, f.constraints)
                assert got.var_ids == comp.var_ids
                assert got.cstr_ids == comp.cstr_ids
                assert got_gaps == tuple(want)

    @pytest.mark.parametrize("seed", [4403, 4404])
    def test_matches_reference_encoder(self, seed):
        rng = random.Random(seed)
        seen = 0
        for _ in range(150):
            f = _helpers.random_formula(rng, max_vars=10)
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, _ = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            for comp in comps:
                for saturate in (True, False):
                    assert (encode_component(comp, f.constraints, gapv, val, saturate)
                            == _helpers.reference_encode_component(
                                comp, f.constraints, _gaps(gapv, comp), saturate))
                seen += 1
        assert seen > 100
        # the smallest coefficient is x3's, and x3 is assigned outside the
        # component: saturation must raise gap 3 to x2's 4, not keep it
        constraints = [PBConstraint(0, [(5, 1), (4, 2), (2, 3)], 5)]
        comp = Component((1, 2), (0,))
        gapv, val = _hand_arrays(constraints, comp, (3,))
        for saturate in (True, False):
            assert (encode_component(comp, constraints, gapv, val, saturate)
                    == _helpers.reference_encode_component(comp, constraints, (3,), saturate))

    @pytest.mark.parametrize("n", [127, 128, 16383, 16384])
    def test_matches_reference_at_varint_boundaries(self, n):
        clause = PBConstraint(0, [(1, 1), (1, -2)], 1)
        cases = [
            # variable count n; every coefficient exceeds gap 1
            ([PBConstraint(0, [(3 if v % 2 else 2, -v if v % 3 else v)
                               for v in range(1, n + 1)], 5)],
             Component(range(1, n + 1), (0,)), (1,)),
            # first variable and variable delta n; x(3n) is outside
            ([PBConstraint(0, [(5, n), (4, -2 * n), (9, 2 * n + 1), (1, 3 * n)], 6)],
             Component((n, 2 * n, 2 * n + 1), (0,)), (3,)),
            # constraint count n, clausal and non-clausal in turn
            ([clause if i % 2 else PBConstraint(i, [(2, 1), (3, 2)], 3)
              for i in range(n)],
             Component((1, 2), range(n)), tuple(1 if i % 2 else 2 for i in range(n))),
            # first constraint id and constraint delta n
            ([clause] * (2 * n) + [PBConstraint(2 * n, [(4, 1), (7, 2)], 9)],
             Component((1, 2), (n, 2 * n)), (1, 3)),
            # remaining degree n + 1 kept, and n + 1 raised from 1
            ([PBConstraint(0, [(n + 1, 1), (n + 7, 2)], n + 9),
              PBConstraint(1, [(n + 2, 1), (n + 1, -2)], n + 2)],
             Component((1, 2), (0, 1)), (n + 1, 1)),
        ]
        for constraints, comp, gaps in cases:
            gapv, val = _hand_arrays(constraints, comp, gaps)
            for saturate in (True, False):
                want = _helpers.reference_encode_component(comp, constraints, gaps, saturate)
                assert encode_component(comp, constraints, gapv, val, saturate) == want
            key = encode_component(comp, constraints, gapv, val, saturate=False)
            assert decode_component(key, constraints) == (comp, gaps)

    def test_multibyte_varint_ids(self):
        f = build_formula(300, [([(2, 1), (3, 200)], ">=", 4)])
        comp = Component((1, 200), (0,))
        gapv, val = _helpers.engine_arrays(f, {})
        key = encode_component(comp, f.constraints, gapv, val, saturate=False)
        assert decode_component(key, f.constraints) == (comp, (4,))

    def test_trailing_bytes_rejected(self):
        f = build_formula(2, [([(1, 1), (1, 2)], ">=", 1)])
        comp = Component((1, 2), (0,))
        key = encode_component(comp, f.constraints, *_helpers.engine_arrays(f, {}))
        with pytest.raises(ValueError):
            decode_component(key + b"\x00", f.constraints)

    def test_saturation_merges_equivalent_degrees(self):
        # remaining degrees 1 and 2 with smallest open coefficient 3: any
        # single true literal closes either, so keys and counts coincide
        f = build_formula(4, [([(3, 1), (3, 2), (1, 3), (2, 4)], ">=", 3)])
        a1 = {3: True, 4: False}
        a2 = {3: False, 4: True}
        (c1,), _ = residual_components(f, a1)
        (c2,), _ = residual_components(f, a2)
        gapv1, val1 = _helpers.engine_arrays(f, a1)
        gapv2, val2 = _helpers.engine_arrays(f, a2)
        assert gapv1 == [2] and gapv2 == [1]
        raw1 = encode_component(c1, f.constraints, gapv1, val1, saturate=False)
        raw2 = encode_component(c2, f.constraints, gapv2, val2, saturate=False)
        assert raw1 != raw2
        sat1 = encode_component(c1, f.constraints, gapv1, val1, saturate=True)
        sat2 = encode_component(c2, f.constraints, gapv2, val2, saturate=True)
        assert sat1 == sat2
        assert brute_residual_count(f, a1) == brute_residual_count(f, a2) == 3

    def test_saturated_degree_preserves_count(self):
        rng = random.Random(4405)
        for _ in range(150):
            f = _helpers.random_formula(rng, max_vars=9)
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, _ = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            for comp in comps:
                key = encode_component(comp, f.constraints, gapv, val, saturate=True)
                canon, canon_gaps = decode_component(key, f.constraints)
                raw_sub = _helpers.component_subformula(f, comp, _gaps(gapv, comp))
                raw = brute_count(raw_sub).count
                sat = brute_count(_helpers.component_subformula(f, canon, canon_gaps)).count
                assert raw == sat

    def test_equal_saturated_keys_equal_counts(self):
        rng = random.Random(4406)
        comparisons = 0
        for _ in range(40):
            f = _helpers.clause_heavy_formula(rng)
            if f.unsat_at_load:
                continue
            seen = {}
            for _ in range(40):
                asn = _helpers.random_partial_assignment(rng, f.num_vars)
                comps, _ = residual_components(f, asn)
                gapv, val = _helpers.engine_arrays(f, asn)
                for comp in comps:
                    key = encode_component(comp, f.constraints, gapv, val, saturate=True)
                    sub = _helpers.component_subformula(f, comp, _gaps(gapv, comp))
                    n = brute_count(sub).count
                    if key in seen:
                        assert seen[key] == n
                        comparisons += 1
                    else:
                        seen[key] = n
        assert comparisons > 500


def _key(i: int) -> bytes:
    return i.to_bytes(8, "big")


class TestCountCache:
    def test_lookup_hit_and_miss(self):
        cache = CountCache()
        assert cache.lookup(b"a") is None
        cache.store(b"a", 7)
        assert cache.lookup(b"a") == 7
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_zero_counts_are_stored(self):
        cache = CountCache()
        cache.store(b"dead", 0)
        assert cache.lookup(b"dead") == 0

    def test_first_store_wins(self):
        cache = CountCache()
        assert cache.store(b"k", 5) == 5
        before = cache.bytes_used
        assert cache.store(b"k", 9) == 5
        assert cache.lookup(b"k") == 5
        assert cache.stores == 1
        assert cache.log_position() == 1
        assert cache.bytes_used == before

    def test_purge_from_drops_later_entries(self):
        cache = CountCache()
        cache.store(b"a", 1)
        pos = cache.log_position()
        cache.store(b"b", 2)
        cache.store(b"c", 3)
        removed = cache.purge_from(pos)
        assert removed == 2
        assert cache.lookup(b"a") == 1
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"c") is None
        assert cache.log_position() == pos
        assert cache.purged == 2

    def test_purge_at_or_past_end_is_noop(self):
        cache = CountCache()
        cache.store(b"a", 1)
        assert cache.purge_from(cache.log_position()) == 0
        assert cache.purge_from(99) == 0
        assert cache.lookup(b"a") == 1

    def test_purge_restores_byte_accounting(self):
        cache = CountCache()
        cache.store(b"a", 1)
        base = cache.bytes_used
        cache.store(b"bb", 300)
        cache.store(b"ccc", 5)
        cache.purge_from(1)
        assert cache.bytes_used == base
        cache.purge_from(0)
        assert cache.bytes_used == 0
        assert len(cache) == 0

    def test_exact_entry_size(self):
        cache = CountCache()
        cache.store(b"abc", 300)
        # 3 key bytes, 2 count bytes, fixed overhead
        assert cache.bytes_used == 3 + 2 + CountCache.ENTRY_OVERHEAD
        cache2 = CountCache()
        cache2.store(b"abc", 0)
        assert cache2.bytes_used == 3 + 1 + CountCache.ENTRY_OVERHEAD

    def test_eviction_keeps_budget(self):
        entry = 8 + 1 + CountCache.ENTRY_OVERHEAD
        cache = CountCache(max_bytes=entry * 50)
        for i in range(300):
            cache.store(_key(i), 1)
        assert cache.evictions == 250
        assert len(cache) == 50
        assert cache.bytes_used <= cache.max_bytes
        assert cache.bytes_peak > cache.max_bytes

    def test_eviction_is_oldest_first(self):
        entry = 8 + 1 + CountCache.ENTRY_OVERHEAD
        cache = CountCache(max_bytes=entry * 20)
        for i in range(200):
            cache.store(_key(i), 1)
        assert cache.evictions == 180
        assert sorted(cache._store) == sorted(_key(i) for i in range(180, 200))
        assert list(cache._log) == [_key(i) for i in range(180, 200)]

    def test_purge_after_eviction(self):
        entry = 8 + 1 + CountCache.ENTRY_OVERHEAD
        # the eviction front is at position 45; purge below, at and above it
        for pos, removed in ((10, 5), (45, 5), (47, 3)):
            cache = CountCache(max_bytes=entry * 5)
            for i in range(50):
                cache.store(_key(i), 1)
            assert cache.evictions == 45
            assert cache.log_position() == 50
            assert cache.purge_from(pos) == removed
            assert cache.purged == removed
            assert cache.log_position() == max(pos, 45)
            assert cache.bytes_used == entry * (5 - removed)
            assert sorted(cache._store) == [_key(i) for i in range(45, max(pos, 45))]
            cache.store(b"fresh", 2)
            assert cache.lookup(b"fresh") == 2
            assert cache.log_position() == max(pos, 45) + 1
            assert cache.purge_from(max(pos, 45)) == 1
            assert cache.lookup(b"fresh") is None

    def test_log_is_bounded_by_live_entries(self):
        entry = 8 + 1 + CountCache.ENTRY_OVERHEAD
        cache = CountCache(max_bytes=entry * 20)
        for i in range(10000):
            cache.store(_key(i), 1)
        assert len(cache._log) == len(cache) == 20
        assert cache.log_position() == 10000

    def test_corrupt_hook_breaks_one_store(self):
        cache = CountCache()
        cache.debug_corrupt_after = 1
        # the search multiplies in what store returns, so the corruption shows
        assert [cache.store(k, n) for k, n in ((b"a", 10), (b"b", 20), (b"c", 30))] \
            == [10, 21, 30]
        assert cache.lookup(b"a") == 10
        assert cache.lookup(b"b") == 21
        assert cache.lookup(b"c") == 30
