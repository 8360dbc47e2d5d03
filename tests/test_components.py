"""Component splitting, canonical keys, and the count cache."""

import math
import random
import sys

import pytest

from pbtally import (Component, CountCache, brute_count, brute_residual_count,
                     build_formula, decode_component, encode_component,
                     residual_components, saturate_gap)
import pbtally.components
from pbtally.components import (GAP_TABLE_CELLS, _assignment_masks, count_by_gaps,
                                 count_component, mask_at_gap)
from pbtally.engine import UNASSIGNED
from pbtally.formula import PBConstraint, PBFormula, constraint_gap, lit_var
from pbtally.mass import MassVectors

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


def _at_least_rows(n, m):
    """``(comp, constraints, gapv, val)`` for rows ``i`` of ``m`` over ``n``
    variables, each ``x1 + ... + xn >= 1 + i``: ``2**n - 1`` models for one
    row and ``2**n - 1 - n`` for two."""
    lits = [(1, v) for v in range(1, n + 1)]
    cons = [PBConstraint(i, lits, 1 + i) for i in range(m)]
    comp = Component(range(1, n + 1), range(m))
    return (comp, cons) + _hand_arrays(cons, comp, [1 + i for i in range(m)])


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

    def test_row_that_cannot_reach_its_gap_counts_zero(self):
        # x1 or x3 has models, but x1 + ~x2 >= 3 needs three true literals
        # of two: no assignment counts, as a plain count or under K, where
        # every slot of the vector is 0
        cons = [PBConstraint(0, [(1, 1), (1, 3)], 1), PBConstraint(1, [(1, 1), (1, -2)], 3)]
        comp = Component((1, 2, 3), (0, 1))
        gapv, val = _hand_arrays(cons, comp, [1, 3])
        assert count_component(comp, cons, gapv, val) == 0
        vectors = MassVectors(PBConstraint(2, [(1, 1), (2, 3)], 2), 3)
        assert count_component(comp, cons, gapv, val, vectors) == 0

    def test_open_mass_past_the_int64_margin_is_enumerated(self):
        # masses are Python ints, so no open mass is too large: equal
        # coefficients, and unequal ones summing to 2**60 and just below
        half = 1 << 59
        for terms, gap, want in (
                # x1 true, or x1 false and x2 false
                (((half, 1), (half, -2)), half, 3),
                # x1 true, or x1 false, x2 false and x3 true
                (((half, 1), (half - 1, -2), (1, 3)), half, 5),
                (((half, 1), (half - 2, -2), (1, 3)), half - 1, 5)):
            cons = [PBConstraint(0, terms, gap)]
            comp = Component(range(1, len(terms) + 1), (0,))
            gapv, val = _hand_arrays(cons, comp, [gap])
            assert count_component(comp, cons, gapv, val) == want == brute_count(
                _helpers.component_subformula(cons_formula(cons), comp, [gap])).count

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rows_match_brute_force_by_assignment_and_by_weight(self, k):
        # rows of equal coefficients, counted as at-least-t rows, beside rows
        # of unequal ones, counted by their masses; with K, every entry of the
        # vector against the assignments' K weights, one by one
        rng = random.Random(2011 + k)
        val = [0] + [UNASSIGNED] * k
        seen = dict.fromkeys(("negative", "at_least_2", "saturated", "huge", "unequal",
                              "mixed", "k"), 0)
        for trial in range(24):
            cons = []
            for cid in range(rng.randint(1, 4)):
                lits = [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, k + 1), rng.randint(1, k))]
                kind = rng.choice(("clause", "cardinality", "saturated", "huge", "unequal"))
                if kind == "unequal" and len(lits) > 1:
                    terms = [(rng.randint(1, 9), lit) for lit in lits]
                    terms[0] = (10, lits[0])
                    gap = rng.randint(1, sum(a for a, _ in terms))
                else:
                    a = {"clause": 1, "cardinality": rng.randint(1, 5), "saturated": 7,
                         "huge": (1 << 61) + 3}.get(kind, 1)
                    terms = [(a, lit) for lit in lits]
                    gap = {"clause": 1, "saturated": rng.randint(1, 6)}.get(
                        kind, rng.randint(1, a * len(lits)))
                    seen["at_least_2"] += -(-gap // a) >= 2
                    seen["saturated"] += gap < a
                    seen["huge"] += a > 1 << 60
                seen["negative"] += any(lit < 0 for lit in lits)
                cons.append(PBConstraint(cid, terms, gap))
            unequal = [c.terms[0][0] != c.terms[-1][0] for c in cons]
            seen["unequal"] += any(unequal)
            seen["mixed"] += any(unequal) and not all(unequal)
            part = Component(range(1, k + 1), range(len(cons)))
            gapv = [c.degree for c in cons]
            models = [s for s in range(1 << k)
                      if all(sum(a for a, lit in c.terms if (lit > 0) == bool(s >> abs(lit) - 1 & 1))
                             >= c.degree for c in cons)]
            assert count_component(part, cons, gapv, val) == len(models)
            if trial % 2:
                # K over the variables of nonzero weight, each weight up to twice
                # its degree
                d = rng.randint(1, 3 * k)
                weights = [rng.randint(0, 2 * d) for _ in range(k)]
                mass = PBConstraint(len(cons), [(a, v if rng.random() < 0.5 else -v)
                                                for v, a in enumerate(weights, 1) if a], d)
                vectors = MassVectors(mass, k)
                want = [0] * (d + 1)
                for s in models:
                    w = sum(min(a, d) for a, lit in mass.terms
                            if (lit > 0) == bool(s >> abs(lit) - 1 & 1))
                    want[min(w, d)] += 1
                p = count_component(part, cons, gapv, val, vectors)
                assert vectors.fits(p)
                b = vectors.slot_bits
                assert [(p >> m * b) & ((1 << b) - 1) for m in range(d + 1)] == want
                seen["k"] += 1
        if k == 1:
            # one variable: every row has equal coefficients and one literal
            del seen["at_least_2"], seen["unequal"], seen["mixed"]
        assert min(seen.values()) >= 2, seen

    @pytest.mark.parametrize("k", range(10, 15))
    def test_rows_of_large_distinct_coefficients_match_brute_force(self, k):
        # one or two rows over every variable, of coefficients 2**(j + s) + 1,
        # beside a clause. Each gap is the mass of a random assignment, hit
        # exactly or one off, so a row that misreads its gap by one miscounts
        rng = random.Random(2604 + k)
        for trial in range(10):
            cons = []
            for cid in range(rng.randint(1, 2)):
                shift = rng.randint(0, 40)
                lits = [v if rng.random() < 0.5 else -v for v in range(1, k + 1)]
                rng.shuffle(lits)
                terms = [((1 << j + shift) + 1, lit) for j, lit in enumerate(lits)]
                hit = sum(a for a, _ in terms if rng.random() < 0.5) + rng.choice((-1, 0, 1))
                cons.append(PBConstraint(cid, terms, min(max(hit, 1), sum(a for a, _ in terms))))
            cons.append(PBConstraint(len(cons), [(1, v if rng.random() < 0.5 else -v)
                                                 for v in rng.sample(range(1, k + 1), 3)], 1))
            comp = Component(range(1, k + 1), range(len(cons)))
            gaps = [c.degree for c in cons]
            gapv, val = _hand_arrays(cons, comp, gaps)
            want = brute_count(_helpers.component_subformula(cons_formula(cons), comp, gaps))
            assert count_component(comp, cons, gapv, val) == want.count

    def test_a_row_holds_only_the_masses_that_can_reach_its_gap(self):
        # 14 coefficients 2**j + 1 whose gap is their sum: only the assignment
        # that sets every literal true reaches it, so after each literal one
        # mass can still reach the gap, and the row takes one mask of each
        # literal. All 2**14 masses below the gap would take 16,383
        taken = []

        class TakenMask(int):
            def __rand__(self, other):
                taken.append(self)
                return int(self) & other

            __and__ = __rand__

        k = 14
        ok, true, _ = _assignment_masks(k)
        lits = [((1 << j) + 1, TakenMask(true[j])) for j in reversed(range(k))]
        assert mask_at_gap(ok, lits, sum(a for a, _ in lits)) == 1 << (1 << k) - 1
        assert taken == [m for _, m in lits]

    def test_rows_of_equal_coefficients_make_no_numpy_call(self, monkeypatch):
        # two clauses and an at-least-2 over four variables, with no K:
        # x1 or ~x2, x3 or x4, and two of x1, ~x3, ~x4
        cons = [PBConstraint(0, [(1, 1), (1, -2)], 1), PBConstraint(1, [(1, 3), (1, 4)], 1),
                PBConstraint(2, [(3, 1), (3, -3), (3, -4)], 4)]
        comp = Component((1, 2, 3, 4), (0, 1, 2))
        gapv, val = _hand_arrays(cons, comp, [1, 1, 4])
        want = brute_count(_helpers.component_subformula(cons_formula(cons), comp,
                                                         [1, 1, 4])).count
        # with numpy out of sys.modules, importing it raises ImportError
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert count_component(comp, cons, gapv, val) == want == 4
        # nor do unequal rows or K: 3 x1 + 2 ~x2 + 2 x3 + x4 >= 4 beside the
        # clause x2 or x4 has six models. Under K, 2 x1 + ~x3 + 3 x4 >= 5, the
        # true ones of x1 x2 x3 weigh 2, of x3 x4 weigh 3, and of the other
        # four 5 or more
        cons = [PBConstraint(0, [(3, 1), (2, -2), (2, 3), (1, 4)], 4),
                PBConstraint(1, [(1, 2), (1, 4)], 1)]
        comp = Component((1, 2, 3, 4), (0, 1))
        gapv, val = _hand_arrays(cons, comp, [4, 1])
        assert count_component(comp, cons, gapv, val) == 6
        vectors = MassVectors(PBConstraint(2, [(2, 1), (1, -3), (3, 4)], 5), 4)
        p = count_component(comp, cons, gapv, val, vectors)
        b = vectors.slot_bits
        assert [(p >> m * b) & ((1 << b) - 1) for m in range(6)] == [0, 0, 1, 1, 0, 4]


class TestCountByGaps:
    def test_matches_oracle_on_random_residual_components(self):
        # each count by gaps equals exhaustive enumeration of the
        # component's subformula, and with the free variables' powers of
        # two they multiply to the residual count
        rng = random.Random(4421)
        seen = dict.fromkeys(("negative", "mixed", "saturated", "single", "multi",
                              "empty", "declined"), 0)
        builders = (_helpers.random_formula, _helpers.tight_formula,
                    _helpers.covered_formula)
        checked = 0
        for i in range(450):
            f = builders[i % 3](rng)
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
                n = count_by_gaps(comp, f.constraints, gapv, val)
                if math.prod(g + 1 for g in _gaps(gapv, comp)) > GAP_TABLE_CELLS:
                    # many clauses: the table grows as 2 to their number
                    assert n is None
                    product = None
                    break
                sub = _helpers.component_subformula(f, comp, _gaps(gapv, comp))
                assert n == brute_count(sub).count
                product *= n
                seen["empty"] += n == 0
                seen["single" if len(comp.cstr_ids) == 1 else "multi"] += 1
                signs = {}
                for cid in comp.cstr_ids:
                    for a, l in f.constraints[cid].terms:
                        if lit_var(l) not in asn:
                            signs.setdefault(lit_var(l), set()).add(l > 0)
                            seen["negative"] += l < 0
                            seen["saturated"] += a >= gapv[cid]
                seen["mixed"] += any(len(s) == 2 for s in signs.values())
            if product is None:
                seen["declined"] += 1
                continue
            assert product == brute_residual_count(f, asn)
            checked += 1
        assert checked > 250
        assert min(seen.values()) >= 20, seen

    def test_one_constraint_counts_the_assignments_that_miss_it(self):
        # 3 x1 + 2 ~x2 + 2 x3 >= 4: below 4 are 0, 2, 2 and 3 of the eight
        cons = [PBConstraint(0, [(3, 1), (2, -2), (2, 3)], 4)]
        comp = Component((1, 2, 3), (0,))
        gapv, val = _hand_arrays(cons, comp, [4])
        assert count_by_gaps(comp, cons, gapv, val) == 4 == brute_count(
            _helpers.component_subformula(cons_formula(cons), comp, [4])).count
        # one wide axis: 20 variables, every third negated, coefficients in
        # the thousands and a gap of half their sum, about 50,000 cells
        rng = random.Random(2011)
        terms = [(rng.randint(1000, 9999), -v if v % 3 == 0 else v) for v in range(1, 21)]
        gap = sum(a for a, _ in terms) // 2
        cons = [PBConstraint(0, terms, gap)]
        comp = Component(range(1, 21), (0,))
        gapv, val = _hand_arrays(cons, comp, [gap])
        want = brute_count(_helpers.component_subformula(cons_formula(cons), comp, [gap])).count
        assert count_by_gaps(comp, cons, gapv, val) == want
        assert 0 < want < 1 << 20

    def test_raises_of_one_up_to_past_the_gap_on_a_middle_axis(self):
        # the middle of three axes takes coefficients of 1, of exactly its
        # gap and past it, which the table caps at the gap: the shift that
        # keeps g + 1 - c cells, and the fill of the c cells below it
        rng = random.Random(1103)
        for _ in range(60):
            g = rng.randint(1, 5)
            coeffs = [1, g, g + rng.randint(1, 4)] + [rng.randint(1, g + 2) for _ in range(4)]
            rng.shuffle(coeffs)
            cons = []
            for cid in range(3):
                row = coeffs if cid == 1 else [rng.randint(1, 4) for _ in coeffs]
                terms = [(a, v if rng.random() < 0.5 else -v) for v, a in enumerate(row, 1)]
                gap = g if cid == 1 else rng.randint(1, sum(row))
                cons.append(PBConstraint(cid, terms, gap))
            gaps = [c.degree for c in cons]
            comp = Component(range(1, len(coeffs) + 1), (0, 1, 2))
            gapv, val = _hand_arrays(cons, comp, gaps)
            want = brute_count(_helpers.component_subformula(cons_formula(cons), comp,
                                                             gaps)).count
            assert count_by_gaps(comp, cons, gapv, val) == want

    def test_counts_stay_exact_on_both_sides_of_each_dtype_bound(self):
        # one clause, and two constraints over every variable, at least one
        # and at least two true: int32 tables up to 30 variables, int64 up
        # to 62 and Python ints past that, where the zero corner ends at
        # 2**n and the count at 2**n - 1 or 2**n - 1 - n
        for n in (30, 31, 32, 62, 63, 64, 90):
            for m in (1, 2):
                want = {1: (1 << n) - 1, 2: (1 << n) - 1 - n}[m]
                got = count_by_gaps(*_at_least_rows(n, m))
                assert type(got) is int and got == want

    def test_table_past_its_bound_is_left_to_the_search(self, monkeypatch):
        # gaps 4 and 5 need 5 * 6 cells; each of the three variables
        # reaches both gaps alone
        cons = [PBConstraint(0, [(4, 1), (4, 2), (4, 3)], 4),
                PBConstraint(1, [(5, -1), (5, 2), (5, 3)], 5)]
        comp = Component((1, 2, 3), (0, 1))
        gapv, val = _hand_arrays(cons, comp, [4, 5])
        want = brute_count(_helpers.component_subformula(cons_formula(cons), comp,
                                                         [4, 5])).count
        monkeypatch.setattr(pbtally.components, "GAP_TABLE_CELLS", 30)
        assert count_by_gaps(comp, cons, gapv, val) == want == 6
        monkeypatch.setattr(pbtally.components, "GAP_TABLE_CELLS", 29)
        assert count_by_gaps(comp, cons, gapv, val) is None
        # three tables at the bytes of three int64 tables at the bound: two
        # rows over 62 variables take 2 * 3 int64 cells, so the cell bound
        # holds first, and over 63 Python-int cells of a pointer and the
        # size of 2**63 each, held by the bytes at 33 cells and not at 32
        for n, cell in ((62, 8), (63, 8 + sys.getsizeof(1 << 63))):
            bound = -(-3 * cell * 6 // 24)
            monkeypatch.setattr(pbtally.components, "GAP_TABLE_CELLS", bound)
            assert count_by_gaps(*_at_least_rows(n, 2)) == (1 << n) - 1 - n
            monkeypatch.setattr(pbtally.components, "GAP_TABLE_CELLS", bound - 1)
            assert count_by_gaps(*_at_least_rows(n, 2)) is None
        # the module's bound, on one axis
        monkeypatch.undo()
        big = GAP_TABLE_CELLS
        comp = Component((1, 2), (0,))
        for gap, want in ((big - 1, 3), (big, None)):
            cons = [PBConstraint(0, [(gap, 1), (gap, 2)], gap)]
            gapv, val = _hand_arrays(cons, comp, [gap])
            assert count_by_gaps(comp, cons, gapv, val) == want

    def test_tables_over_the_byte_budget_are_left_to_the_search(self):
        # three int32 tables of 5 * 6 cells
        cons = [PBConstraint(0, [(4, 1), (4, 2), (4, 3)], 4),
                PBConstraint(1, [(5, -1), (5, 2), (5, 3)], 5)]
        comp = Component((1, 2, 3), (0, 1))
        gapv, val = _hand_arrays(cons, comp, [4, 5])
        assert count_by_gaps(comp, cons, gapv, val, max_bytes=3 * 4 * 30) == 6
        assert count_by_gaps(comp, cons, gapv, val, max_bytes=3 * 4 * 30 - 1) is None
        # three tables of 2 * 3 cells on both sides of each dtype bound:
        # int32 over 30 variables, int64 over 31 and 62, and Python ints
        # over 63 and 90, a cell a pointer and the size of 2**n
        for n in (30, 31, 62, 63, 90):
            cell = 4 if n <= 30 else 8 if n <= 62 else 8 + sys.getsizeof(1 << n)
            rows = _at_least_rows(n, 2)
            assert count_by_gaps(*rows, max_bytes=3 * cell * 6) == (1 << n) - 1 - n
            assert count_by_gaps(*rows, max_bytes=3 * cell * 6 - 1) is None

    def test_poll_runs_before_each_variable_and_may_stop_the_count(self):
        for m in (1, 2):
            cons = [PBConstraint(i, [(2, 1), (1, -2), (1, 3)], 2) for i in range(m)]
            comp = Component((1, 2, 3), range(m))
            gapv, val = _hand_arrays(cons, comp, [2] * m)
            polls = []
            # 2 x1 + ~x2 + x3 >= 2 fails only with x1 false and x2 true or x3 false
            assert count_by_gaps(comp, cons, gapv, val, poll=lambda: polls.append(1)) == 5
            assert len(polls) == 3

            def stop():
                raise TimeoutError
            with pytest.raises(TimeoutError):
                count_by_gaps(comp, cons, gapv, val, poll=stop)


def cons_formula(cons):
    """The formula over hand-built constraints, so the oracle can count them."""
    n = max(lit_var(l) for c in cons for _, l in c.terms)
    return PBFormula(n, [c.body() for c in cons])


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
        # component: saturation must raise gap 3 to x2's 4, not keep it.
        # Gaps below the largest coefficient, 5, are saturated; gaps at or
        # above it are kept as they are, the largest being x1's also when
        # x1 is assigned outside
        constraints = [PBConstraint(0, [(5, 1), (4, 2), (2, 3)], 7)]
        for open_vars in ((1, 2), (2, 3), (2,)):
            comp = Component(open_vars, (0,))
            for gap in (1, 3, 4, 5, 6, 7):
                gapv, val = _hand_arrays(constraints, comp, (gap,))
                for saturate in (True, False):
                    assert (encode_component(comp, constraints, gapv, val, saturate)
                            == _helpers.reference_encode_component(comp, constraints, (gap,),
                                                                   saturate))

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
