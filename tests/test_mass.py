"""Counting by weight vectors of the constraint over every variable (K)."""

import itertools
import math
import random
import time

import pytest

import _helpers
import pbtally.counter
import pbtally.mass
from pbtally import (CounterConfig, MemoryBudgetExceeded, ModelCounter, PBFormula,
                     SolveTimeout, brute_count, build_formula, count_models,
                     decode_component, gen_auction, gen_knapsack, parse_opb)
from pbtally.components import CountCache
from pbtally.formula import PBConstraint
from pbtally.mass import MassVectors


def _by_weight(weights, d):
    """The lumped vector of models of the given K weights, counted one by one."""
    p = [0] * (d + 1)
    for w in weights:
        p[min(w, d)] += 1
    return p


def _weights(mass, variables, models):
    """K weight of each model, a tuple of bools over ``variables``."""
    coeff = {abs(lit): (a, lit > 0) for a, lit in mass.terms}
    return [sum(coeff[v][0] for v, b in zip(variables, m) if v in coeff and b == coeff[v][1])
            for m in models]


def _pack(vectors, entries):
    """The vector whose slots hold ``entries``, one per weight up to the degree."""
    return sum(c << m * vectors.slot_bits for m, c in enumerate(entries))


def _entries(vectors, p):
    """The entries of the packed vector ``p``, one per slot up to the degree."""
    assert vectors.fits(p)
    b = vectors.slot_bits
    return [(p >> m * b) & ((1 << b) - 1) for m in range(vectors.degree + 1)]


class TestVectorHelpers:
    @pytest.mark.parametrize("d", [1, 7, 40, 300])
    def test_helpers_match_brute_force_by_weight(self, d):
        # over 11 variables a slot is 64 bits, over 70 it is 128. Variables
        # 1..n-1 are in K, with coefficients up to past the degree, and n
        # is not; a vector over 11 of them is checked against the models it
        # stands for, counted by their lumped weights
        rng = random.Random(d)
        for n, slot_bits in ((11, 64), (70, 128)):
            for _ in range(20):
                terms = [(rng.randint(1, d + 3), v if rng.random() < 0.5 else -v)
                         for v in range(1, n)]
                mass = PBConstraint(0, terms, d)
                vectors = MassVectors(mass, n)
                assert vectors.slot_bits == slot_bits
                order = rng.sample(range(1, n), 10) + [n]
                rng.shuffle(order)
                left, right = sorted(order[:5]), sorted(order[5:9])
                all_left = list(itertools.product((False, True), repeat=len(left)))
                all_right = list(itertools.product((False, True), repeat=len(right)))
                some_left = [m for m in all_left if rng.random() < 0.4]
                some_right = [m for m in all_right if rng.random() < 0.6]
                vec_left = _pack(vectors, _by_weight(_weights(mass, left, some_left), d))
                vec_right = _pack(vectors, _by_weight(_weights(mass, right, some_right), d))
                assert _entries(vectors, vec_left) == _by_weight(
                    _weights(mass, left, some_left), d)

                assert _entries(vectors, vectors.free(left)) == _by_weight(
                    _weights(mass, left, all_left), d)
                w = rng.randint(0, d + 2)
                assert _entries(vectors, vectors.shift(vec_left, w)) == _by_weight(
                    [x + w for x in _weights(mass, left, some_left)], d)
                product = [a + b for a in _weights(mass, left, some_left)
                           for b in _weights(mass, right, some_right)]
                assert _entries(vectors, vectors.mul(vec_left, vec_right)) == _by_weight(
                    product, d)
                monomial = vectors.shift(3 * vectors.free([]), w)
                assert _entries(vectors, vectors.mul(monomial, vec_right)) == _by_weight(
                    [b + w for b in _weights(mass, right, some_right)] * 3, d)
                rest = [m for m in all_left if m not in some_left]
                vec_rest = _pack(vectors, _by_weight(_weights(mass, left, rest), d))
                assert vec_left + vec_rest == vectors.free(left)
                assert vectors.final(vec_left) == sum(
                    1 for x in _weights(mass, left, some_left) if x >= d)

    def test_free_variables_outside_the_constraint_double_the_vector(self):
        vectors = MassVectors(PBConstraint(0, [(2, 1), (1, -2)], 2), 4)
        assert _entries(vectors, vectors.free([])) == [1, 0, 0]
        assert _entries(vectors, vectors.free([3, 4])) == [4, 0, 0]
        assert _entries(vectors, vectors.free([1, 2, 3])) == [2, 2, 4]
        assert vectors.weight([1, -2, 3]) == 3 and vectors.weight([-1, 2, -3]) == 0

    @pytest.mark.parametrize("n, slot_bits", [(62, 64), (63, 128), (126, 128), (127, 192)])
    def test_a_slot_holds_every_assignment_of_its_variables(self, n, slot_bits):
        # K of degree 1 over n variables, the most a slot of its width
        # takes and one more: the 2**n - 1 assignments with a true literal
        # all reach slot 1, alone and as the product of two halves, whose
        # lump sums two slots
        vectors = MassVectors(PBConstraint(0, [(1, v) for v in range(1, n + 1)], 1), n)
        assert vectors.slot_bits == slot_bits
        p = vectors.free(range(1, n + 1))
        assert _entries(vectors, p) == [1, 2**n - 1]
        assert vectors.final(p) == 2**n - 1
        half = n // 2
        assert vectors.mul(vectors.free(range(1, half + 1)),
                           vectors.free(range(half + 1, n + 1))) == p


def _formula_with_mass(rng: random.Random, max_vars: int = 15):
    """One mixed-sign constraint over every variable, of any operator, and
    one to eight narrower ones; every written constraint binds, so each
    stays after normalization, and an ``=`` over every variable becomes
    two constraints over every variable."""
    n = rng.randint(2, max_vars)

    def binding(terms, op):
        lo = sum(min(a, 0) for a, _ in terms)
        hi = sum(max(a, 0) for a, _ in terms)
        if op == ">=":
            return rng.randint(lo + 1, hi)
        if op == "<=":
            return rng.randint(lo, hi - 1)
        return rng.randint(lo + 1, hi - 1) if hi - lo > 1 else hi

    def signed_terms(variables, top):
        return [(rng.choice([-1, 1]) * rng.randint(1, top), v if rng.random() < 0.5 else -v)
                for v in variables]

    wide = signed_terms(range(1, n + 1), 7)
    op = rng.choice([">=", "<=", "="])
    cons = [(wide, op, binding(wide, op))]
    for _ in range(rng.randint(1, 8)):
        terms = signed_terms(rng.sample(range(1, n + 1), rng.randint(1, n - 1)), 5)
        op = rng.choice([">=", "<="])
        cons.append((terms, op, binding(terms, op)))
    rng.shuffle(cons)
    return build_formula(n, cons)


class TestCountsByWeight:
    def test_random_formulas_match_the_oracle_and_the_search(self):
        # K is chosen exactly when one constraint holds every variable
        rng = random.Random(1801)
        checked = with_mass = 0
        for _ in range(320):
            f = _formula_with_mass(rng)
            if f.unsat_at_load:
                continue
            mc = ModelCounter(f, CounterConfig())
            spanning = [c for c in mc.formula.constraints if len(c.terms) == f.num_vars]
            if len(spanning) == 1:
                assert mc.mass is spanning[0]
                with_mass += 1
            else:
                assert mc.mass is None
            want = brute_count(f).count
            assert mc.run().count == want
            assert count_models(f, CounterConfig(search_only=True)).count == want
            checked += 1
        assert checked >= 300 and with_mass > 200

    def test_debug_checks_stay_silent_with_mass(self):
        rng = random.Random(1802)
        for _ in range(60):
            f = _formula_with_mass(rng, max_vars=11)
            if f.unsat_at_load:
                continue
            assert count_models(f, CounterConfig(debug_checks=True)).count == \
                brute_count(f).count

    def test_not_chosen_without_a_narrower_constraint(self):
        # every knapsack row holds every item, and so does every row of a
        # formula of spanning rows; a single clause has nothing narrower
        for dims, items, seed in ((1, 12, 0), (2, 18, 1), (3, 14, 2)):
            f = parse_opb(gen_knapsack(items=items, dims=dims, seed=seed))
            mc = ModelCounter(f)
            assert mc.mass is None
            assert mc.run().count == count_models(f, CounterConfig(search_only=True)).count
        rng = random.Random(1803)
        for _ in range(40):
            n = rng.randint(2, 9)
            rows = [([(rng.randint(1, 5), v if rng.random() < 0.5 else -v)
                      for v in range(1, n + 1)], ">=", rng.randint(1, 2 * n))
                    for _ in range(rng.randint(1, 4))]
            f = build_formula(n, rows)
            assert ModelCounter(f).mass is None
        assert ModelCounter(build_formula(3, [([(1, 1), (1, 2), (1, 3)], ">=", 1)])).mass is None

    def test_not_chosen_when_two_constraints_hold_every_variable(self):
        # a second constraint over every variable keeps the search connected
        # with K or without it: a knapsack's three rows beside two clauses,
        # counted by four gap tables below six decisions, and an "=" over
        # every variable, which normalizes into two
        f = parse_opb(gen_knapsack(items=24, dims=3, seed=0)
                      + "+1 x1 +1 x2 >= 1 ;\n+1 ~x3 +1 ~x4 >= 1 ;\n")
        mc = ModelCounter(f)
        assert mc.mass is None
        res = mc.run()
        assert res.count == 3280328 == count_models(f, CounterConfig(search_only=True)).count
        assert res.stats.decisions == 6 and res.stats.gap_counts == 4
        rng = random.Random(1805)
        for _ in range(20):
            n = rng.randint(3, 12)
            wide = [(rng.randint(1, 7), v if rng.random() < 0.5 else -v)
                    for v in range(1, n + 1)]
            rows = [(wide, "=", rng.randint(1, sum(a for a, _ in wide) - 1))]
            rows += [([(1, v), (1, -(v % n + 1))], ">=", 1)
                     for v in rng.sample(range(1, n + 1), 2)]
            f = build_formula(n, rows)
            mc = ModelCounter(f)
            assert sum(len(c.terms) == n for c in mc.formula.constraints) == 2
            assert mc.mass is None
            want = brute_count(f).count
            assert mc.run().count == want
            assert count_models(f, CounterConfig(search_only=True)).count == want

    def test_degree_must_stay_below_max_mass_degree(self, monkeypatch):
        f = build_formula(4, [([(3, 1), (3, 2), (3, 3), (3, 4)], ">=", 6),
                              ([(1, 1), (1, 2)], ">=", 1)])
        want = brute_count(f).count
        monkeypatch.setattr(pbtally.mass, "MAX_MASS_DEGREE", 7)
        assert ModelCounter(f).mass.degree == 6
        assert count_models(f).count == want
        assert ModelCounter(f, CounterConfig(search_only=True)).mass is None
        assert count_models(f, CounterConfig(search_only=True)).count == want
        monkeypatch.setattr(pbtally.mass, "MAX_MASS_DEGREE", 6)
        assert ModelCounter(f).mass is None
        assert count_models(f).count == want

    @pytest.mark.parametrize("d, degree", [(4095, 4095), (4096, None)])
    def test_degree_bound_at_its_value(self, d, degree):
        # d x1 + d x2 + d x3 >= d beside x1 + x2 >= 1 on both sides of
        # MAX_MASS_DEGREE: K just below it, none at it, six models either way
        f = build_formula(3, [([(d, 1), (d, 2), (d, 3)], ">=", d),
                              ([(1, 1), (1, 2)], ">=", 1)])
        mc = ModelCounter(f)
        assert (None if mc.mass is None else mc.mass.degree) == degree
        assert mc.run().count == 6 == brute_count(f).count

    def test_learned_constraints_are_implied_and_asserting_with_mass(self, monkeypatch):
        # enumeration is off, so the search learns; each learned
        # constraint is implied by the formula without K, which the engine
        # searches
        monkeypatch.setattr(pbtally.counter, "LEAF_CELLS", 0)
        monkeypatch.setattr(pbtally.counter, "LEAF_BITS", 0)
        rng = random.Random(1804)
        logged = with_mass = 0
        for _ in range(250):
            base = _helpers.tight_formula(rng, max_vars=8)
            n = base.num_vars
            wide = tuple((rng.randint(1, 4), v if rng.random() < 0.5 else -v)
                         for v in range(1, n + 1))
            f = PBFormula(n, [c.body() for c in base.constraints]
                          + [(wide, rng.randint(1, sum(a for a, _ in wide)))])
            mc, res, _, learned = _helpers.count_with_events(f, search_only=False)
            assert res.count == brute_count(f).count
            if mc.mass is None:
                continue
            with_mass += 1
            searched = [c.body() for c in mc.formula.constraints if c is not mc.mass]
            want = brute_count(PBFormula(n, searched)).count
            for terms, degree, jump, asserting in learned:
                assert asserting
                assert jump >= 0
                with_it = PBFormula(n, searched + [(tuple(terms), degree)])
                assert brute_count(with_it).count == want
                logged += 1
        assert with_mass > 100 and logged > 50

    def test_more_than_62_variables_count_in_python_ints(self):
        # a chain of 69 clauses x_i or x_i+1 over 70 variables, 30 more
        # variables in K alone, and K: at least 60 of the 100 true. The
        # chain is one searched component of more than 62 variables, and
        # the count is past int64. The reference counts the chain's strings
        # with no two zeros in a row by their ones, then adds the free
        # variables by their binomials
        chain, free, d = 70, 30, 60
        n = chain + free
        rows = [([(1, i), (1, i + 1)], ">=", 1) for i in range(1, chain)]
        rows.append(([(1, v) for v in range(1, n + 1)], ">=", d))
        f = build_formula(n, rows)
        # strings so far ending in 0 and in 1, by their number of ones
        end0 = [1] + [0] * chain
        end1 = [0, 1] + [0] * (chain - 1)
        for _ in range(chain - 1):
            end0, end1 = end1, [0] + [a + b for a, b in zip(end0[:-1], end1[:-1])]
        strings = [a + b for a, b in zip(end0, end1)]
        assert sum(strings) == _fibonacci(chain + 2)
        want = sum(strings[k] * math.comb(free, j)
                   for k in range(chain + 1) for j in range(free + 1) if k + j >= d)
        assert want >= 1 << 63
        mc = ModelCounter(f)
        assert mc.mass is not None and mc.mass.degree == d
        res = mc.run()
        assert res.count == want
        assert res.stats.decisions > 0
        # over 100 variables a slot is 128 bits wide, and every stored
        # vector fits in d + 1 of them, the chain's own frame among them
        vectors = mc._vectors
        assert vectors.slot_bits == 128
        assert all(vectors.fits(vec) for vec in res.cache._store.values())
        assert chain in [len(decode_component(key, mc.engine.constraints)[0].var_ids)
                         for key in res.cache._store]


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestBudgetsWithMass:
    def test_timeout_overshoot_is_bounded_with_mass(self):
        # about 14 s of search on a 2-vCPU VM with the revenue floor as K
        f = parse_opb(gen_auction(bids=100, items=50, revenue_fraction=0.15, seed=0))
        mc = ModelCounter(f, CounterConfig(timeout_s=0.5))
        assert mc.mass is not None
        started = time.monotonic()
        with pytest.raises(SolveTimeout):
            mc.run()
        assert time.monotonic() - started < 2.5
        assert mc.stats.decisions > 0 and mc.stats.cache_stores > 0

    def test_memory_budget_holds_between_enumerations_with_mass(self):
        # 600 blocks of x + y + z >= 2 and K over all 1,800 variables: the
        # root splits into 600 components, each counted by enumeration
        # into a vector of 1,501 entries; each enumeration ticks the budget
        blocks = [build_formula(3, [([(1, 1), (1, 2), (1, 3)], ">=", 2)])] * 600
        union = _helpers.disjoint_union(blocks)
        n = union.num_vars
        f = PBFormula(n, [c.body() for c in union.constraints]
                      + [(tuple((1, v) for v in range(1, n + 1)), 1500)])
        # each block weighs 2 in three ways and 3 in one
        poly = [1]
        for _ in range(600):
            nxt = [0] * (len(poly) + 3)
            for m, c in enumerate(poly):
                nxt[m + 2] += 3 * c
                nxt[m + 3] += c
            poly = nxt
        res = count_models(f)
        assert res.count == sum(poly[1500:])
        assert res.stats.decisions == 0 and res.stats.leaf_counts == 600
        cache = res.cache
        assert cache.bytes_used == sum(CountCache._entry_bytes(k, c)
                                       for k, c in cache._store.items())
        assert all(CountCache._entry_bytes(k, c) > c.bit_length() // 8
                   for k, c in cache._store.items())
        with pytest.raises(MemoryBudgetExceeded):
            count_models(f, CounterConfig(max_memory_bytes=4096))

    @staticmethod
    def _ring_with_mass(n, coeff, degree):
        """The clauses x_i or x_i+1 around a ring of ``n`` variables, and K
        over all of them with one coefficient and a large degree."""
        rows = [([(1, i), (1, i % n + 1)], ">=", 1) for i in range(1, n + 1)]
        rows.append(([(coeff, v) for v in range(1, n + 1)], ">=", degree))
        return build_formula(n, rows)

    def test_memory_budget_counts_the_open_frames_vectors(self):
        # the cache holds nothing and the search learns nothing, so only
        # the vectors of up to 2,901 slots on the open frames can pass the
        # budget; they take about 60,000 bytes at the first check, and the
        # count finishes in about 1,650 steps if they are not counted
        f = self._ring_with_mass(30, 100, 2900)
        mc = ModelCounter(f, CounterConfig(max_cache_bytes=0, max_memory_bytes=50_000,
                                           timeout_s=60.0))
        assert mc.mass is not None and mc.mass.degree == 2900
        with pytest.raises(MemoryBudgetExceeded):
            mc.run()
        assert mc.cache.bytes_used == 0 and mc.engine.learned_bytes == 0
        assert len(mc._stack) > 5 and mc._accounted_bytes() > 50_000

    def test_timeout_overshoot_is_bounded_with_wide_vectors(self):
        # 64 variables, so a slot is 128 bits, and K of degree 2,626: a
        # vector takes up to 42 KB and its products are the longest steps,
        # up to about 0.02 s between two polls of the deadline; the count
        # takes 4.6-6 s on a 2-vCPU VM
        f = parse_opb(gen_auction(bids=64, items=32, max_price=500, revenue_fraction=0.15,
                                  seed=0))
        mc = ModelCounter(f, CounterConfig(timeout_s=0.5))
        assert mc.mass is not None and mc._vectors.slot_bits == 128
        started = time.monotonic()
        with pytest.raises(SolveTimeout):
            mc.run()
        assert time.monotonic() - started < 2.5
        assert mc.stats.decisions > 0
