"""Acceptance gate: eight pass/fail criteria for the whole counter.

Each test is one criterion, except that criterion 4 has two, the scores
and the choice they make; `pytest -v` therefore prints a line or two per
criterion. Expected values come from independent references: exhaustive
enumeration, exact rational arithmetic, a bit-parallel recount, and
frozen constants recorded from those references.
"""

import random
import time
from fractions import Fraction

import _helpers
from _bitparallel import bitparallel_count
from pbtally import (CounterConfig, ModelCounter, PBFormula, brute_count,
                     build_formula, count_models, encode_component, gen_knapsack,
                     gen_sensor, parse_opb, residual_components)
from pbtally.counter import compute_vcis_scores
from pbtally.cli import main as cli_main

# knapsack items=30 dims=2 max_coeff=9 capacity_fraction=0.5 seed=3,
# counted independently by the bit-parallel recount in _bitparallel.py
GOLDEN_KNAPSACK_COUNT = 451506119

# corpus envelope for criteria 1 and 2: at most 15 variables, at most 10
# written constraints, coefficient magnitudes at most 10, mixed operators
C1_CORPUS = dict(max_vars=15, max_coeff=10, max_cstrs=10)


def test_c1_counts_match_exhaustive_enumeration():
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(1000):
        f = _helpers.random_formula(rng, **C1_CORPUS)
        assert f.num_vars <= 15
        want = 0 if f.unsat_at_load else brute_count(f).count
        assert count_models(f, CounterConfig(search_only=True)).count == want
        checked += 1
    assert checked >= 1000
    assert time.monotonic() - started < 120.0


def test_c2_count_invariant_across_configurations():
    # replays the test_c1 corpus (same seed, same parameters) under every
    # heuristic x key-mode pair with enumeration off, and under the
    # default, which counts small components by enumeration; test_c1
    # already pinned the first pair to exhaustive enumeration on these
    # exact formulas
    rng = random.Random(101)
    configs = [CounterConfig(heuristic=h, saturate_keys=s, search_only=True)
               for h in ("vcis", "baseline") for s in (True, False)]
    configs.append(CounterConfig())
    instances = 0
    for _ in range(1000):
        f = _helpers.random_formula(rng, **C1_CORPUS)
        counts = {count_models(f, cfg).count for cfg in configs}
        assert len(counts) == 1
        instances += 1
    assert instances == 1000


def test_c3_equal_cache_keys_mean_equal_counts():
    rng = random.Random(103)
    raw_hits = 0
    sat_hits = 0
    formulas = 0
    while raw_hits < 10000 or sat_hits < 10000:
        f = _helpers.clause_heavy_formula(rng)
        if f.unsat_at_load:
            continue
        formulas += 1
        assert formulas <= 500, "collision volume never reached"
        raw_seen = {}
        sat_seen = {}
        for _ in range(120):
            asn = _helpers.random_partial_assignment(rng, f.num_vars)
            comps, _ = residual_components(f, asn)
            gapv, val = _helpers.engine_arrays(f, asn)
            for comp in comps:
                gaps = [gapv[cid] for cid in comp.cstr_ids]
                n = brute_count(_helpers.component_subformula(f, comp, gaps)).count
                raw = encode_component(comp, f.constraints, gapv, val, saturate=False)
                if raw in raw_seen:
                    assert raw_seen[raw] == n
                    raw_hits += 1
                else:
                    raw_seen[raw] = n
                sat = encode_component(comp, f.constraints, gapv, val, saturate=True)
                if sat in sat_seen:
                    assert sat_seen[sat] == n
                    sat_hits += 1
                else:
                    sat_seen[sat] = n
    assert raw_hits >= 10000 and sat_hits >= 10000
    # gap saturation may only merge components that count the same
    assert sat_hits >= raw_hits


# hand-computed branching-score battery: (num_vars, constraint specs,
# {var: (exact score, preferred phase)}); unlisted vars expect (0, True).
# Scores follow the stored normalized form, so saturation, operator
# rewrites, duplicate merging, and complement cancelling all apply first.
F = Fraction
VCIS_BATTERY = [
    # single constraint: each variable supplies coefficient/degree
    (2, [([(3, 1), (2, 2)], ">=", 4)],
     {1: (F(3, 4), True), 2: (F(1, 2), True)}),
    # two constraints: occurrences average
    (4, [([(2, 1), (3, 2)], ">=", 4), ([(1, 1), (2, 3)], ">=", 2)],
     {1: (F(1, 2), True), 2: (F(3, 4), True), 3: (F(1, 1), True)}),
    # oversized coefficient saturates to the degree before scoring
    (2, [([(5, 1), (2, 2)], ">=", 3)],
     {1: (F(1, 1), True), 2: (F(2, 3), True)}),
    # negative written coefficient becomes a negated-literal occurrence
    (3, [([(-2, 1), (1, 2), (1, 3)], ">=", 0)],
     {1: (F(1, 1), False), 2: (F(1, 2), True), 3: (F(1, 2), True)}),
    # equality stores both directions; polarity masses tie -> positive
    (2, [([(1, 1), (1, 2)], "=", 1)],
     {1: (F(1, 1), True), 2: (F(1, 1), True)}),
    (3, [([(4, 1), (2, 2), (1, 3)], ">=", 5)],
     {1: (F(4, 5), True), 2: (F(2, 5), True), 3: (F(1, 5), True)}),
    (3, [([(2, 1), (2, 2), (2, 3)], ">=", 3)],
     {1: (F(2, 3), True), 2: (F(2, 3), True), 3: (F(2, 3), True)}),
    # knapsack-style <= flips every literal
    (4, [([(3, 1), (3, 2), (2, 3), (1, 4)], "<=", 4)],
     {1: (F(3, 5), False), 2: (F(3, 5), False),
      3: (F(2, 5), False), 4: (F(1, 5), False)}),
    (2, [([(1, 1), (-1, 2)], ">=", 0)],
     {1: (F(1, 1), True), 2: (F(1, 1), False)}),
    # mixed three-constraint formula with a skipped variable slot
    (4, [([(2, 1), (1, 2)], ">=", 2), ([(1, 1), (1, 3)], ">=", 1),
         ([(-1, 1), (1, 2)], ">=", 0)],
     {1: (F(1, 1), True), 2: (F(3, 4), True), 3: (F(1, 1), True)}),
    # duplicate occurrences of one variable merge before scoring
    (2, [([(1, 1), (1, 1), (1, 2)], ">=", 2)],
     {1: (F(1, 1), True), 2: (F(1, 2), True)}),
    # opposite-polarity occurrences cancel before scoring
    (2, [([(2, 1), (-1, 1), (1, 2)], ">=", 1)],
     {1: (F(1, 1), True), 2: (F(1, 1), True)}),
    (3, [([(6, 1), (3, 2), (2, 3)], ">=", 6)],
     {1: (F(1, 1), True), 2: (F(1, 2), True), 3: (F(1, 3), True)}),
    (4, [([(1, 1), (1, 2), (1, 3), (1, 4)], ">=", 2)],
     {v: (F(1, 2), True) for v in (1, 2, 3, 4)}),
    (2, [([(7, 1), (7, 2)], ">=", 9)],
     {1: (F(7, 9), True), 2: (F(7, 9), True)}),
    (3, [([(2, 1), (1, 2), (1, 3)], "=", 2)],
     {1: (F(1, 1), True), 2: (F(1, 2), True), 3: (F(1, 2), True)}),
    (5, [([(3, 1), (2, 2), (2, 4), (1, 5)], ">=", 4)],
     {1: (F(3, 4), True), 2: (F(1, 2), True),
      4: (F(1, 2), True), 5: (F(1, 4), True)}),
]


def test_c4_branching_scores_match_hand_computed_values():
    constraints_checked = 0
    for num_vars, cons, want in VCIS_BATTERY:
        f = build_formula(num_vars, cons)
        assert not f.unsat_at_load
        constraints_checked += len(f.constraints)
        scores, phases = compute_vcis_scores(f)
        for v in range(1, num_vars + 1):
            expect, phase = want.get(v, (F(0), True))
            if expect == 0:
                assert scores[v] == 0.0
            else:
                assert abs(scores[v] - float(expect)) <= 1e-12 * float(expect)
            assert phases[v] == phase
    assert constraints_checked >= 20


def test_c4_branch_choice_matches_hand_computed_scores():
    # written constraints (normalized terms, degree):
    #   c1 = 2 x2 + ~x3 + x4 >= 2    ratios x2 1,   x3 1/2, x4 1/2
    #   c2 = x1 + ~x3 + x4 >= 2      ratios x1 1/2, x3 1/2, x4 1/2
    #   c3 = x1 + ~x3 >= 1           ratios x1 1,   x3 1
    # static score (mean ratio): x1 3/4, x2 1, x3 2/3, x4 1/2; x3 leans
    # negative. Active constraints: x1 2, x2 1, x3 3, x4 2. With activity
    # x1 2 and x3 1/2, each ingredient alone picks another variable:
    # activity x1, static x2, count x3. The sums, activity over 2 and
    # static over 1, are x1 1 + 3/4 + 2 = 3.75, x2 0 + 1 + 1 = 2,
    # x3 1/4 + 2/3 + 3 = 3.92 and x4 0 + 1/2 + 2 = 2.5, so x3 wins, on its
    # negative phase. Without the count x1 wins (7/4 against 11/12), and
    # so it does with the count divided by its maximum (2.42 against 1.92).
    f = build_formula(4, [([(2, 2), (1, -3), (1, 4)], ">=", 2),
                          ([(1, 1), (1, -3), (1, 4)], ">=", 2),
                          ([(1, 1), (1, -3)], ">=", 1)])
    want = {"vcis": -3, "baseline": 1}  # baseline: x1 2 + 2 = 4, x3 1/2 + 3
    for heuristic, lit in want.items():
        mc = ModelCounter(f, CounterConfig(heuristic=heuristic))
        assert mc.engine.propagate() is None
        comps, free = mc._split_scope(range(1, 5))
        assert free == [] and [tuple(c.var_ids) for c in comps] == [(1, 2, 3, 4)]
        mc.engine.activity[1] = 2.0
        mc.engine.activity[3] = 0.5
        assert mc._pick_literal(comps[0]) == lit


def test_c5_sensor_instances_are_well_formed():
    for seed in range(100):
        text = gen_sensor(sensors=10, targets=12, max_cover=4, seed=seed)
        lines = [l for l in text.strip().split("\n") if not l.startswith("*")]
        header = text.split("\n")[0].split()
        assert int(header[2]) == 10 and int(header[4]) == len(lines)
        assert len(lines) == 13
        for line in lines[:-1]:
            tokens = line.split()
            assert tokens[-3] == ">=" and tokens[-2] == "1"
            coeffs = tokens[:-3][0::2]
            vs = [int(t[1:]) for t in tokens[:-3][1::2]]
            assert all(c == "+1" for c in coeffs)
            assert 1 <= len(vs) <= 4
            assert vs == sorted(set(vs))
        tokens = lines[-1].split()
        assert tokens[-3] == "<="
        budget = int(tokens[-2])
        assert budget >= 2
        assert [int(t[1:]) for t in tokens[:-3][1::2]] == list(range(1, 11))
        f = parse_opb(text)
        assert f.num_vars == 10


def test_c6_reference_knapsack_recount():
    started = time.monotonic()
    f = parse_opb(gen_knapsack(items=30, dims=2, max_coeff=9,
                               capacity_fraction=0.5, seed=3))
    got = count_models(f).count
    assert got == GOLDEN_KNAPSACK_COUNT
    assert bitparallel_count(f) == GOLDEN_KNAPSACK_COUNT
    assert time.monotonic() - started < 60.0


def _conflict_rich_formula(rng):
    # dense overlapping windows pushed high: a large share of draws are
    # unsatisfiable only after real search, the rest conflict deeply
    n = rng.randint(4, 12)
    m = rng.randint(max(3, int(n * 1.2)), int(n * 1.6))
    cons = []
    for _ in range(m):
        k = rng.randint(2, min(n, 5))
        vs = rng.sample(range(1, n + 1), k)
        terms = [(rng.randint(1, 6), v if rng.random() < 0.5 else -v)
                 for v in vs]
        total = sum(c for c, _ in terms)
        deg = rng.randint(int(total * 0.25), max(1, int(total * 0.55)))
        cons.append((terms, ">=", deg))
    return build_formula(n, cons)


def test_c7_learned_constraints_are_implied_and_asserting():
    rng = random.Random(107)
    instances = 0
    unsat_seen = 0
    logged = 0
    while instances < 200:
        f = _conflict_rich_formula(rng)
        if f.unsat_at_load:
            continue
        mc, res, _, learned = _helpers.count_with_events(f)
        want = brute_count(f).count
        assert res.count == want
        if want == 0:
            unsat_seen += 1
        base = [c.body() for c in mc.formula.constraints]
        for terms, degree, jump, asserting in learned:
            assert asserting
            assert jump >= 0
            with_it = PBFormula(f.num_vars, base + [(tuple(terms), degree)])
            assert brute_count(with_it).count == want
            logged += 1
        instances += 1
    assert unsat_seen >= 40
    assert logged > 100


def test_c8_reports_are_deterministic(tmp_path, capsys):
    rng = random.Random(108)
    for i in range(50):
        if i % 3 == 0:
            text = gen_knapsack(items=rng.randint(8, 12), dims=2,
                                seed=rng.randrange(1000))
        elif i % 3 == 1:
            text = gen_sensor(sensors=rng.randint(6, 9),
                              targets=rng.randint(6, 12),
                              seed=rng.randrange(1000))
        else:
            from pbtally import gen_auction
            text = gen_auction(bids=rng.randint(6, 10),
                               seed=rng.randrange(1000))
        path = tmp_path / ("inst%d.opb" % i)
        path.write_text(text)
        runs = []
        for _ in range(2):
            code = cli_main(["count", "--stats", str(path)])
            out, err = capsys.readouterr()
            assert code == 0
            payload = _helpers.load_report(err)
            del payload["elapsed_s"]
            runs.append((out, payload))
        assert runs[0] == runs[1]
