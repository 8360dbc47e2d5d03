"""Propagation, backjumping, conflict analysis, and the learned store."""

import random

import pytest

import _helpers
from pbtally import (CounterConfig, ModelCounter, PBFormula, brute_count, build_formula,
                     gen_auction, parse_opb)
from pbtally.counter import dedup_constraints
from pbtally.engine import _ACTIVITY_CAP, COEFF_GUARD, UNASSIGNED, Engine


def implied_by(f, terms, degree):
    """Every model of f satisfies the constraint (checked exhaustively)."""
    with_it = PBFormula(f.num_vars,
                        [c.body() for c in f.constraints] + [(tuple(terms), degree)])
    return brute_count(f).count == brute_count(with_it).count


class TestPropagation:
    def test_initial_forcing_at_root(self):
        f = build_formula(3, [([(3, 1), (2, 2), (1, 3)], ">=", 4)])
        e = Engine(f)
        assert e.propagate() is None
        # 3 exceeds the slack of 2, the smaller coefficients do not
        assert e.lit_value(1) is True
        assert e.lit_value(2) is None
        assert e.lit_value(3) is None
        assert e.reason[1] == 0
        assert e.level[1] == 0
        e.check_integrity()

    def test_decision_triggers_forcing(self):
        f = build_formula(2, [([(1, 1), (1, 2)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        assert e.trail == []
        e.decide(-1)
        assert e.propagate() is None
        assert e.lit_value(2) is True
        assert e.current_level() == 1
        assert e.trail_view() == [(-1, 1, -1), (2, 1, 0)]
        e.check_integrity()

    def test_conflict_is_reported(self):
        f = build_formula(2, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, -1), (1, 2)], ">=", 1),
        ])
        e = Engine(f)
        assert e.propagate() is None
        e.decide(-2)
        # ~x2 lowers both slacks; the first scan forces x1, which breaks the second
        confl = e.propagate()
        assert confl == 1
        assert e.trail_view() == [(-2, 1, -1), (1, 1, 0)]
        e.check_integrity(expect_quiescent=False)

    def test_conflicting_input_found_at_root(self):
        f = build_formula(1, [
            ([(1, 1)], ">=", 1),
            ([(1, -1)], ">=", 1),
        ])
        e = Engine(f)
        # the scan of constraint 0 forces x1, and applying it breaks constraint 1
        confl = e.propagate()
        assert confl == 1
        assert analyze_like_reference(e, confl) == (None, 0)

    def test_backjump_restores_engine_state(self):
        rng = random.Random(5501)
        restored = 0
        for _ in range(150):
            f = _helpers.random_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            e = Engine(f)
            if e.propagate() is not None:
                continue
            free = [v for v in range(1, f.num_vars + 1)
                    if e.lit_value(v) is None]
            if len(free) < 4:
                continue
            e.decide(free[0] if rng.random() < 0.5 else -free[0])
            if e.propagate() is not None:
                continue
            snap = (list(e.val), list(e.slack), list(e.gapv),
                    list(e.trail), e.qhead, list(e.trail_lim))
            for v in free[1:4]:
                if e.lit_value(v) is not None:
                    continue
                e.decide(v if rng.random() < 0.5 else -v)
                if e.propagate() is not None:
                    break
            e.backjump_to(1)
            assert (list(e.val), list(e.slack), list(e.gapv),
                    list(e.trail), e.qhead, list(e.trail_lim)) == snap
            e.check_integrity()
            restored += 1
        assert restored > 15

    def test_random_walk_keeps_invariants(self):
        rng = random.Random(5502)
        conflicts = 0
        for _ in range(120):
            f = _helpers.random_formula(rng, max_vars=10)
            if f.unsat_at_load:
                continue
            e = Engine(f)
            for _step in range(30):
                confl = e.propagate()
                if confl is not None:
                    conflicts += 1
                    e.check_integrity(expect_quiescent=False)
                    lvl = e.current_level()
                    if lvl == 0:
                        break
                    e.backjump_to(rng.randrange(lvl))
                    continue
                e.check_integrity()
                free = [v for v in range(1, f.num_vars + 1)
                        if e.lit_value(v) is None]
                if not free:
                    break
                if e.current_level() > 0 and rng.random() < 0.2:
                    e.backjump_to(rng.randrange(e.current_level()))
                    continue
                v = rng.choice(free)
                e.decide(v if rng.random() < 0.5 else -v)
        assert conflicts > 20

    def test_terms_largest_coefficient_first_ties_by_variable(self):
        # x6 saturates to the degree; the second line is a duplicate
        f = parse_opb("* #variable= 9\n"
                      "+1 x4 +3 x2 +1 x1 +2 x5 +1 x3 +9 x6 >= 4 ;\n"
                      "+1 x3 +1 x1 +2 x5 +1 x4 +3 x2 +9 x6 >= 4 ;\n"
                      "+1 ~x3 +1 x1 +1 ~x2 >= 3 ;\n")
        wide = ((4, 6), (3, 2), (2, 5), (1, 1), (1, 3), (1, 4))
        ties = ((1, 1), (1, -2), (1, -3))
        assert [c.terms for c in f.constraints] == [wide, wide, ties]
        d = dedup_constraints(f)
        assert [c.body() for c in d.constraints] == [(wide, 4), (ties, 3)]
        assert dedup_constraints(d) is d
        e = Engine(d)
        assert e.propagate() is None
        # equal coefficients are forced in variable-id order
        assert e.trail_view() == [(1, 0, 1), (-2, 0, 1), (-3, 0, 1)]
        ci = e.add_learned(((1, 9), (1, -8), (2, 7)), 4)
        assert e.constraints[ci].terms == ((2, 7), (1, -8), (1, 9))
        assert e.propagate() is None
        assert e.trail[3:] == [7, -8, 9]
        e.check_integrity()


class TestScope:
    def _loose_engine(self):
        f = build_formula(8, [([(1, 1), (1, 2), (1, 3)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        return e

    def _asserting_learned_clause(self):
        """A learned x1 + x2 >= 1, added under ~x1: its join scan asserts x2."""
        e = self._loose_engine()
        e.decide(-1)
        assert e.propagate() is None
        cid = e.add_learned(((1, 1), (1, 2)), 1)
        assert e.scan_from == cid
        return e, cid

    def test_learned_forcing_respects_scope(self):
        e, cid = self._asserting_learned_clause()
        # x2 is outside the scope, so a join scan that forces it trips the
        # assertion that stands in for the search's invariant
        e.set_scope([3])
        with pytest.raises(AssertionError, match="learned constraint 1 forces x2 outside"):
            e.propagate()
        # learned again, under a scope that holds x2, the join scan forces it
        e.set_scope([1, 2])
        e.backjump_to(0)
        e.decide(-1)
        assert e.propagate() is None
        assert e.add_learned(((1, 1), (1, 2)), 1) == cid
        assert e.propagate() is None
        assert e.lit_value(2) is True and e.reason[2] == cid
        e.check_integrity()

    def test_clear_scope_reenables_forcing(self):
        e, cid = self._asserting_learned_clause()
        e.set_scope([3])
        e.clear_scope()
        assert e.propagate() is None
        assert e.lit_value(2) is True
        assert e.reason[2] == cid
        e.check_integrity()

    def test_learned_constraint_is_scanned_under_the_next_scope(self):
        # the counter adds a learned constraint before it sets the scope of
        # the backjump target's frame, so its first scan waits for propagate
        e = self._loose_engine()
        e.set_scope([3])
        e.decide(-1)
        assert e.propagate() is None
        cid = e.add_learned(((1, 1), (1, 2)), 1)
        assert e.scan_from == cid
        e.set_scope([1, 2])
        assert e.propagate() is None
        assert e.lit_value(2) is True and e.reason[2] == cid
        assert e.scan_from == cid + 1
        e.check_integrity()
        # popped, its id goes to the next learned constraint, scanned in turn
        e.backjump_to(0)
        assert len(e.constraints) == e.scan_from == cid
        e.decide(-4)
        assert e.propagate() is None
        assert e.add_learned(((1, 4), (1, 5)), 1) == cid
        e.set_scope([5])
        assert e.propagate() is None
        assert e.lit_value(5) is True and e.reason[5] == cid
        e.check_integrity()

    def test_learned_conflicts_ignore_scope(self):
        e = self._loose_engine()
        e.set_scope([3])
        e.decide(-2)
        assert e.propagate() is None
        cid = e.add_learned(((1, 2),), 1)
        assert e.propagate() == cid

    def test_original_constraints_ignore_scope(self):
        f = build_formula(3, [([(1, 1), (1, 2)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        e.set_scope([3])
        e.decide(-1)
        assert e.propagate() is None
        assert e.lit_value(2) is True


def analyze_like_reference(engine, confl, analyze=Engine.analyze):
    """``analyze(engine, confl)``, checked against ``_helpers.reference_analyze``.

    The terms as a set, the degree, the jump and every variable activity
    must agree. Returns the engine's outcome and the number of resolution
    steps taken.
    """
    ref, touched, steps = _helpers.reference_analyze(engine, confl)
    act = _helpers.expected_activities(engine, touched)
    out = analyze(engine, confl)
    if ref is None:
        assert out is None
    else:
        assert (sorted(out[0]), out[1], out[2]) == (sorted(ref[0]), ref[1], ref[2])
    assert engine.activity == act
    return out, steps


class TestAnalyze:
    def test_resolution_worked_example(self):
        # x2 forces x3, which breaks ~x2 + ~x3 >= 1; resolving that conflict
        # with x3's reason cancels x3 and leaves the unit fact that x2
        # cannot hold
        f = build_formula(3, [
            ([(1, 1), (1, 2)], ">=", 1),
            ([(1, -2), (1, 3)], ">=", 1),
            ([(1, -2), (1, -3)], ">=", 1),
        ])
        e = Engine(f)
        assert e.propagate() is None
        e.decide(-1)
        confl = e.propagate()
        assert confl == 2
        assert e.trail_view() == [(-1, 1, -1), (2, 1, 0), (3, 1, 1)]
        (terms, degree, jump), steps = analyze_like_reference(e, confl)
        assert steps == 1
        assert terms == ((1, -2),)
        assert degree == 1
        assert jump == 0
        e.backjump_to(jump)
        e.add_learned(terms, degree)
        assert e.propagate() is None
        assert e.lit_value(2) is False
        assert e.lit_value(1) is True
        assert e.current_level() == 0

    def test_oversized_resolution_falls_back_to_decision_clause(self):
        a = (1 << 61) + 1
        f = build_formula(2, [
            ([(a, 1), (a, 2)], ">=", a),
            ([(a, 1), (a, -2)], ">=", a),
        ])
        e = Engine(f)
        assert e.propagate() is None
        e.decide(-1)
        # ~x1 forces x2 by the first constraint, and x2 breaks the second
        confl = e.propagate()
        assert confl == 1
        # cancellation would push a coefficient past the guard, so the
        # result is a clause over the decisions taken
        (terms, degree, jump), steps = analyze_like_reference(e, confl)
        assert steps == 1
        assert terms == ((1, 1),)
        assert degree == 1
        assert jump == 0
        assert implied_by(f, terms, degree)

    def test_conflict_over_decisions_alone_needs_no_resolution(self, monkeypatch):
        # three decisions taken before propagating: the conflict's false
        # literals are all decisions, so no literal has a reason to
        # resolve on; the deepest level alone does not reach the degree,
        # and the cut below the next one asserts
        f = build_formula(5, [([(2, 1), (1, 2), (1, 3), (1, 4), (1, 5)], ">=", 4)])
        e = Engine(f)
        assert e.propagate() is None
        for lit in (-1, -2, -3):
            e.decide(lit)
        confl = e.propagate()
        assert confl == 0

        def unreachable(*args):
            raise AssertionError("analysis went past the asserting cut")

        monkeypatch.setattr(e, "_resolve_step", unreachable)
        monkeypatch.setattr(e, "_fallback_clause", unreachable)
        (terms, degree, jump), steps = analyze_like_reference(e, confl)
        assert steps == 0
        assert sorted(terms) == [(1, 2), (1, 3), (2, 1)]
        assert degree == 2
        assert jump == 1
        assert implied_by(f, terms, degree)
        e.backjump_to(jump)
        e.add_learned(terms, degree)
        assert e.propagate() is None
        assert e.lit_value(2) is True and e.lit_value(3) is True

    def test_variable_activity_rescale(self):
        e = Engine(build_formula(8, [([(1, 1), (1, 2), (1, 3)], ">=", 1)]))
        e._bump_var(4)
        for _ in range(3):
            e._bump_var(3)
        # one more increment stays under the cap, the second one passes it
        e.var_inc = 0.6 * _ACTIVITY_CAP
        act = list(e.activity)
        act[8] = act[8] + e.var_inc + e.var_inc
        for _ in range(2):
            e._bump_var(8)
        scale = 1.0 / _ACTIVITY_CAP
        assert e.activity == [a * scale for a in act]
        assert e.var_inc == 0.6 * _ACTIVITY_CAP * scale
        order = sorted(range(len(act)), key=act.__getitem__)
        assert sorted(range(len(act)), key=e.activity.__getitem__) == order
        assert 0.0 < e.activity[4] < e.activity[3] < e.activity[8]

    def test_learned_constraints_are_implied_and_asserting(self):
        rng = random.Random(5503)
        conflicts = 0
        unsat_seen = 0
        for _ in range(350):
            f = _helpers.tight_formula(rng, max_vars=8)
            if f.unsat_at_load:
                continue
            e = Engine(f)
            done = False
            for _round in range(60):
                confl = e.propagate()
                if confl is None:
                    free = [v for v in range(1, f.num_vars + 1)
                            if e.lit_value(v) is None]
                    if not free:
                        done = True
                        break
                    v = rng.choice(free)
                    e.decide(v if rng.random() < 0.5 else -v)
                    continue
                conflicts += 1
                out = e.analyze(confl)
                if out is None:
                    assert brute_count(f).count == 0
                    unsat_seen += 1
                    done = True
                    break
                terms, degree, jump = out
                assert jump < e.current_level()
                assert implied_by(f, terms, degree)
                # falsified under the assignment that produced it
                assert all(e.lit_value(l) is False for _, l in terms)
                e.backjump_to(jump)
                # now non-conflicting and forcing at least one literal
                s = sum(a for a, l in terms if e.lit_value(l) is not False)
                s -= degree
                assert s >= 0
                assert any(a > s for a, l in terms if e.lit_value(l) is None)
                before = len(e.trail)
                e.add_learned(terms, degree)
                if e.propagate() is None:
                    assert len(e.trail) > before
                    e.check_integrity()
                else:
                    e.backjump_to(0)
            if not done:
                pytest.fail("conflict loop did not terminate")
        assert conflicts > 60
        assert unsat_seen > 0


class TestAnalyzeMatchesReference:
    @pytest.mark.parametrize("make, formulas", [(_helpers.tight_formula, 250),
                                                 (_helpers.clause_heavy_formula, 1000)])
    def test_random_walks(self, make, formulas):
        rng = random.Random(5531)
        conflicts = steps = 0
        for _ in range(formulas):
            f = make(rng)
            if f.unsat_at_load:
                continue
            e = Engine(f)
            for _round in range(60):
                confl = e.propagate()
                if confl is None:
                    free = [v for v in range(1, f.num_vars + 1) if e.lit_value(v) is None]
                    if not free:
                        # a model: take back some decisions and walk on
                        if not e.current_level():
                            break
                        e.backjump_to(rng.randrange(e.current_level()))
                        continue
                    v = rng.choice(free)
                    e.decide(v if rng.random() < 0.5 else -v)
                    continue
                conflicts += 1
                out, n_steps = analyze_like_reference(e, confl)
                steps += n_steps
                if out is None:
                    break
                e.backjump_to(out[2])
                e.add_learned(out[0], out[1])
        assert conflicts >= 200 and steps >= 100

    def test_bound_left_by_a_resolved_maximum_is_confirmed(self):
        # x1 decides level 1; x2 decides level 2 and forces x3 and x4; the
        # learned x5 + ~x1 >= 1 forces x5 at level 2, and the learned
        # 2 ~x5 + ~x2 + ~x3 + ~x4 >= 2, added while false, conflicts.
        # Resolving on x5 leaves level 2 with coefficients 1, 1, 1 against
        # degree 2, but its bound still reads the removed 2; taken as it
        # stands, the cut below level 2 would assert nothing
        f = build_formula(5, [([(1, 3), (1, -2)], ">=", 1), ([(1, 4), (1, -2)], ">=", 1)])
        e = Engine(f)
        for lit in (1, 2):
            assert e.propagate() is None
            e.decide(lit)
        assert e.propagate() is None
        e.add_learned(((1, 5), (1, -1)), 1)
        assert e.propagate() is None
        confl = e.add_learned(((2, -5), (1, -2), (1, -3), (1, -4)), 2)
        assert e.propagate() == confl
        assert e.trail == [1, 2, 3, 4, 5]
        (terms, degree, jump), steps = analyze_like_reference(e, confl)
        assert (sorted(terms), degree, jump, steps) == ([(1, -3), (2, -2), (2, -1)], 2, 1, 2)

    def test_every_conflict_of_two_auction_counts(self, monkeypatch):
        analyze = Engine.analyze
        seen = []

        def checked(engine, confl):
            out, n_steps = analyze_like_reference(engine, confl, analyze)
            seen.append(n_steps)
            return out

        monkeypatch.setattr(Engine, "analyze", checked)
        conflicts = 0
        for seed in (17, 18):
            f = parse_opb(gen_auction(bids=40, items=20, revenue_fraction=0.15, seed=seed))
            counter = ModelCounter(f, CounterConfig(search_only=True))
            counter.run()
            conflicts += counter.stats.conflicts
        assert len(seen) == conflicts >= 300
        assert sum(seen) > 2 * conflicts


class TestLearnedStore:
    def test_add_learned_initializes_counters(self):
        f = build_formula(4, [([(1, 1), (1, 2), (1, 3), (1, 4)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        e.decide(-1)
        assert e.propagate() is None
        cid = e.add_learned(((2, 1), (3, 2), (1, 3)), 3)
        # x1 false: slack 4 - 3; a learned constraint keeps no gap
        assert e.slack[cid] == 1
        assert len(e.gapv) == e.first_learned == cid
        assert e.constraints[cid].terms == ((3, 2), (2, 1), (1, 3))
        assert e.learned_level == [1] and e.scan_from == cid
        assert e.learned_total == 1 and e.learned_bytes == e._learned_cost(3)
        assert e.propagate() is None
        # 3 exceeded the slack, so x2 was forced; turning true left the slack
        assert e.lit_value(2) is True
        assert e.reason[2] == cid
        assert e.slack[cid] == 1 and e.scan_from == cid + 1
        e.check_integrity()

    def test_learned_slack_is_read_once_when_it_joins(self):
        f = build_formula(5, [([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        scanned = []
        scan = e._scan_forcing
        e._scan_forcing = lambda ci: scanned.append(ci) or scan(ci)
        cid = e.add_learned(((1, 3), (3, 1), (1, 4), (2, 2)), 3)
        assert e.propagate() is None
        # the join scan: slack 4 forces nothing
        assert e.trail == [] and e.slack[cid] == 4 and scanned == [cid]
        # literals turning true or false leave its slack, and scan it no more;
        # the original, satisfied by x1, is not scanned either
        e.decide(1)
        assert e.propagate() is None
        e.decide(-2)
        assert e.propagate() is None
        e.decide(-3)
        assert e.propagate() is None
        assert e.slack[cid] == 4 and scanned == [cid]
        assert e.trail == [1, -2, -3]
        e.check_integrity()

    def test_literal_false_after_the_join_scan_forces_nothing(self):
        # the original clause is over other variables, so only the learned
        # constraint could force x1
        f = build_formula(6, [([(1, 4), (1, 5), (1, 6)], ">=", 1)])
        e = Engine(f)
        assert e.propagate() is None
        cid = e.add_learned(((2, 1), (1, 2), (1, 3)), 2)
        assert e.propagate() is None
        assert e.trail == [] and e.slack[cid] == 2
        # ~x2 leaves slack 1 below x1's coefficient 2, but the constraint
        # had its one scan when it joined
        e.decide(-2)
        assert e.propagate() is None
        assert e.lit_value(1) is None and e.slack[cid] == 2
        e.check_integrity()
        # ~x1 leaves only x3 open against degree 2, and no conflict is reported
        e.decide(-1)
        assert e.propagate() is None
        assert e.trail == [-2, -1] and e.slack[cid] == 2
        e.check_integrity()

    def test_backjump_pops_constraints_learned_above_its_target(self):
        f = build_formula(7, [([(1, 1), (1, 2), (1, 3)], ">=", 1)])
        e = Engine(f)
        first = e.first_learned
        assert e.propagate() is None
        e.decide(-4)
        assert e.propagate() is None
        kept = e.add_learned(((1, 5), (1, 6)), 1)
        assert e.propagate() is None
        e.decide(-7)
        assert e.propagate() is None
        # at level 2: one forces x5, the other is not scanned yet
        forcing = e.add_learned(((1, 7), (1, 5)), 1)
        assert e.propagate() is None
        assert e.reason[5] == forcing
        unscanned = e.add_learned(((1, 6), (1, 7)), 1)
        assert e.learned_level == [1, 2, 2] and e.scan_from == unscanned
        e.check_integrity(expect_quiescent=False)
        e.backjump_to(1)
        # both leave every per-constraint list, and scan_from is clamped to
        # the first free id
        assert [c.body() for c in e.constraints[first:]] == [(((1, 5), (1, 6)), 1)]
        assert len(e.slack) == e.scan_from == first + 1
        assert e.learned_level == [1]
        assert e.learned_bytes == e._learned_cost(2)
        assert e.trail == [-4] and e.reason[5] == -1
        e.check_integrity()
        # ids are not renumbered: the next one takes the first popped id,
        # and is scanned when the next propagation starts
        assert e.add_learned(((1, 1), (1, 7)), 1) == forcing
        assert e.scan_from == forcing
        e.check_integrity(expect_quiescent=False)
        assert e.propagate() is None
        assert e.scan_from == forcing + 1
        e.check_integrity()
        # a backjump to the root pops both, and the clamp takes scan_from
        # back to the originals' end
        e.backjump_to(0)
        assert len(e.constraints) == e.scan_from == first and e.learned_level == []
        assert len(e.slack) == first and e.learned_bytes == 0
        e.check_integrity()

    def test_integrity_checker_detects_corruption(self):
        f = build_formula(3, [([(2, 1), (1, 2), (1, 3)], ">=", 2)])
        e = Engine(f)
        assert e.propagate() is None
        e.check_integrity()
        e.slack[0] += 1
        with pytest.raises(AssertionError, match="slack drift"):
            e.check_integrity()
        e.slack[0] -= 1
        e.gapv[0] -= 1
        with pytest.raises(AssertionError, match="gap drift"):
            e.check_integrity()
        e.gapv[0] += 1
        e.decide(-2)
        assert e.propagate() is None
        e.add_learned(((1, 2), (2, 3)), 2)
        assert e.propagate() is None
        e.check_integrity()
        for level, match in ((2, "lies above the current level"),
                             (-1, "learned levels fall")):
            e.learned_level[0] = level
            with pytest.raises(AssertionError, match=match):
                e.check_integrity()
            e.learned_level[0] = 1
            e.check_integrity()
        e.learned_bytes += 1
        with pytest.raises(AssertionError, match="learned_bytes drift"):
            e.check_integrity()
        e.learned_bytes -= 1

        # the trail's shape: two decisions, then x3 and x4 forced at level 2
        e = Engine(build_formula(4, [([(1, 1), (1, 2), (1, 3), (1, 4)], ">=", 2)]))
        for lit in (-1, -2):
            assert e.propagate() is None
            e.decide(lit)
        assert e.propagate() is None
        assert e.trail_view() == [(-1, 1, -1), (-2, 2, -1), (3, 2, 0), (4, 2, 0)]
        e.check_integrity()
        for array, index, bad, match in ((e.trail_lim, 1, 0, "strictly increasing"),
                                          (e.trail_lim, 1, 4, "strictly increasing"),
                                          (e.level, 3, 1, "level drift"),
                                          (e.reason, 2, 0, "a decision has one"),
                                          (e.reason, 4, -1, "a reason is missing")):
            good = array[index]
            array[index] = bad
            with pytest.raises(AssertionError, match=match):
                e.check_integrity()
            array[index] = good
            e.check_integrity()
