"""Shared builders for the test suite: seeded random formulas, the
engine's gap and value arrays under an assignment, the mini-formula view
of one residual component, the reference key encoder, the reference
conflict analyzer, and a strict parser for the command line's JSON
reports."""

import json
import random

from pbtally import CounterConfig, ModelCounter, PBFormula, build_formula
from pbtally.engine import _ACTIVITY_CAP, COEFF_GUARD, UNASSIGNED
from pbtally.formula import constraint_gap, lit_var


def random_formula(rng: random.Random, max_vars: int = 10, density: float = 1.0,
                   max_coeff: int = 6, max_cstrs=None):
    """A small random formula mixing operators, signs, and coefficients."""
    n = rng.randint(1, max_vars)
    m = rng.randint(0, int((n + 3) * density))
    if max_cstrs is not None:
        m = min(m, max_cstrs)
    cons = []
    for _ in range(m):
        k = rng.randint(1, min(n, 5))
        vs = rng.sample(range(1, n + 1), k)
        terms = [(rng.randint(-max_coeff, max_coeff) or 1,
                  v if rng.random() < 0.5 else -v)
                 for v in vs]
        op = rng.choice([">=", "<=", "="])
        # degrees drawn from the reachable sum interval, so most
        # constraints are satisfiable; a thin tail stays infeasible
        lo = sum(min(c, 0) for c, _ in terms)
        hi = sum(max(c, 0) for c, _ in terms)
        if op == "=":
            deg = sum(c for c, _ in terms if rng.random() < 0.5)
            if rng.random() < 0.1:
                deg += rng.choice([-1, 1])
        elif rng.random() < 0.97:
            deg = rng.randint(lo - 1, hi) if op == ">=" else rng.randint(lo, hi + 1)
        elif op == ">=":
            deg = hi + rng.randint(1, 4)
        else:
            deg = lo - rng.randint(1, 4)
        cons.append((terms, op, deg))
    return build_formula(n, cons)


def tight_formula(rng: random.Random, max_vars: int = 12):
    """Overlapping mid-window constraints: mostly satisfiable, but the
    search has to work for it, so conflicts happen at real depth."""
    n = rng.randint(4, max_vars)
    m = rng.randint(2, max(2, int(n * 1.4)))
    cons = []
    for _ in range(m):
        k = rng.randint(2, min(n, 6))
        vs = rng.sample(range(1, n + 1), k)
        terms = [(rng.randint(1, 7), v if rng.random() < 0.5 else -v) for v in vs]
        total = sum(c for c, _ in terms)
        deg = rng.randint(total // 4, max(1, int(total * 0.55)))
        cons.append((terms, ">=", deg))
    return build_formula(n, cons)


def covered_formula(rng: random.Random, max_vars: int = 12):
    """A random formula plus one constraint over all of its variables.

    The extra constraint covers the root component, and its degree is low
    enough that the search satisfies it partway down, so the splits below
    it skip the component search at first and search again later.
    """
    base = random_formula(rng, max_vars=max_vars)
    n = base.num_vars
    wide = tuple((rng.randint(1, 4), v if rng.random() < 0.5 else -v)
                 for v in range(1, n + 1))
    degree = rng.randint(1, max(1, sum(a for a, _ in wide) // 2))
    return PBFormula(n, [c.body() for c in base.constraints] + [(wide, degree)],
                     base.unsat_at_load)


def clause_heavy_formula(rng: random.Random, max_vars: int = 9):
    """Mostly clauses plus one small knapsack; splits often, keys repeat."""
    n = rng.randint(4, max_vars)
    cons = []
    for _ in range(rng.randint(1, n)):
        k = rng.randint(1, min(n, 3))
        vs = rng.sample(range(1, n + 1), k)
        terms = [(1, v if rng.random() < 0.5 else -v) for v in vs]
        cons.append((terms, ">=", 1))
    k = rng.randint(2, min(n, 4))
    vs = rng.sample(range(1, n + 1), k)
    terms = [(rng.randint(1, 4), v) for v in vs]
    cons.append((terms, "<=", rng.randint(2, 8)))
    return build_formula(n, cons)


def disjoint_union(formulas) -> PBFormula:
    """One formula holding each given formula on its own block of variables."""
    offset = 0
    cons = []
    for f in formulas:
        for c in f.constraints:
            terms = [(a, lit + offset if lit > 0 else lit - offset)
                     for a, lit in c.terms]
            cons.append((terms, ">=", c.degree))
        offset += f.num_vars
    return build_formula(offset, cons)


def engine_arrays(formula: PBFormula, assignment):
    """``(gapv, val)`` as the engine holds them under ``assignment``.

    ``gapv[cid]`` is the :func:`constraint_gap` of each constraint, and
    ``val[v]`` is 1, 0 or ``UNASSIGNED``; this is what
    ``encode_component`` reads.
    """
    gapv = [constraint_gap(c, assignment) for c in formula.constraints]
    val = [UNASSIGNED] * (formula.num_vars + 1)
    for v, truth in assignment.items():
        val[v] = 1 if truth else 0
    return gapv, val


def component_subformula(formula: PBFormula, comp, gaps) -> PBFormula:
    """The residual component as a standalone formula.

    Variables are renumbered 1..k in ascending order of the component's
    ids and each constraint keeps only its in-component literals, with
    ``gaps[i]`` as the degree of ``comp.cstr_ids[i]``.
    """
    var_map = {v: i + 1 for i, v in enumerate(comp.var_ids)}
    bodies = []
    for cid, gap in zip(comp.cstr_ids, gaps):
        c = formula.constraints[cid]
        terms = []
        for coeff, lit in c.terms:
            v = lit_var(lit)
            if v in var_map:
                terms.append((coeff, var_map[v] if lit > 0 else -var_map[v]))
        bodies.append((tuple(terms), gap))
    return PBFormula(len(comp.var_ids), bodies)


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def reference_encode_component(comp, constraints, gaps, saturate: bool = True) -> bytes:
    """The plain form of ``encode_component``, kept to check its bytes.

    ``gaps[i]`` is the remaining degree of ``comp.cstr_ids[i]``. Every
    field goes through one varint call, clausality is recomputed from the
    terms, and the saturation floor is the ``min`` over the coefficients
    of the component's variables, found from ``comp.var_ids`` rather than
    from the engine's values.
    """
    out = bytearray()
    _write_uvarint(out, len(comp.var_ids))
    prev = 0
    for v in comp.var_ids:
        _write_uvarint(out, v - prev)
        prev = v
    _write_uvarint(out, len(comp.cstr_ids))
    prev = 0
    for cid in comp.cstr_ids:
        _write_uvarint(out, cid - prev)
        prev = cid
    in_comp = set(comp.var_ids)
    for cid, gap in zip(comp.cstr_ids, gaps):
        c = constraints[cid]
        if c.degree == 1 and all(a == 1 for a, _ in c.terms):
            continue
        if saturate:
            min_open = min(a for a, l in c.terms if lit_var(l) in in_comp)
            gap = min_open if gap < min_open else gap
        _write_uvarint(out, gap - 1)
    return bytes(out)


def reference_analyze(engine, confl_ci: int):
    """The plain form of ``Engine.analyze``, kept to check its output.

    Returns ``(outcome, touched, bumped)``: ``outcome`` is what
    ``engine.analyze(confl_ci)`` returns, ``touched`` the set of variables
    whose activity it bumps, and ``bumped`` the constraint ids it bumps, in
    order and with repeats. Reads the engine and changes nothing in it.

    Every step rebuilds the per-level sums and maxima in a dict, re-saturates
    every coefficient, sorts the levels, and finds the literal to resolve
    on as the propagated one latest on the trail.
    """
    level, pos, reason = engine.level, engine.pos, engine.reason

    def is_false(lit):
        return engine.lit_value(lit) is False

    bumped = [confl_ci]
    touched = set()
    c = engine.constraints[confl_ci]
    coeffs = {}
    degree = c.degree
    for coeff, lit in c.terms:
        if is_false(lit):
            coeffs[lit] = coeff
        else:
            degree -= coeff
    assert degree >= 1, "constraint was not actually conflicting"

    while True:
        for lit, a in coeffs.items():
            if a > degree:
                coeffs[lit] = degree
        by_level = {}
        for lit, a in coeffs.items():
            d = level[lit_var(lit)]
            s, m = by_level.get(d, (0, 0))
            by_level[d] = (s + a, max(a, m))
        if sum(s for d, (s, _) in by_level.items() if d >= 1) < degree:
            touched.update(lit_var(lit) for lit in coeffs)
            return None, touched, bumped
        running_sum = running_max = 0
        for d in sorted((d for d in by_level if d >= 1), reverse=True):
            s, m = by_level[d]
            running_sum += s
            running_max = max(running_max, m)
            slack_after = running_sum - degree
            if slack_after >= 0 and running_max > slack_after:
                touched.update(lit_var(lit) for lit in coeffs)
                terms = tuple((a, lit) for lit, a in coeffs.items())
                return (terms, degree, d - 1), touched, bumped

        # resolve on the latest propagated literal
        propagated = [lit for lit in coeffs if reason[lit_var(lit)] >= 0]
        assert propagated, "no falsified literal was propagated"
        p_lit = max(propagated, key=lambda lit: pos[lit_var(lit)])
        p_pos = pos[lit_var(p_lit)]
        r_ci = reason[lit_var(p_lit)]
        bumped.append(r_ci)
        touched.add(lit_var(p_lit))
        r = engine.constraints[r_ci]
        rdeg = r.degree
        rcoeffs = {}
        a_forced = None
        for coeff, lit in r.terms:
            if lit == -p_lit:
                a_forced = coeff
            elif is_false(lit) and pos[lit_var(lit)] < p_pos:
                rcoeffs[lit] = coeff
            else:
                rdeg -= coeff
        assert a_forced is not None and rdeg >= 1
        rdeg = -(-rdeg // a_forced)
        mult = coeffs.pop(p_lit)
        degree = degree + mult * rdeg - mult
        overflow = degree > COEFF_GUARD
        for lit, a in rcoeffs.items():
            coeffs[lit] = coeffs.get(lit, 0) + mult * -(-a // a_forced)
            overflow = overflow or coeffs[lit] > COEFF_GUARD
        if overflow:
            # a clause over the decisions, forcing the last one flipped
            terms = []
            for start in engine.trail_lim:
                dec = engine.trail[start]
                touched.add(lit_var(dec))
                terms.append((1, -dec))
            return (tuple(terms), 1, len(engine.trail_lim) - 1), touched, bumped


def expected_activities(engine, touched, bumped):
    """``(activity, c_activity)`` after an analysis that bumps ``touched``
    and ``bumped``, computed from the engine before it runs.

    Follows the engine's bump arithmetic, rescaling included.
    """
    scale = 1.0 / _ACTIVITY_CAP
    act = list(engine.activity)
    c_act = list(engine.c_activity)
    cla_inc = engine.cla_inc
    for ci in bumped:
        if ci < engine.first_learned:
            continue
        c_act[ci] += cla_inc
        if c_act[ci] > _ACTIVITY_CAP:
            c_act[engine.first_learned:] = [a * scale for a in c_act[engine.first_learned:]]
            cla_inc *= scale
    var_inc = engine.var_inc
    for v in touched:
        act[v] += var_inc
        if act[v] > _ACTIVITY_CAP:
            act[1:] = [a * scale for a in act[1:]]
            var_inc *= scale
    return act, c_act


def random_partial_assignment(rng: random.Random, num_vars: int, rate: float = 0.4):
    return {v: rng.random() < 0.5 for v in range(1, num_vars + 1)
            if rng.random() < rate}


def count_with_events(formula: PBFormula):
    """Count through ``on_event`` and return ``(counter, result, decisions, learned)``.

    Enumeration is off, so every component is searched.

    ``decisions`` are the ``(level, lit)`` payloads in order. ``learned``
    entries are ``(terms, degree, jump, asserting)``. ``asserting`` is read
    from the engine as the event arrives, after the backjump and before the
    constraint is added. It holds when the constraint is not falsified and
    some unassigned literal's coefficient exceeds its slack, so propagation
    must force that literal.
    """
    decisions = []
    learned = []

    def on_event(kind, payload):
        if kind == "decision":
            decisions.append(payload)
            return
        terms, degree, jump = payload
        lit_value = counter.engine.lit_value
        slack = sum(a for a, lit in terms if lit_value(lit) is not False) - degree
        forcing = any(lit_value(lit) is None and a > slack for a, lit in terms)
        learned.append((terms, degree, jump, slack >= 0 and forcing))

    counter = ModelCounter(formula, CounterConfig(leaf_cells=0, on_event=on_event))
    result = counter.run()
    return counter, result, decisions, learned


def _reject_constant(name: str):
    raise ValueError("report is not strict JSON: %s" % name)


def load_report(text: str, parse_int=None):
    """Parse a JSON report strictly: ``NaN`` and ``Infinity`` are errors.

    ``parse_int`` is passed on to :func:`json.loads`.
    """
    return json.loads(text, parse_constant=_reject_constant, parse_int=parse_int)
