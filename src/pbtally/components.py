"""Variable-disjoint residual subproblems and the count cache.

Under a partial assignment, satisfied constraints drop away and the rest
of the formula often falls apart into groups that share no variables.
Each group can be counted on its own and the results multiplied. A group
is named by its variable and constraint ids alone. Its canonical byte
key, built from those ids and the engine's arrays, lets an identical
residual subproblem, reached anywhere else in the search tree, be
answered from the cache instead of being recounted.

A small component can also be counted directly, by enumerating its
assignments as the bits of one int, with numpy tables for the rows of
unequal coefficients, and one whose gaps are small by a dynamic program
over them.

Cache entries are logged in insertion order. Over its byte budget the
cache evicts the oldest entries first. The search can purge every entry
inserted after a recorded log position, which is how results computed
under assumptions that later turned out contradictory are kept out of
the store.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .engine import UNASSIGNED
from .formula import Assignment, PBFormula, constraint_gap, lit_var
from .mass import MassVectors


class Component:
    """One residual subproblem, named by its ids alone.

    ``var_ids`` are the unassigned variables, ascending. ``cstr_ids`` are
    the ids of the active (not yet satisfied) constraints over them,
    ascending. Every unassigned variable of every listed constraint
    appears in ``var_ids``. The remaining degrees are the engine's
    ``gapv`` entries, so the component does not copy them.
    """

    __slots__ = ("var_ids", "cstr_ids")

    def __init__(self, var_ids: Iterable[int], cstr_ids: Iterable[int]):
        self.var_ids = tuple(var_ids)
        self.cstr_ids = tuple(cstr_ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Component)
                and self.var_ids == other.var_ids
                and self.cstr_ids == other.cstr_ids)

    def __hash__(self):
        return hash((self.var_ids, self.cstr_ids))

    def __repr__(self) -> str:
        return "Component(vars=%r, cstrs=%r)" % (self.var_ids, self.cstr_ids)


def residual_components(formula: PBFormula, assignment: Assignment):
    """Split the residual formula into connected components.

    Two unassigned variables are connected when some active constraint
    contains both. Returns ``(components, free_vars)`` where ``free_vars``
    lists unassigned variables that occur in no active constraint.
    Components come out ordered by their smallest variable.
    """
    occ = {}
    for c in formula.constraints:
        if constraint_gap(c, assignment) <= 0:
            continue
        for _, lit in c.terms:
            v = lit_var(lit)
            if v not in assignment:
                occ.setdefault(v, []).append(c.cid)

    seen_vars = set()
    seen_cstrs = set()
    components = []
    free_vars = []
    for start in range(1, formula.num_vars + 1):
        if start in assignment or start in seen_vars:
            continue
        if start not in occ:
            free_vars.append(start)
            continue
        seen_vars.add(start)
        queue = [start]
        comp_vars = []
        comp_cstrs = []
        while queue:
            v = queue.pop()
            comp_vars.append(v)
            for cid in occ[v]:
                if cid in seen_cstrs:
                    continue
                seen_cstrs.add(cid)
                comp_cstrs.append(cid)
                for _, lit in formula.constraints[cid].terms:
                    w = lit_var(lit)
                    if w in assignment or w in seen_vars:
                        continue
                    seen_vars.add(w)
                    queue.append(w)
        comp_vars.sort()
        comp_cstrs.sort()
        components.append(Component(comp_vars, comp_cstrs))
    return components, free_vars


def saturate_gap(gap: int, min_open_coeff: int) -> int:
    """Canonical remaining degree for cache keys.

    When the remaining degree is positive but below every open
    coefficient, any single true literal closes it, so all such degrees
    describe the same set of solutions. They are collapsed onto the
    smallest open coefficient.
    """
    return min_open_coeff if gap < min_open_coeff else gap


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int):
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_component(comp: Component, constraints, gapv, val,
                     saturate: bool = True) -> bytes:
    """Canonical byte key of a component.

    ``gapv`` and ``val`` are the engine's arrays. Precondition: the trail
    is the one ``comp`` was split under. Then ``gapv`` holds the gaps the
    split saw, and a term of a listed constraint is in the component
    exactly when its variable is unassigned.

    Layout: variable count, first variable, then successive deltas; the
    same for constraint ids; then one remaining-degree value per
    non-clausal constraint in id order. Active clausal constraints always
    have a remaining degree of exactly 1, so theirs is omitted. With
    ``saturate`` the stored degree is first canonicalized through
    :func:`saturate_gap`, merging residual subproblems that differ only
    in degrees too low to matter.

    Values below 0x80 are one varint byte and are appended directly; only
    larger ones go through :func:`_write_uvarint`.
    """
    out = bytearray()
    append = out.append
    for ids in (comp.var_ids, comp.cstr_ids):
        n = len(ids)
        if n < 0x80:
            append(n)
        else:
            _write_uvarint(out, n)
        prev = 0
        for i in ids:
            d = i - prev
            if d < 0x80:
                append(d)
            else:
                _write_uvarint(out, d)
            prev = i
    for cid in comp.cstr_ids:
        c = constraints[cid]
        if c.clausal:
            continue
        gap = gapv[cid]
        if saturate:
            # saturate_gap(gap, smallest open coefficient): terms run
            # largest coefficient first, so walk them from the back
            for a, v in reversed(c.terms):
                if v < 0:
                    v = -v
                if val[v] == UNASSIGNED:
                    if gap < a:
                        gap = a
                    break
        gap -= 1
        if gap < 0x80:
            append(gap)
        else:
            _write_uvarint(out, gap)
    return bytes(out)


#: an open coefficient mass from here on could leave int64 in the sum
#: tables, so :func:`count_component` leaves a component with such a row
#: of unequal coefficients to the search; a row of equal coefficients is
#: counted on bitsets, where no sum is taken
LEAF_MASS_LIMIT = 1 << 60


@lru_cache(maxsize=None)
def _subset_bits(h: int) -> np.ndarray:
    """The read-only ``h x 2**h`` int64 table whose entry ``[j, s]`` is bit ``j`` of ``s``.

    An ``m x h`` coefficient array times this table is each row's sum over
    every subset of its columns: one call, where doubling the table column
    by column takes one per bit and six times as long.
    """
    bits = (np.arange(1 << h, dtype=np.int64) >> np.arange(h)[:, None]) & 1
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def _assignment_masks(k: int) -> tuple:
    """``(full, true, false)``: the sets of the ``2**k`` assignments of ``k``
    variables, each an int whose bit ``s`` is assignment ``s``.

    ``full`` holds every assignment, ``true[j]`` those that set bit ``j`` of
    ``s`` and ``false[j]`` the others. Bit ``j`` is set in runs of ``2**j``
    bits, every ``2**(j+1)``: one such period, times the int whose bits
    start each period, which is ``full`` divided by a period of ones.
    """
    full = (1 << (1 << k)) - 1
    true = tuple(full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
                 for j in range(k))
    return full, true, tuple(full ^ m for m in true)


def count_component(comp: Component, constraints, gapv, val,
                    vectors: Optional[MassVectors] = None):
    """Models of a component over its own variables, by enumeration.

    Same precondition as :func:`encode_component`: the trail is the one
    ``comp`` was split under, so ``gapv`` holds each listed constraint's
    gap and its open terms are those whose variable is unassigned in
    ``val``. Bit ``j`` of an assignment ``s`` sets ``var_ids[j]``.

    The assignments that satisfy every constraint so far are one int,
    ``ok``, whose bit ``s`` is assignment ``s`` (:func:`_assignment_masks`).
    A constraint whose open coefficients all equal ``a`` holds where at
    least ``t = ceil(gap / a)`` of its open literals are true: for ``t = 1``
    the OR of their masks, else a counter that raises ``reach[c]``, the
    assignments with ``c`` true literals so far, one literal at a time.
    That is the smallest case of a PB constraint's BDD (Abio et al., "BDDs
    for pseudo-Boolean constraints -- revisited", SAT 2011), evaluated on
    every assignment at once. With no other constraint and no K the count
    is the bits of ``ok``, and no numpy call is made.

    A constraint with unequal open coefficients takes two int64 half
    tables of sums, one over the low bits and one over the high bits, and
    one comparison of the two gives its bool mask over all assignments. A
    negative literal adds its coefficient when its bit is 0, so it enters
    the sums as minus its coefficient with the coefficient taken off the
    gap. The masks are ANDed, one constraint at a time, into ``ok``
    unpacked to one bool per assignment: comparing all constraints at once
    is faster, but numpy then buffers 16 bytes per cell, which raised the
    peak heap of a benchmark count by 6%. Returns None, leaving the
    component to the search, when such a constraint's open coefficient
    mass reaches :data:`LEAF_MASS_LIMIT`.

    With ``vectors`` the result is the component's vector (see
    :mod:`pbtally.mass`): the satisfying assignments counted by their K
    weight, capped at K's degree. K's coefficients are one more row of
    the half tables, each half's weight capped before the two are added.
    """
    var_ids = comp.var_ids
    k = len(var_ids)
    ok, true, false = _assignment_masks(k)
    bit = {v: j for j, v in enumerate(var_ids)}
    # one row per constraint of unequal open coefficients: its signed open
    # coefficients, then its gap
    width = k + 1
    rows = []
    for cid in comp.cstr_ids:
        gap = gapv[cid]
        terms = [(a, lit) for a, lit in constraints[cid].terms
                 if val[lit if lit > 0 else -lit] == UNASSIGNED]
        # terms run largest coefficient first
        a = terms[0][0]
        if terms[-1][0] != a:
            row = [0] * width
            mass = 0
            for a, lit in terms:
                mass += a
                if lit > 0:
                    row[bit[lit]] = a
                else:
                    row[bit[-lit]] = -a
                    gap -= a
            if mass >= LEAF_MASS_LIMIT:
                return None
            row[k] = gap
            rows += row
            continue
        t = -(-gap // a)
        if t > len(terms):
            # not every open literal together reaches the gap
            return 0
        if t == 1:
            holds = 0
            for _, lit in terms:
                holds |= true[bit[lit]] if lit > 0 else false[bit[-lit]]
        else:
            reach = [ok] + [0] * t
            for _, lit in terms:
                lit_true = true[bit[lit]] if lit > 0 else false[bit[-lit]]
                for c in range(t, 0, -1):
                    reach[c] |= reach[c - 1] & lit_true
            holds = reach[t]
        ok &= holds
    m = len(rows) // width
    if not m and vectors is None:
        return ok.bit_count()
    n_low = (k + 1) >> 1
    if vectors is not None:
        # K's row last. A negated K literal weighs its coefficient when its
        # bit is 0, so it enters as minus its coefficient over a base that
        # holds it, one base per half; the high one goes in the gap column
        bases = [0, 0]
        for j, v in enumerate(var_ids):
            a = vectors.signed[v]
            rows.append(a)
            if a < 0:
                bases[j >= n_low] -= a
        rows.append(-bases[1])
    table = np.array(rows, dtype=np.int64).reshape(-1, width)
    low = table[:, :n_low] @ _subset_bits(n_low)
    # a constraint holds where its low sum reaches its gap minus its high sum
    need = table[:, k:] - table[:, n_low:k] @ _subset_bits(k - n_low)
    # assignment s = high * 2**n_low + low, so ok's bits in order, one row per high half
    ok = np.unpackbits(np.frombuffer(ok.to_bytes(((1 << k) + 7) >> 3, "little"), np.uint8),
                       count=1 << k, bitorder="little").view(bool).reshape(-1, 1 << n_low)
    if m:
        holds = np.empty_like(ok)
        for i in range(m):
            np.greater_equal(low[i], need[i][:, None], out=holds)
            ok &= holds
    if vectors is None:
        return int(np.count_nonzero(ok))
    # the K weight of each half, capped at d; the capped halves sum to at
    # most 2 * d, which the small type holds
    d = vectors.degree
    small = np.min_scalar_type(2 * d)
    weight = (np.minimum(low[m] + bases[0], d).astype(small)
              + np.minimum(-need[m], d).astype(small)[:, None])
    np.minimum(weight, d, out=weight)
    return vectors.pack(np.bincount(weight[ok], minlength=d + 1))


#: the largest table :func:`count_by_gaps` builds, in cells: the product of
#: each constraint's gap plus one. Knapsack 40x3 seed 1 needs 1.7 million
#: cells at the root. With a bound of 2**20 it took 764 decisions and 368
#: tables just under the bound, 35 s against 0.3 s (2-vCPU VM)
GAP_TABLE_CELLS = 1 << 22

#: the most variables :func:`count_by_gaps` takes: each table entry counts
#: assignments of its variables, so it stays at or below 2**62 in int64
INT64_VARS = 62


def _raise_mass(src, raises, gaps, dst, spare):
    """``src`` with each ``(axis, coeff)`` of ``raises`` added to the mass on
    its axis, capped at that axis's gap.

    Each raise writes a whole table: the first into ``dst``, the next into
    ``spare``, and so on alternately. ``spare`` may be ``src``, which is
    not read again after the first raise. Returns the table holding the
    result, ``src`` itself when ``raises`` is empty.
    """
    for axis, coeff in raises:
        head = (slice(None),) * axis
        g = gaps[axis]
        # masses from g - coeff up all reach the cap, written through a
        # slice one cell wide: an array view even when the table has one axis
        src[head + (slice(g - coeff, None),)].sum(axis=axis, out=dst[head + (slice(g, None),)],
                                                   keepdims=True)
        dst[head + (slice(coeff, g),)] = src[head + (slice(g - coeff),)]
        dst[head + (slice(coeff),)] = 0
        src, dst, spare = dst, spare, dst
    return src


def count_by_gaps(comp: Component, constraints, gapv, val, max_bytes: Optional[int] = None,
                  poll: Optional[Callable[[], None]] = None):
    """Models of a component over its own variables, by dynamic programming.

    Same precondition as :func:`count_component`. The table has one axis
    per constraint, indexed by the mass its true open literals carry so
    far, capped at its gap, and each entry counts the assignments of the
    variables taken so far that reach that state. Each variable adds its
    coefficient on the axes where its true phase is the literal, and on
    the others in its false phase. The count is the corner entry, where
    every mass has reached its gap. A table over m constraints holds the
    product of their gaps plus one, about the number of distinct residual
    states at any depth when every constraint holds every variable. This
    is the layered construction of Abio et al., "BDDs for pseudo-Boolean
    constraints -- revisited" (SAT 2011).

    Returns None, leaving the component to the search, past
    :data:`INT64_VARS` variables, where a count could leave
    int64, past :data:`GAP_TABLE_CELLS` cells, or when the three int64
    tables would take more than ``max_bytes``. ``poll`` is called before
    each variable is taken, and may raise to stop the count.
    """
    var_ids = comp.var_ids
    if len(var_ids) > INT64_VARS:
        return None
    gaps = [gapv[cid] for cid in comp.cstr_ids]
    cells = 1
    for g in gaps:
        cells *= g + 1
    if cells > GAP_TABLE_CELLS or (max_bytes is not None and 24 * cells > max_bytes):
        return None
    # per variable, the (axis, coefficient) pairs of its true and false phase
    ups = {v: [] for v in var_ids}
    downs = {v: [] for v in var_ids}
    for axis, cid in enumerate(comp.cstr_ids):
        g = gaps[axis]
        for a, lit in constraints[cid].terms:
            if lit > 0:
                if val[lit] == UNASSIGNED:
                    ups[lit].append((axis, min(a, g)))
            elif val[-lit] == UNASSIGNED:
                downs[-lit].append((axis, min(a, g)))
    shape = tuple(g + 1 for g in gaps)
    tables = [np.zeros(shape, dtype=np.int64), np.empty(shape, dtype=np.int64),
              np.empty(shape, dtype=np.int64)]
    tables[0][(0,) * len(gaps)] = 1
    for v in var_ids:
        if poll is not None:
            poll()
        cur, one, two = tables
        true = _raise_mass(cur, ups[v], gaps, one, two)
        if true is cur:
            false = _raise_mass(cur, downs[v], gaps, one, two)
        else:
            false = _raise_mass(cur, downs[v], gaps, two if true is one else one, cur)
        np.add(true, false, out=true)
        tables = [true] + [t for t in tables if t is not true]
    return int(tables[0][tuple(gaps)])


def decode_component(data: bytes, constraints):
    """Inverse of :func:`encode_component`: ``(component, gaps)``.

    ``gaps[i]`` is the degree of ``cstr_ids[i]`` stored in the key, which
    for a saturating encoder is the canonicalized degree rather than the
    raw one; clausal constraints decode to a gap of 1.
    """
    pos = 0
    runs = []
    for _ in range(2):
        n, pos = _read_uvarint(data, pos)
        ids = []
        prev = 0
        for _ in range(n):
            delta, pos = _read_uvarint(data, pos)
            prev += delta
            ids.append(prev)
        runs.append(ids)
    var_ids, cstr_ids = runs
    gaps = []
    for cid in cstr_ids:
        if constraints[cid].clausal:
            gaps.append(1)
        else:
            stored, pos = _read_uvarint(data, pos)
            gaps.append(stored + 1)
    if pos != len(data):
        raise ValueError("trailing bytes in component key")
    return Component(var_ids, cstr_ids), tuple(gaps)


def count_bytes(count: int) -> int:
    """The bytes of a count or of a vector (see :mod:`pbtally.mass`), both ints."""
    return max(1, (count.bit_length() + 7) // 8)


class CountCache:
    """Byte-key to model-count store, evicted oldest first.

    Every stored entry gets the next absolute log position. The live keys
    sit in a deque, oldest first: its head is at position ``evictions``,
    so :meth:`log_position` is ``evictions + len(deque)``. When the byte
    budget overflows, the oldest entries are evicted. ``purge_from(pos)``
    drops every live entry at position ``pos`` or later, which the search
    uses to retract results computed under assumptions a conflict later
    refuted. Keys are stored whole, so two different subproblems never
    share an entry.
    """

    __slots__ = ("max_bytes", "bytes_used", "bytes_peak",
                 "hits", "misses", "stores", "evictions", "purged",
                 "debug_corrupt_after", "_store", "_log")

    ENTRY_OVERHEAD = 64

    def __init__(self, max_bytes: int = 256 << 20):
        self.max_bytes = max_bytes
        self.bytes_used = 0
        self.bytes_peak = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.purged = 0
        #: test hook: the Nth successful store writes a wrong count
        self.debug_corrupt_after: Optional[int] = None
        self._store = {}
        self._log = deque()

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def _entry_bytes(key: bytes, count: int) -> int:
        return len(key) + count_bytes(count) + CountCache.ENTRY_OVERHEAD

    def log_position(self) -> int:
        """Position the next store gets; feed to :meth:`purge_from`."""
        return self.evictions + len(self._log)

    def lookup(self, key: bytes):
        count = self._store.get(key)
        if count is None:
            self.misses += 1
            return None
        self.hits += 1
        return count

    def store(self, key: bytes, count: int):
        """Store ``count``, a count or a vector (see :mod:`pbtally.mass`), under
        ``key``, which is not held.

        The search never stores a held key. A component counted without
        search is stored right after its lookup missed. A frame stores its
        key after its subtree, where every key names a strict subset of
        its variables, and a conflict that cuts the frame off drops it
        without a store. Returns the count stored, which the search
        multiplies in, so a corrupted store shows in the result even when
        its entry is never looked up again.
        """
        store = self._store
        if self.debug_corrupt_after is not None and self.stores == self.debug_corrupt_after:
            count += 1
        store[key] = count
        log = self._log
        log.append(key)
        self.stores += 1
        self.bytes_used += self._entry_bytes(key, count)
        if self.bytes_used > self.bytes_peak:
            self.bytes_peak = self.bytes_used
        while self.bytes_used > self.max_bytes and log:
            k = log.popleft()
            self.bytes_used -= self._entry_bytes(k, store.pop(k))
            self.evictions += 1
        return count

    def purge_from(self, pos: int) -> int:
        """Remove every live entry stored at log position ``pos`` or later."""
        log = self._log
        removed = min(len(log), self.log_position() - pos)
        if removed <= 0:
            return 0
        store = self._store
        for _ in range(removed):
            k = log.pop()
            self.bytes_used -= self._entry_bytes(k, store.pop(k))
        self.purged += removed
        return removed
