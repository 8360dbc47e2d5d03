"""Variable-disjoint residual subproblems and the count cache.

Under a partial assignment, satisfied constraints drop away and the rest
of the formula often falls apart into groups that share no variables.
Each group can be counted on its own and the results multiplied. A group
is named by its variable and constraint ids alone. Its canonical byte
key, built from those ids and the engine's arrays, lets an identical
residual subproblem, reached anywhere else in the search tree, be
answered from the cache instead of being recounted.

A small component can also be counted directly, by enumerating its
assignments in numpy tables.

Cache entries are logged in insertion order. Over its byte budget the
cache evicts the oldest entries first. The search can purge every entry
inserted after a recorded log position, which is how results computed
under assumptions that later turned out contradictory are kept out of
the store.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .engine import UNASSIGNED
from .formula import Assignment, PBFormula, constraint_gap, lit_var


class Component:
    """One residual subproblem, named by its ids alone.

    ``var_ids`` are the unassigned variables, ascending. ``cstr_ids`` are
    the ids of the active (not yet satisfied) constraints over them,
    ascending. Every unassigned variable of every listed constraint
    appears in ``var_ids``. The remaining degrees are the engine's
    ``gapv`` entries, so the component does not copy them.

    ``cover`` is the id of one listed constraint whose unassigned
    variables are exactly ``var_ids``, or -1 when none is known. The
    counter looks one up only for a component it branches on. While that
    constraint stays active it alone keeps whatever is left of the
    component connected, so the splits below skip their search. It is a
    hint, not part of the subproblem: equality, hashing and the cache key
    ignore it.
    """

    __slots__ = ("var_ids", "cstr_ids", "cover")

    def __init__(self, var_ids: Iterable[int], cstr_ids: Iterable[int], *, cover: int = -1):
        self.var_ids = tuple(var_ids)
        self.cstr_ids = tuple(cstr_ids)
        self.cover = cover

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
#: tables, so :func:`count_component` leaves the component to the search
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


def count_component(comp: Component, constraints, gapv, val) -> Optional[int]:
    """Models of a component over its own variables, by enumeration.

    Same precondition as :func:`encode_component`: the trail is the one
    ``comp`` was split under, so ``gapv`` holds each listed constraint's
    gap and its open terms are those whose variable is unassigned in
    ``val``. Bit ``j`` of an assignment sets ``var_ids[j]``. A negative
    literal adds its coefficient when its bit is 0, so it enters the sums
    as minus its coefficient with the coefficient taken off the gap.

    Each constraint's sums come from two int64 half tables, one over the
    low bits and one over the high bits, and one comparison of the two
    gives its bool mask over all assignments. The masks are ANDed one
    constraint at a time into a single mask: comparing all constraints at
    once is faster, but numpy then buffers 16 bytes per cell, which
    raised the peak heap of a benchmark count by 6%. Returns None,
    leaving the component to the search, when some constraint's open
    coefficient mass reaches :data:`LEAF_MASS_LIMIT`.
    """
    var_ids = comp.var_ids
    k = len(var_ids)
    bit = {v: j for j, v in enumerate(var_ids)}
    # one row per constraint: its signed open coefficients, then its gap
    width = k + 1
    rows = [0] * (len(comp.cstr_ids) * width)
    row = 0
    for cid in comp.cstr_ids:
        gap = gapv[cid]
        mass = 0
        for a, lit in constraints[cid].terms:
            v = lit if lit > 0 else -lit
            if val[v] != UNASSIGNED:
                continue
            mass += a
            if lit > 0:
                rows[row + bit[v]] = a
            else:
                rows[row + bit[v]] = -a
                gap -= a
        if mass >= LEAF_MASS_LIMIT:
            return None
        rows[row + k] = gap
        row += width
    table = np.array(rows, dtype=np.int64).reshape(-1, width)
    n_low = (k + 1) >> 1
    low = table[:, :n_low] @ _subset_bits(n_low)
    # a constraint holds where its low sum reaches its gap minus its high sum
    need = table[:, k:] - table[:, n_low:k] @ _subset_bits(k - n_low)
    ok = low[0] >= need[0][:, None]
    if len(low) > 1:
        holds = np.empty_like(ok)
        for i in range(1, len(low)):
            np.greater_equal(low[i], need[i][:, None], out=holds)
            ok &= holds
    return int(np.count_nonzero(ok))


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
        return len(key) + max(1, (count.bit_length() + 7) // 8) + CountCache.ENTRY_OVERHEAD

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

    def store(self, key: bytes, count: int) -> int:
        """Store ``count`` under ``key`` unless the key is held already.

        Returns the count stored or already held, which the search
        multiplies in, so a corrupted store shows in the result even when
        its entry is never looked up again.
        """
        store = self._store
        held = store.get(key)
        if held is not None:
            # the earlier entry for the same subproblem stays authoritative
            return held
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
