"""Struct-of-arrays connection records with integer handles.

:class:`ConnectionTable` is the array-backed twin of the per-object
:class:`~repro.channels.records.DRConnection` dictionary: every scalar a
record carries (level, ``B_min``, increment, lifecycle state, …) becomes
one preallocated NumPy column indexed by an integer **handle**.  Handles
are recycled through a free list, so a steady-state churn campaign
touches a bounded region of memory no matter how many connections pass
through.

Routes are stored as **dense link indices** (positions in the owning
:class:`~repro.network.link_table.LinkTable`), not ``LinkId`` tuples.
The primary route, which every event's hot loop (reclaim, water-fill,
failure squeeze) walks link by link, is a plain list per handle,
``path``.  Backup and node routes have cold readers and live in
CSR-style flat arenas (one shared ``int64`` arena per kind plus
per-handle ``start``/``len`` columns); an arena is append-only and
compacted wholesale once the garbage left behind by freed handles
outweighs the live payload.  The ``LinkId`` lists a connection record
carries are derived on demand.

The aggregate queries the manager answers per measurement sample —
``average_live_bandwidth`` and ``level_histogram`` — are masked array
reductions over these columns instead of per-record attribute walks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channels.records import ConnectionState
from repro.network.link_table import list_nbytes
from repro.qos.spec import ConnectionQoS
from repro.units import EPSILON

__all__ = ["ConnectionTable", "STATE_CODE", "CODE_STATE"]

#: Lifecycle states as int8 codes (column ``state``).
STATE_CODE = {
    ConnectionState.ACTIVE: 0,
    ConnectionState.FAILED_OVER: 1,
    ConnectionState.DROPPED: 2,
    ConnectionState.TERMINATED: 3,
}
CODE_STATE = {code: state for state, code in STATE_CODE.items()}

_F8 = np.float64
_I8 = np.int64

#: Names of the per-handle NumPy columns (grown and sized together).
_COLUMNS = (
    "level", "b_min", "increment", "state", "elastic", "established_at",
    "backup_overlap", "source", "destination", "conn_extra",
    "bk_start", "bk_len", "pnode_start", "pnode_len", "bnode_start", "bnode_len",
)


class _Arena:
    """One append-only CSR arena of int64 payload with bulk compaction."""

    __slots__ = ("data", "used", "garbage")

    def __init__(self, capacity: int) -> None:
        self.data = np.zeros(capacity, dtype=_I8)
        self.used = 0
        self.garbage = 0

    def append(self, values: Sequence[int]) -> int:
        """Append ``values``; returns their start offset."""
        n = len(values)
        if self.used + n > len(self.data):
            new_cap = max(len(self.data) * 2, self.used + n)
            grown = np.zeros(new_cap, dtype=_I8)
            grown[: self.used] = self.data[: self.used]
            self.data = grown
        start = self.used
        self.data[start : start + n] = values
        self.used += n
        return start


class ConnectionTable:
    """Dense array-backed registry of DR-connection records."""

    #: Handles the table starts with; doubles on exhaustion.
    INITIAL_CAPACITY = 256
    #: Arena slots per initial handle (typical paths are a few hops).
    ARENA_FACTOR = 8

    def __init__(self, capacity: int = INITIAL_CAPACITY) -> None:
        n = max(capacity, 16)
        self.capacity = n
        # -- scalar columns, one row per handle -------------------------
        self.level = np.zeros(n, dtype=_I8)
        self.b_min = np.zeros(n, dtype=_F8)
        self.increment = np.zeros(n, dtype=_F8)
        #: Lifecycle code; a handle is allocated iff ``state <=
        #: FAILED_OVER`` and carries traffic on its backup iff
        #: ``state == FAILED_OVER``.  Free handles read TERMINATED or
        #: DROPPED.
        self.state = np.full(n, STATE_CODE[ConnectionState.TERMINATED], dtype=np.int8)
        self.elastic = np.zeros(n, dtype=np.bool_)
        self.established_at = np.zeros(n, dtype=_F8)
        self.backup_overlap = np.zeros(n, dtype=_I8)
        self.source = np.zeros(n, dtype=_I8)
        self.destination = np.zeros(n, dtype=_I8)
        #: Accumulated elastic extra per *path link* (uniform along the
        #: path by construction); tracks the exact float trajectory of
        #: the reference's per-link ``primary_extra[cid]`` entries.
        self.conn_extra = np.zeros(n, dtype=_F8)
        # -- CSR routes (backup dense link indices / node ids) ----------
        self.bk_start = np.zeros(n, dtype=_I8)
        self.bk_len = np.zeros(n, dtype=_I8)  # 0 = no backup route
        self.pnode_start = np.zeros(n, dtype=_I8)
        self.pnode_len = np.zeros(n, dtype=_I8)
        self.bnode_start = np.zeros(n, dtype=_I8)
        self.bnode_len = np.zeros(n, dtype=_I8)
        self.links_arena = _Arena(n * self.ARENA_FACTOR)
        self.nodes_arena = _Arena(n * self.ARENA_FACTOR)
        # -- per-handle Python payload ----------------------------------
        #: QoS contract objects (shared, frozen dataclasses).
        self.qos: List[Optional[ConnectionQoS]] = [None] * n
        # Python-native per-handle facts the water-fill probes in its
        # inner loop.  All five are immutable for the lifetime of an
        # allocation (written in ``allocate``, cleared in ``free``), so
        # the fill reads plain ints/floats/lists instead of paying a
        # NumPy scalar access per probe.  ``cid_py`` (the conn id),
        # ``thr_py`` (the spare threshold ``increment - EPSILON``),
        # ``maxl_py`` (the level cap) and ``path`` have no column behind
        # them; ``delta_py`` mirrors ``increment``.
        self.cid_py: List[int] = [-1] * n
        self.thr_py: List[float] = [0.0] * n
        self.delta_py: List[float] = [0.0] * n
        self.maxl_py: List[int] = [0] * n
        #: Primary route as a list of dense link indices.  The list may be
        #: shared with the route plan it came from: treat it as immutable.
        self.path: List[Sequence[int]] = [() for _ in range(n)]
        self._free: List[int] = list(range(n - 1, -1, -1))
        self.num_allocated = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in _COLUMNS:
            col = getattr(self, name)
            grown = np.zeros(new, dtype=col.dtype)
            grown[:old] = col
            setattr(self, name, grown)
        self.state[old:] = STATE_CODE[ConnectionState.TERMINATED]
        self.qos.extend([None] * old)
        self.cid_py.extend([-1] * old)
        self.thr_py.extend([0.0] * old)
        self.delta_py.extend([0.0] * old)
        self.maxl_py.extend([0] * old)
        self.path.extend(() for _ in range(old))
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def allocate(
        self,
        conn_id: int,
        source: int,
        destination: int,
        qos: ConnectionQoS,
        path: Sequence[int],
        prim_nodes: Sequence[int],
        established_at: float,
    ) -> int:
        """Claim a handle for a new ACTIVE connection; returns the handle."""
        if not self._free:
            self._grow()
        h = self._free.pop()
        perf = qos.performance
        self.level[h] = 0
        self.b_min[h] = perf.b_min
        self.increment[h] = perf.increment
        self.state[h] = STATE_CODE[ConnectionState.ACTIVE]
        self.elastic[h] = perf.is_elastic()
        self.established_at[h] = established_at
        self.backup_overlap[h] = 0
        self.source[h] = source
        self.destination[h] = destination
        self.conn_extra[h] = 0.0
        self.pnode_start[h] = self.nodes_arena.append(prim_nodes)
        self.pnode_len[h] = len(prim_nodes)
        self.bk_len[h] = 0
        self.bnode_len[h] = 0
        self.qos[h] = qos
        self.cid_py[h] = conn_id
        self.thr_py[h] = perf.increment - EPSILON
        self.delta_py[h] = perf.increment
        self.maxl_py[h] = perf.max_level
        self.path[h] = path
        self.num_allocated += 1
        return h

    def set_backup(
        self, h: int, bk_idx: Sequence[int], bk_nodes: Sequence[int], overlap: int
    ) -> None:
        """Attach (or replace) the backup route of handle ``h``."""
        if self.bk_len[h]:
            self.links_arena.garbage += int(self.bk_len[h])
            self.nodes_arena.garbage += int(self.bnode_len[h])
        self.bk_start[h] = self.links_arena.append(bk_idx)
        self.bk_len[h] = len(bk_idx)
        self.bnode_start[h] = self.nodes_arena.append(bk_nodes)
        self.bnode_len[h] = len(bk_nodes)
        self.backup_overlap[h] = overlap

    def clear_backup(self, h: int) -> None:
        """Detach the backup route of handle ``h`` (lost to a failure)."""
        self.links_arena.garbage += int(self.bk_len[h])
        self.nodes_arena.garbage += int(self.bnode_len[h])
        self.bk_len[h] = 0
        self.bnode_len[h] = 0

    def free(self, h: int, final_state: ConnectionState) -> None:
        """Release handle ``h`` back to the free list."""
        self.state[h] = STATE_CODE[final_state]
        self.qos[h] = None
        self.cid_py[h] = -1
        self.path[h] = ()
        self.links_arena.garbage += int(self.bk_len[h])
        self.nodes_arena.garbage += int(self.pnode_len[h] + self.bnode_len[h])
        self.bk_len[h] = 0
        self.pnode_len[h] = 0
        self.bnode_len[h] = 0
        self._free.append(h)
        self.num_allocated -= 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # CSR access
    # ------------------------------------------------------------------
    def bk_slice(self, h: int) -> np.ndarray:
        """Dense link indices of ``h``'s backup route (empty when none)."""
        s = self.bk_start[h]
        return self.links_arena.data[s : s + self.bk_len[h]]

    def pnode_slice(self, h: int) -> np.ndarray:
        """Node ids of ``h``'s primary route."""
        s = self.pnode_start[h]
        return self.nodes_arena.data[s : s + self.pnode_len[h]]

    def bnode_slice(self, h: int) -> np.ndarray:
        """Node ids of ``h``'s backup route (empty when none)."""
        s = self.bnode_start[h]
        return self.nodes_arena.data[s : s + self.bnode_len[h]]

    def _maybe_compact(self) -> None:
        """Compact the arenas once freed garbage outweighs live payload."""
        for arena, starts_lens in (
            (self.links_arena, ((self.bk_start, self.bk_len),)),
            (self.nodes_arena, ((self.pnode_start, self.pnode_len), (self.bnode_start, self.bnode_len))),
        ):
            live = arena.used - arena.garbage
            if arena.garbage <= 4096 or arena.garbage <= live:
                continue
            packed = np.zeros(len(arena.data), dtype=_I8)
            cursor = 0
            handles = np.flatnonzero(self.live_mask())
            for starts, lens in starts_lens:
                for h in handles:
                    n = int(lens[h])
                    if not n:
                        continue
                    s = int(starts[h])
                    packed[cursor : cursor + n] = arena.data[s : s + n]
                    starts[h] = cursor
                    cursor += n
            arena.data = packed
            arena.used = cursor
            arena.garbage = 0

    # ------------------------------------------------------------------
    # masked reductions
    # ------------------------------------------------------------------
    def live_mask(self) -> np.ndarray:
        """Allocated handles: those carrying traffic (ACTIVE or FAILED_OVER)."""
        return self.state <= STATE_CODE[ConnectionState.FAILED_OVER]

    def average_live_bandwidth(self) -> float:
        """Mean reserved bandwidth per live connection.

        Exact-equality contract with the reference: NumPy's pairwise
        summation and the object's sequential ``sum()`` agree bitwise
        whenever all bandwidths lie on the paper's dyadic grid
        (multiples of 50 Kb/s) — every sum is then exact in float64.
        """
        mask = self.live_mask()
        count = int(np.count_nonzero(mask))
        if not count:
            return 0.0
        bw = self.b_min[mask] + self.level[mask] * self.increment[mask]
        on_backup = self.state[mask] == STATE_CODE[ConnectionState.FAILED_OVER]
        np.copyto(bw, self.b_min[mask], where=on_backup)
        return float(np.sum(bw)) / count

    def level_histogram(self, num_levels: int) -> List[int]:
        """Count of ACTIVE elastic primaries at each level (state S_i)."""
        mask = self.state == STATE_CODE[ConnectionState.ACTIVE]
        clipped = np.minimum(self.level[mask], num_levels - 1)
        return np.bincount(clipped, minlength=num_levels).tolist()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def nbytes(self) -> Tuple[int, int, int]:
        """(column bytes, arena bytes, list bytes) — memory benchmark hook."""
        cols = 0
        for name in _COLUMNS:
            cols += getattr(self, name).nbytes
        arenas = self.links_arena.data.nbytes + self.nodes_arena.data.nbytes
        lists = list_nbytes(
            self.cid_py, self.thr_py, self.delta_py, self.maxl_py, self.path, self.qos
        )
        return cols, arenas, lists
