"""Struct-of-arrays (SoA) link reservation state.

:class:`LinkTable` is the array-backed twin of the per-object
:class:`~repro.reference.Link` dictionary world: every
aggregate a :class:`~repro.reference.Link` maintains as a cached Python float
(``primary_min_total``, ``primary_extra_total``, ``activated_total``,
``backup_reserved``) becomes one preallocated NumPy ``float64`` column
indexed by a **dense link index** (the position of the link in
``topology.links()`` order).  Per-event mutations touch a handful of
scalar cells; the hot *reads* — admission masks over the whole network,
the fill's spare snapshot — become single vectorized expressions instead
of per-link property chains.

Bitwise contract (the twin-manager tests pin this): every float the
reference computes is reproduced by the *same* sequence of float
operations.  ``admission_headroom`` is ``((capacity - primary_min) -
backup_reserved) - activated`` exactly as ``Link`` evaluates it
left to right; extras are granted and reclaimed by the same additions
in the same order (NumPy ``ufunc.at``, behind the batched reclaim, is
unbuffered and applies element operations in array order).  The backup
*multiplexing* bookkeeping — the per-link ``failure link -> demand``
map — stays a dict-of-floats per link: it is sparse, keyed by topology
identity, and only touched on backup reserve/release, never in the
vectorized sweeps.

``check_invariants`` deliberately ignores every maintained column and
recomputes the aggregates from the raw per-connection data handed in by
the caller (the :class:`~repro.channels.conn_table.ConnectionTable`),
then cross-checks the columns against the recomputation — the same
"caches must match a from-scratch sum" discipline the reference's
``Link.check_invariants`` applies, at whole-array granularity.

Materialized headroom.  ``headroom`` holds ``admission_headroom`` —
``capacity - primary_min - backup_reserved - activated``, the quantity
every admission probe interrogates — as a ready-to-read float64 column.
It is *never* updated by adding a delta (which would be a different
float trajectory off the dyadic bandwidth grid): every writer of one of
its four inputs re-evaluates the exact left-to-right defining
expression for just the cells it touched (``_refresh_cell`` /
``refresh_cells``), so the column is always current.  Elementwise
float64 arithmetic is IEEE-identical whether evaluated per cell or over
the whole column, and ``check_invariants`` asserts the column matches a
from-scratch recompute with ``array_equal`` (no tolerance).  Elastic
extras feed no materialized column: ``spare_for_extras`` is computed on
demand, and the fill snapshots its own spares.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionError, ReservationError, TopologyError
from repro.topology.graph import LinkId, Network
from repro.units import EPSILON

__all__ = ["LinkTable"]

#: Float column type used for all bandwidth accounting.
_F8 = np.float64


class LinkTable:
    """Dense array-backed reservation state for every link of a topology.

    Attributes:
        link_ids: Link identity of each dense index (topology order).
        index: ``LinkId -> dense index`` mapping.
        capacity: Installed bandwidth per link (Kb/s); mutable only via
            :meth:`set_capacity` (scenario hook).
        primary_min: Sum of primary-minimum reservations per link.
        primary_extra: Sum of granted elastic extras per link.
        activated: Bandwidth consumed by activated backups per link.
        backup_reserved: Multiplexed backup reservation per link (the
            worst single-failure demand).
        headroom: Materialized ``admission_headroom`` per link (see
            module docstring for the refresh protocol).
        failed: Boolean failure mask per link.
        backup_demand: Per-link sparse ``failure link -> total backup
            bandwidth`` maps backing the multiplexing rule.
    """

    __slots__ = (
        "link_ids",
        "index",
        "capacity",
        "primary_min",
        "primary_extra",
        "activated",
        "backup_reserved",
        "headroom",
        "failed",
        "failed_py",
        "backup_demand",
        "_num_links",
    )

    def __init__(self, topology: Network) -> None:
        links = topology.links()
        n = len(links)
        self._num_links = n
        self.link_ids: List[LinkId] = [link.id for link in links]
        self.index: Dict[LinkId, int] = {lid: i for i, lid in enumerate(self.link_ids)}
        self.capacity = np.array([link.capacity for link in links], dtype=_F8)
        self.primary_min = np.zeros(n, dtype=_F8)
        self.primary_extra = np.zeros(n, dtype=_F8)
        self.activated = np.zeros(n, dtype=_F8)
        self.backup_reserved = np.zeros(n, dtype=_F8)
        self.headroom = (
            self.capacity - self.primary_min - self.backup_reserved - self.activated
        )
        self.failed = np.zeros(n, dtype=np.bool_)
        #: Python mirror of ``failed`` for scalar probes: list access is
        #: several times cheaper than a numpy scalar read, and the
        #: fail/repair toggles are the column's only writers.
        self.failed_py: List[bool] = [False] * n
        self.backup_demand: List[Dict[LinkId, float]] = [dict() for _ in range(n)]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_links

    def index_of(self, lid: LinkId) -> int:
        """Dense index of ``lid``.

        Raises:
            TopologyError: for a link not present in the topology.
        """
        try:
            return self.index[lid]
        except KeyError:
            raise TopologyError(f"link {lid} is not part of the topology") from None

    def indices_of(self, lids: Sequence[LinkId]) -> np.ndarray:
        """Dense indices of a link-id path (int64 array)."""
        idx = self.index
        return np.array([idx[lid] for lid in lids], dtype=np.int64)

    # ------------------------------------------------------------------
    # materialized headroom maintenance
    # ------------------------------------------------------------------
    def _refresh_cell(self, li: int) -> None:
        """Re-evaluate ``headroom``'s defining expression for one index."""
        self.headroom[li] = (
            self.capacity[li]
            - self.primary_min[li]
            - self.backup_reserved[li]
            - self.activated[li]
        )

    def refresh_cells(self, idx: np.ndarray) -> None:
        """Re-evaluate ``headroom``'s defining expression for touched indices.

        Duplicate indices are harmless: the recompute is idempotent.
        """
        self.headroom[idx] = (
            self.capacity[idx]
            - self.primary_min[idx]
            - self.backup_reserved[idx]
            - self.activated[idx]
        )

    # ------------------------------------------------------------------
    # vectorized aggregate views
    # ------------------------------------------------------------------
    def spare_for_extras(self) -> np.ndarray:
        """Extra-pool headroom per link (full-network vector).

        ``capacity - primary_min - activated - primary_extra`` evaluated
        left to right — the exact expression (and float trajectory) of
        ``Link.spare_for_extras``.
        """
        return self.capacity - self.primary_min - self.activated - self.primary_extra

    def admission_headroom(self) -> np.ndarray:
        """Guaranteed-commitment headroom per link (invariant 2 view)."""
        return self.headroom.copy()

    def used(self) -> np.ndarray:
        """Bandwidth actually consumed per link."""
        return self.primary_min + self.primary_extra + self.activated

    def primary_admission_mask(self, b_min: float) -> np.ndarray:
        """Boolean per-link mask of ``Link.can_admit_primary``.

        ``True`` where a new primary with minimum ``b_min`` fits: the
        link is alive and ``b_min <= admission_headroom + EPSILON``.
        """
        return (~self.failed) & (b_min <= self.headroom + EPSILON)

    # ------------------------------------------------------------------
    # scalar reads (flooding allowances, backup admission)
    # ------------------------------------------------------------------
    def headroom_at(self, li: int) -> float:
        """Scalar ``admission_headroom`` of one dense index."""
        return float(self.headroom[li])

    # ------------------------------------------------------------------
    # primary path mutations
    # ------------------------------------------------------------------
    def reclaim_extras(self, flat_idx: np.ndarray, amounts: np.ndarray) -> None:
        """Subtract per-entry extras at (possibly repeated) dense indices.

        ``np.add.at`` is unbuffered and applies the subtractions in
        array order — the same scalar trajectory as a Python loop over
        ``(flat_idx, amounts)`` pairs — so batched reclamation stays
        bitwise-equal to the reference's per-channel ``drop_extra``.
        """
        np.add.at(self.primary_extra, flat_idx, -amounts)

    def add_primary_min(self, path_idx: np.ndarray, b_min: float) -> None:
        """Bulk-reserve a primary minimum along unique dense indices.

        Fancy-indexed ``+=`` over a simple path (no repeated links) is
        one independent scalar add per cell — the same float trajectory
        as the reference's per-link loop.
        """
        self.primary_min[path_idx] += b_min
        self.refresh_cells(path_idx)

    def sub_primary_min(self, path_idx: np.ndarray, b_min: float) -> None:
        """Roll back a bulk reserve (backup-admission rejection path)."""
        self.primary_min[path_idx] -= b_min
        self.refresh_cells(path_idx)

    def release_primary_bulk(
        self, path_idx: np.ndarray, b_min: float, extra: float
    ) -> None:
        """Vectorized primary release (termination / failure victims)."""
        self.primary_min[path_idx] -= b_min
        if extra:
            self.primary_extra[path_idx] -= extra
        self.refresh_cells(path_idx)

    def sub_activated(self, path_idx: np.ndarray, b_min: float) -> None:
        """Vectorized release of an activated backup along its path."""
        self.activated[path_idx] -= b_min
        self.refresh_cells(path_idx)

    # ------------------------------------------------------------------
    # backup reservations (multiplexed)
    # ------------------------------------------------------------------
    def backup_reserved_with(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> float:
        """Reservation link ``li`` would need after adding this backup."""
        worst = float(self.backup_reserved[li])
        demand = self.backup_demand[li]
        for f in primary_links:
            cand = demand.get(f, 0.0) + b_min
            if cand > worst:
                worst = cand
        return worst

    def can_admit_backup(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> bool:
        """Scalar twin of ``Link.can_admit_backup`` (invariant 2)."""
        if self.failed_py[li]:
            return False
        growth = self.backup_reserved_with(li, b_min, primary_links) - float(
            self.backup_reserved[li]
        )
        return growth <= self.headroom_at(li) + EPSILON

    def can_admit_backup_bulk(
        self, idx: np.ndarray, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> bool:
        """Whether every link in ``idx`` admits this backup.

        Same per-link arithmetic and comparisons as
        :meth:`can_admit_backup` (the ``max`` over conflict demands is
        order-free), with the column/method lookups hoisted out of the
        per-link loop — paths are short, so hoisted scalar reads beat
        building gather arrays.
        """
        failed = self.failed_py
        reserved = self.backup_reserved
        headroom = self.headroom
        demands = self.backup_demand
        for li in idx.tolist():
            if failed[li]:
                return False
            base = float(reserved[li])
            worst = base
            demand = demands[li]
            for f in primary_links:
                cand = demand.get(f, 0.0) + b_min
                if cand > worst:
                    worst = cand
            if worst - base > float(headroom[li]) + EPSILON:
                return False
        return True

    def add_backup(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> None:
        """Fold one backup into link ``li``'s multiplexed reservation."""
        if not primary_links:
            raise ReservationError("backup has an empty primary-conflict set")
        demand = self.backup_demand[li]
        worst = float(self.backup_reserved[li])
        for f in primary_links:
            new_demand = demand.get(f, 0.0) + b_min
            demand[f] = new_demand
            if new_demand > worst:
                worst = new_demand
        self.backup_reserved[li] = worst
        self._refresh_cell(li)

    def remove_backup(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> None:
        """Drop one backup's share from link ``li``'s reservation."""
        demand = self.backup_demand[li]
        reserved = float(self.backup_reserved[li])
        recompute = False
        for f in primary_links:
            old = demand[f]
            remaining = old - b_min
            if old >= reserved - EPSILON:
                recompute = True
            if remaining <= EPSILON:
                del demand[f]
            else:
                demand[f] = remaining
        if recompute:
            self.backup_reserved[li] = max(demand.values(), default=0.0)
            self._refresh_cell(li)

    # ------------------------------------------------------------------
    # backup activation
    # ------------------------------------------------------------------
    def can_activate_backup(self, li: int, b_min: float) -> bool:
        """Whether ``b_min`` fits as live bandwidth on ``li`` right now."""
        if self.failed_py[li]:
            return False
        return (
            float(self.primary_min[li]) + float(self.activated[li]) + b_min
            <= float(self.capacity[li]) + EPSILON
        )

    def activate_backup(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> None:
        """Turn an inactive backup into live bandwidth on ``li``."""
        if not self.can_activate_backup(li, b_min):
            raise AdmissionError(
                f"backup no longer fits on link {self.link_ids[li]}"
            )
        self.remove_backup(li, b_min, primary_links)
        self.activated[li] += b_min
        self._refresh_cell(li)

    # ------------------------------------------------------------------
    # capacity mutation (scenario hook)
    # ------------------------------------------------------------------
    def set_capacity(self, li: int, capacity: float) -> None:
        """Change the installed bandwidth of one link.

        A scenario-authoring hook (capacity upgrades/degradations); the
        owner of any route cache must bump its generation afterwards,
        because cached plans embed load-dependent admission decisions.

        Raises:
            ReservationError: for a non-positive capacity or one below
                the link's current usage or guaranteed commitments.
        """
        if capacity <= 0:
            raise ReservationError(f"link capacity must be positive, got {capacity}")
        used = float(
            self.primary_min[li] + self.primary_extra[li] + self.activated[li]
        )
        committed = float(
            self.primary_min[li] + self.backup_reserved[li] + self.activated[li]
        )
        if max(used, committed) > capacity + EPSILON:
            raise ReservationError(
                f"link {self.link_ids[li]}: new capacity {capacity} is below "
                f"current commitments {max(used, committed):.3f}"
            )
        self.capacity[li] = capacity
        self._refresh_cell(li)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail(self, li: int) -> None:
        """Mark a dense index failed (double failure is a caller bug)."""
        if self.failed_py[li]:
            raise ReservationError(f"link {self.link_ids[li]} is already failed")
        self.failed[li] = True
        self.failed_py[li] = True

    def repair(self, li: int) -> None:
        """Return a failed dense index to service."""
        if not self.failed_py[li]:
            raise ReservationError(f"link {self.link_ids[li]} is not failed")
        self.failed[li] = False
        self.failed_py[li] = False

    # ------------------------------------------------------------------
    # invariants: full-array cross-check from raw per-connection data
    # ------------------------------------------------------------------
    def check_invariants(
        self,
        primary_contribs: Iterable[Tuple[np.ndarray, float, float]],
        backup_contribs: Iterable[Tuple[np.ndarray, float, FrozenSet[LinkId]]],
        activated_contribs: Iterable[Tuple[np.ndarray, float]],
        strict_reservation: bool = True,
    ) -> None:
        """Recompute every column from raw connection data and cross-check.

        Args:
            primary_contribs: ``(path indices, b_min, extra)`` of every
                live primary channel.
            backup_contribs: ``(path indices, b_min, conflict set)`` of
                every inactive backup reservation.
            activated_contribs: ``(path indices, b_min)`` of every
                activated (live) backup channel.
            strict_reservation: Also check invariant 2; disable after
                failures, where multiplexed reservations only cover the
                first failure.

        Raises:
            ReservationError: when a recomputed aggregate disagrees with
                its maintained column or a capacity invariant fails.
        """
        if self.failed_py != self.failed.tolist():
            raise ReservationError("failed_py mirror out of sync with column")
        n = self._num_links
        min_ref = np.zeros(n, dtype=_F8)
        extra_ref = np.zeros(n, dtype=_F8)
        act_ref = np.zeros(n, dtype=_F8)
        demand_ref: List[Dict[LinkId, float]] = [dict() for _ in range(n)]
        for path_idx, b_min, extra in primary_contribs:
            np.add.at(min_ref, path_idx, b_min)
            if extra < -EPSILON:
                raise ReservationError("negative extra grant")
            if extra:
                np.add.at(extra_ref, path_idx, extra)
        for path_idx, b_min, conflict in backup_contribs:
            for li in path_idx:
                demand = demand_ref[int(li)]
                for f in conflict:
                    demand[f] = demand.get(f, 0.0) + b_min
        for path_idx, b_min in activated_contribs:
            np.add.at(act_ref, path_idx, b_min)
        reserved_ref = np.array(
            [max(d.values(), default=0.0) for d in demand_ref], dtype=_F8
        )
        for name, column, ref in (
            ("primary_min", self.primary_min, min_ref),
            ("primary_extra", self.primary_extra, extra_ref),
            ("activated", self.activated, act_ref),
            ("backup_reserved", self.backup_reserved, reserved_ref),
        ):
            bad = np.flatnonzero(np.abs(column - ref) > EPSILON)
            if bad.size:
                li = int(bad[0])
                raise ReservationError(
                    f"link {self.link_ids[li]}: {name} column "
                    f"{float(column[li])} != recomputed {float(ref[li])}"
                )
        for li, demand in enumerate(demand_ref):
            maintained = self.backup_demand[li]
            for f, expected in demand.items():
                if abs(maintained.get(f, 0.0) - expected) > EPSILON:
                    raise ReservationError(
                        f"link {self.link_ids[li]}: backup demand for "
                        f"failure {f} out of sync"
                    )
        head_ref = (
            self.capacity - self.primary_min - self.backup_reserved - self.activated
        )
        # Bitwise, not tolerance-based: the materialized column is the
        # same expression over the same operands.
        if not np.array_equal(self.headroom, head_ref):
            li = int(np.flatnonzero(self.headroom != head_ref)[0])
            raise ReservationError(
                f"link {self.link_ids[li]}: materialized headroom "
                f"{float(self.headroom[li])!r} != {float(head_ref[li])!r}"
            )
        over = np.flatnonzero(self.used() > self.capacity + EPSILON)
        if over.size:
            li = int(over[0])
            raise ReservationError(
                f"link {self.link_ids[li]}: usage {float(self.used()[li]):.3f} "
                f"exceeds capacity {float(self.capacity[li])}"
            )
        if strict_reservation:
            committed = self.primary_min + self.backup_reserved + self.activated
            over = np.flatnonzero(committed > self.capacity + EPSILON)
            if over.size:
                li = int(over[0])
                raise ReservationError(
                    f"link {self.link_ids[li]}: commitments "
                    f"{float(committed[li]):.3f} exceed capacity "
                    f"{float(self.capacity[li])}"
                )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by the NumPy columns (memory benchmark hook)."""
        return int(
            self.capacity.nbytes
            + self.primary_min.nbytes
            + self.primary_extra.nbytes
            + self.activated.nbytes
            + self.backup_reserved.nbytes
            + self.headroom.nbytes
            + self.failed.nbytes
        )
