"""Per-link reservation state as plain lists.

:class:`LinkTable` is the production twin of the reference's per-object
:class:`~repro.reference.Link` records: every aggregate a
:class:`~repro.reference.Link` maintains as a cached Python float
(``primary_min_total``, ``primary_extra_total``, ``activated_total``,
``backup_reserved``) becomes one Python ``list`` of floats indexed by a
**dense link index** (the position of the link in ``topology.links()``
order).  Every event reads and writes a handful of cells on one or two
short paths, so the hot readers are scalar, and a list cell is the
cheapest scalar there is: the elastic fill edits ``primary_extra`` in
place, and nothing is snapshotted or written back.

Bitwise contract (the twin-manager tests pin this): every float the
reference computes is reproduced by the *same* sequence of float
operations.  Python floats are IEEE doubles; ``headroom`` is
``((capacity - primary_min) - backup_reserved) - activated`` exactly as
``Link`` evaluates it left to right, and extras are granted and
reclaimed by the same additions in the same order.  The backup
*multiplexing* bookkeeping, the per-link ``failure link -> demand``
map, is a dict of floats per link: it is sparse, keyed by topology
identity, and only touched on backup reserve/release.

``check_invariants`` deliberately ignores every maintained column and
recomputes the aggregates from the raw per-connection data handed in by
the caller (the :class:`~repro.channels.conn_table.ConnectionTable`),
then cross-checks the columns against the recomputation — the same
"caches must match a from-scratch sum" discipline the reference's
``Link.check_invariants`` applies.

Materialized terms.  Two derived columns are kept ready to read:
``headroom`` (``capacity - primary_min - backup_reserved - activated``,
what every admission probe asks) and ``spare_base`` (``capacity -
primary_min - activated``, the part of the reference's extra-pool spare
``capacity - min - activated - extra`` that an elastic fill does not
change; the fill tests ``spare_base[li] - primary_extra[li]``).  Neither
is ever updated by adding a delta (which would be a different float
trajectory off the dyadic bandwidth grid): every writer of one of their
inputs calls :meth:`_refresh_cell` on each cell it touched, which
re-evaluates both defining expressions left to right.
``check_invariants`` compares both columns with a from-scratch
recompute bitwise (no tolerance).  ``primary_extra`` feeds neither, so
the fill refreshes nothing.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import AdmissionError, ReservationError, TopologyError
from repro.topology.graph import LinkId, Network
from repro.units import EPSILON

__all__ = ["LinkTable", "list_nbytes"]


def list_nbytes(*lists: List[object]) -> int:
    """Bytes the lists own: their own sizes plus each distinct number or list in them.

    Nested lists are counted the same way, and an object several lists
    share is counted once.  Small ints and bools are interpreter-wide
    singletons and cost the lists nothing.
    """
    seen: Set[int] = set()

    def size(obj: object) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        if isinstance(obj, list):
            return sys.getsizeof(obj) + sum(size(item) for item in obj)
        if isinstance(obj, float) or (
            isinstance(obj, int) and not isinstance(obj, bool) and not -5 <= obj <= 256
        ):
            return sys.getsizeof(obj)
        return 0

    return sum(size(values) for values in lists)


class LinkTable:
    """Dense list-backed reservation state for every link of a topology.

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
        headroom: Materialized admission headroom per link (see the
            module docstring for the refresh protocol).
        spare_base: Materialized ``capacity - primary_min - activated``
            per link (the fill's spare is ``spare_base - primary_extra``).
        failed: Failure flag per link.
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
        "spare_base",
        "failed",
        "backup_demand",
    )

    def __init__(self, topology: Network) -> None:
        links = topology.links()
        n = len(links)
        self.link_ids: List[LinkId] = [link.id for link in links]
        self.index: Dict[LinkId, int] = {lid: i for i, lid in enumerate(self.link_ids)}
        self.capacity: List[float] = [float(link.capacity) for link in links]
        self.primary_min: List[float] = [0.0] * n
        self.primary_extra: List[float] = [0.0] * n
        self.activated: List[float] = [0.0] * n
        self.backup_reserved: List[float] = [0.0] * n
        self.headroom: List[float] = [0.0] * n
        self.spare_base: List[float] = [0.0] * n
        self.failed: List[bool] = [False] * n
        self.backup_demand: List[Dict[LinkId, float]] = [dict() for _ in range(n)]
        for li in range(n):
            self._refresh_cell(li)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.link_ids)

    def index_of(self, lid: LinkId) -> int:
        """Dense index of ``lid``.

        Raises:
            TopologyError: for a link not present in the topology.
        """
        try:
            return self.index[lid]
        except KeyError:
            raise TopologyError(f"link {lid} is not part of the topology") from None

    def indices_of(self, lids: Sequence[LinkId]) -> List[int]:
        """Dense indices of a link-id path."""
        idx = self.index
        return [idx[lid] for lid in lids]

    # ------------------------------------------------------------------
    # materialized terms
    # ------------------------------------------------------------------
    def _refresh_cell(self, li: int) -> None:
        """Re-evaluate ``headroom`` and ``spare_base`` for one index."""
        cap_min = self.capacity[li] - self.primary_min[li]
        act = self.activated[li]
        self.headroom[li] = cap_min - self.backup_reserved[li] - act
        self.spare_base[li] = cap_min - act

    # ------------------------------------------------------------------
    # on-demand views
    # ------------------------------------------------------------------
    def spare_for_extras(self) -> List[float]:
        """Extra-pool headroom per link, recomputed from the raw columns.

        ``capacity - primary_min - activated - primary_extra`` evaluated
        left to right, the exact expression of ``Link.spare_for_extras``.
        """
        return [
            c - m - a - e
            for c, m, a, e in zip(
                self.capacity, self.primary_min, self.activated, self.primary_extra
            )
        ]

    def used(self) -> List[float]:
        """Bandwidth actually consumed per link."""
        return [
            m + e + a
            for m, e, a in zip(self.primary_min, self.primary_extra, self.activated)
        ]

    # ------------------------------------------------------------------
    # primary path mutations
    # ------------------------------------------------------------------
    def reclaim_extras(self, path: Iterable[int], amount: float) -> None:
        """Subtract one channel's extra ``amount`` along its path.

        Called per channel in ascending conn-id order, so every cell
        sees the reference's per-channel ``drop_extra`` subtractions in
        the reference's order.
        """
        extra = self.primary_extra
        for li in path:
            extra[li] -= amount

    def add_primary_min(self, path: Iterable[int], b_min: float) -> None:
        """Reserve a primary minimum along a path."""
        pmin = self.primary_min
        for li in path:
            pmin[li] += b_min
            self._refresh_cell(li)

    def sub_primary_min(self, path: Iterable[int], b_min: float) -> None:
        """Roll back a reserve (backup-admission rejection path)."""
        pmin = self.primary_min
        for li in path:
            pmin[li] -= b_min
            self._refresh_cell(li)

    def release_primary(self, path: Iterable[int], b_min: float, extra: float) -> None:
        """Release a primary's minimum and extra (termination / failure victims)."""
        pmin = self.primary_min
        pextra = self.primary_extra
        for li in path:
            pmin[li] -= b_min
            if extra:
                pextra[li] -= extra
            self._refresh_cell(li)

    def sub_activated(self, path: Iterable[int], b_min: float) -> None:
        """Release an activated backup along its path."""
        act = self.activated
        for li in path:
            act[li] -= b_min
            self._refresh_cell(li)

    # ------------------------------------------------------------------
    # backup reservations (multiplexed)
    # ------------------------------------------------------------------
    def backup_reserved_with(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> float:
        """Reservation link ``li`` would need after adding this backup."""
        worst = self.backup_reserved[li]
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
        if self.failed[li]:
            return False
        growth = self.backup_reserved_with(li, b_min, primary_links) - self.backup_reserved[li]
        return growth <= self.headroom[li] + EPSILON

    def can_admit_backup_bulk(
        self, path: Iterable[int], b_min: float, primary_links: FrozenSet[LinkId]
    ) -> bool:
        """Whether every link of ``path`` admits this backup.

        Same per-link arithmetic and comparisons as
        :meth:`can_admit_backup` (the ``max`` over conflict demands is
        order-free), with the attribute lookups hoisted out of the
        per-link loop.
        """
        failed = self.failed
        reserved = self.backup_reserved
        headroom = self.headroom
        demands = self.backup_demand
        for li in path:
            if failed[li]:
                return False
            base = reserved[li]
            worst = base
            demand = demands[li]
            for f in primary_links:
                cand = demand.get(f, 0.0) + b_min
                if cand > worst:
                    worst = cand
            if worst - base > headroom[li] + EPSILON:
                return False
        return True

    def add_backup(
        self, li: int, b_min: float, primary_links: FrozenSet[LinkId]
    ) -> None:
        """Fold one backup into link ``li``'s multiplexed reservation."""
        if not primary_links:
            raise ReservationError("backup has an empty primary-conflict set")
        demand = self.backup_demand[li]
        worst = self.backup_reserved[li]
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
        reserved = self.backup_reserved[li]
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
        if self.failed[li]:
            return False
        return (
            self.primary_min[li] + self.activated[li] + b_min
            <= self.capacity[li] + EPSILON
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
        used = self.primary_min[li] + self.primary_extra[li] + self.activated[li]
        committed = self.primary_min[li] + self.backup_reserved[li] + self.activated[li]
        if max(used, committed) > capacity + EPSILON:
            raise ReservationError(
                f"link {self.link_ids[li]}: new capacity {capacity} is below "
                f"current commitments {max(used, committed):.3f}"
            )
        self.capacity[li] = float(capacity)
        self._refresh_cell(li)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail(self, li: int) -> None:
        """Mark a dense index failed (double failure is a caller bug)."""
        if self.failed[li]:
            raise ReservationError(f"link {self.link_ids[li]} is already failed")
        self.failed[li] = True

    def repair(self, li: int) -> None:
        """Return a failed dense index to service."""
        if not self.failed[li]:
            raise ReservationError(f"link {self.link_ids[li]} is not failed")
        self.failed[li] = False

    # ------------------------------------------------------------------
    # invariants: full recount from raw per-connection data
    # ------------------------------------------------------------------
    def check_invariants(
        self,
        primary_contribs: Iterable[Tuple[Sequence[int], float, float]],
        backup_contribs: Iterable[Tuple[Sequence[int], float, FrozenSet[LinkId]]],
        activated_contribs: Iterable[Tuple[Sequence[int], float]],
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
        n = len(self.link_ids)
        min_ref = [0.0] * n
        extra_ref = [0.0] * n
        act_ref = [0.0] * n
        demand_ref: List[Dict[LinkId, float]] = [dict() for _ in range(n)]
        for path, b_min, extra in primary_contribs:
            if extra < -EPSILON:
                raise ReservationError("negative extra grant")
            for li in path:
                min_ref[li] += b_min
                if extra:
                    extra_ref[li] += extra
        for path, b_min, conflict in backup_contribs:
            for li in path:
                demand = demand_ref[li]
                for f in conflict:
                    demand[f] = demand.get(f, 0.0) + b_min
        for path, b_min in activated_contribs:
            for li in path:
                act_ref[li] += b_min
        reserved_ref = [max(d.values(), default=0.0) for d in demand_ref]
        for name, column, ref in (
            ("primary_min", self.primary_min, min_ref),
            ("primary_extra", self.primary_extra, extra_ref),
            ("activated", self.activated, act_ref),
            ("backup_reserved", self.backup_reserved, reserved_ref),
        ):
            for li in range(n):
                if abs(column[li] - ref[li]) > EPSILON:
                    raise ReservationError(
                        f"link {self.link_ids[li]}: {name} column "
                        f"{column[li]} != recomputed {ref[li]}"
                    )
        for li, demand in enumerate(demand_ref):
            maintained = self.backup_demand[li]
            for f, expected in demand.items():
                if abs(maintained.get(f, 0.0) - expected) > EPSILON:
                    raise ReservationError(
                        f"link {self.link_ids[li]}: backup demand for "
                        f"failure {f} out of sync"
                    )
        for li in range(n):
            cap, pmin, act = self.capacity[li], self.primary_min[li], self.activated[li]
            # Bitwise, not tolerance-based: each materialized cell is the
            # same expression over the same operands.
            for name, cell, expected in (
                ("headroom", self.headroom[li], cap - pmin - self.backup_reserved[li] - act),
                ("spare base", self.spare_base[li], cap - pmin - act),
            ):
                if cell != expected:
                    raise ReservationError(
                        f"link {self.link_ids[li]}: materialized {name} "
                        f"{cell!r} != {expected!r}"
                    )
            used = pmin + self.primary_extra[li] + act
            if used > cap + EPSILON:
                raise ReservationError(
                    f"link {self.link_ids[li]}: usage {used:.3f} exceeds capacity {cap}"
                )
        if strict_reservation:
            for li in range(n):
                committed = (
                    self.primary_min[li] + self.backup_reserved[li] + self.activated[li]
                )
                if committed > self.capacity[li] + EPSILON:
                    raise ReservationError(
                        f"link {self.link_ids[li]}: commitments "
                        f"{committed:.3f} exceed capacity {self.capacity[li]}"
                    )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by the per-link lists (memory benchmark hook)."""
        return list_nbytes(
            self.capacity,
            self.primary_min,
            self.primary_extra,
            self.activated,
            self.backup_reserved,
            self.headroom,
            self.spare_base,
            self.failed,
        )
