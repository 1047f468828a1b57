"""Water-filling over the production core's link and connection tables.

Production twin of :func:`repro.reference.fill`: the same
increment-granular water-fill, run over the
:class:`~repro.network.link_table.LinkTable` lists and the
:class:`~repro.channels.conn_table.ConnectionTable` columns.

Bitwise contract.  Under equal share the reference pops the smallest
``(level, cid)`` and grants it one increment iff every link of its path
still has spare ≥ its threshold.  :func:`_python_fill` performs the
*same grants in the same order*: it serves level buckets of cid-sorted
members, one member at a time, and grants straight into the table's
``primary_extra`` list.  Python floats are IEEE doubles and every spare
test is ``spare_base - primary_extra``, where the table keeps
``spare_base`` as ``capacity - min - activated``: the reference's
left-to-right expression ``capacity - min - activated - extra``.  So
the float trajectory is the reference's on any bandwidths, on the
paper's dyadic grid or off it.  Other policies rank members by their
own priority and run the heap fill :func:`_fill_by_priority_soa`, the
reference's loop transcribed onto the tables.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.elastic.policies import AdaptationPolicy, EqualShare
from repro.network.link_table import LinkTable
from repro.units import EPSILON

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle at runtime
    from repro.channels.conn_table import ConnectionTable

__all__ = ["redistribute_soa", "drop_to_minimum_soa", "is_maximal_soa"]


def redistribute_soa(
    links: LinkTable,
    conns: ConnectionTable,
    handles: List[int],
    policy: AdaptationPolicy,
    afters: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Water-fill spare capacity into the candidate handles.

    Args:
        links: Link columns (mutated: extras are granted).
        conns: Connection columns (mutated: levels rise).
        handles: Candidate handles, **sorted by conn id** — only these
            may rise (the caller collects every channel touching a link
            whose spare changed).
        policy: Adaptation policy ranking the competitors.
        afters: When given, filled with ``conn_id -> post-fill level``
            for every channel that rose (spares the caller a column
            gather per event).

    Returns:
        ``conn_id -> increments granted`` for every channel that rose.
    """
    granted: Dict[int, int] = {}
    if type(policy) is EqualShare:
        _python_fill(links, conns, handles, granted, afters)
    else:
        _fill_by_priority_soa(links, conns, handles, policy, granted, afters)
    return granted


def _python_fill(
    links: LinkTable,
    conns: ConnectionTable,
    hs_list: List[int],
    granted: Dict[int, int],
    afters: Optional[Dict[int, int]],
) -> None:
    """Run an equal-share fill member-by-member over the link lists.

    Per-member thresholds, increments, level caps, and paths come from
    the :class:`ConnectionTable` Python lists (immutable per
    allocation, no gather needed).  The members' levels and
    accumulated extras are gathered once, and only once some candidate
    is below its cap; grants go straight into ``links.primary_extra``,
    and each spare test reads the table's materialized ``spare_base``.
    """
    n = len(hs_list)
    hs_np = np.fromiter(hs_list, np.int64, n)
    cur_l = conns.level[hs_np].tolist()
    maxl_py = conns.maxl_py
    # Index j ascends in cid order, so appending risers in turn order
    # keeps each bucket cid-sorted, and merging two buckets is a plain
    # sorted-int merge.
    buckets: Dict[int, List[int]] = {}
    for j, h in enumerate(hs_list):
        if cur_l[j] < maxl_py[h]:
            buckets.setdefault(cur_l[j], []).append(j)
    if not buckets:
        return  # every candidate at its cap: nothing to gather
    thr_py = conns.thr_py
    delta_py = conns.delta_py
    paths = conns.path
    ce_l = conns.conn_extra[hs_np].tolist()
    spare_base = links.spare_base
    extra = links.primary_extra
    grants_l = [0] * n
    while buckets:
        level = min(buckets)
        members = buckets.pop(level)
        risers: List[int] = []
        for j in members:
            h = hs_list[j]
            thr = thr_py[h]
            path = paths[h]
            for li in path:
                if spare_base[li] - extra[li] < thr:
                    break
            else:
                delta = delta_py[h]
                for li in path:
                    extra[li] += delta
                ce_l[j] += delta
                grants_l[j] += 1
                cur_l[j] += 1
                if cur_l[j] < maxl_py[h]:
                    risers.append(j)
        if risers:
            waiting = buckets.get(level + 1)
            if waiting is None:
                buckets[level + 1] = risers
            else:
                # Two sorted runs: timsort's galloping merge is O(n)
                # and runs in C, cheaper than heapq.merge's generator.
                waiting += risers
                waiting.sort()
    changed = [j for j in range(n) if grants_l[j]]
    if not changed:
        return  # nothing granted: columns untouched
    hs_ch = hs_np[changed]
    conns.conn_extra[hs_ch] = [ce_l[j] for j in changed]
    conns.level[hs_ch] = [cur_l[j] for j in changed]
    cid_py = conns.cid_py
    if afters is None:
        for j in changed:
            granted[cid_py[hs_list[j]]] = grants_l[j]
    else:
        for j in changed:
            cid = cid_py[hs_list[j]]
            granted[cid] = grants_l[j]
            afters[cid] = cur_l[j]


def _fill_by_priority_soa(
    links: LinkTable,
    conns: ConnectionTable,
    hs_list: List[int],
    policy: AdaptationPolicy,
    granted: Dict[int, int],
    afters: Optional[Dict[int, int]] = None,
) -> None:
    """Generic heap fill for arbitrary priority rules (scalar columns).

    Pop order is a total order on ``(priority, cid)`` — identical to the
    reference's heap — and every grant applies the same float ops to
    the same columns, so the result is bitwise equal by construction.
    """
    priority = policy.priority
    extra = links.primary_extra
    spare_base = links.spare_base
    level_col = conns.level
    maxl_py = conns.maxl_py
    levels = level_col[np.fromiter(hs_list, np.int64, len(hs_list))].tolist()
    heap: List[Tuple[Tuple, int, int, List[int]]] = []
    for h, level in zip(hs_list, levels):
        if level >= maxl_py[h]:
            continue
        cid = conns.cid_py[h]
        qos = conns.qos[h]
        assert qos is not None
        heap.append((priority(cid, level, qos.performance), cid, h, conns.path[h]))
    heapq.heapify(heap)
    while heap:
        _, cid, h, path = heapq.heappop(heap)
        level = int(level_col[h])
        max_level = maxl_py[h]
        if level >= max_level:
            continue
        threshold = conns.thr_py[h]
        raisable = True
        for li in path:
            if spare_base[li] - extra[li] < threshold:
                raisable = False
                break
        if not raisable:
            continue
        delta = conns.delta_py[h]
        for li in path:
            extra[li] += delta
        conns.conn_extra[h] += delta
        level += 1
        level_col[h] = level
        granted[cid] = granted.get(cid, 0) + 1
        if afters is not None:
            afters[cid] = level
        if level < max_level:
            qos = conns.qos[h]
            assert qos is not None
            heapq.heappush(
                heap, (priority(cid, level, qos.performance), cid, h, path)
            )


def drop_to_minimum_soa(
    links: LinkTable, conns: ConnectionTable, h: int
) -> Tuple[int, Sequence[int]]:
    """Reclaim handle ``h``'s extras on its whole path and zero its level.

    Returns ``(previous_level, dense indices where bandwidth was
    freed)`` — the redistribution frontier.  Extras are uniform along a
    path, so the frontier is all-or-nothing.
    """
    previous = int(conns.level[h])
    if previous == 0:
        return 0, ()
    freed = float(conns.conn_extra[h])
    path = conns.path[h]
    if freed:
        links.reclaim_extras(path, freed)
        conns.conn_extra[h] = 0.0
    conns.level[h] = 0
    if freed > EPSILON:
        return previous, path
    return previous, ()


def is_maximal_soa(links: LinkTable, conns: ConnectionTable, hs: Iterable[int]) -> bool:
    """Whether no handle in ``hs`` could still be raised (test oracle)."""
    spare = links.spare_for_extras()
    for h in hs:
        if conns.level[h] >= conns.maxl_py[h]:
            continue
        threshold = conns.thr_py[h]
        if all(spare[li] >= threshold for li in conns.path[h]):
            return False
    return True
