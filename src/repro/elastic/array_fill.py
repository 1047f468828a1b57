"""Vectorized water-filling over struct-of-arrays state.

Production twin of :func:`repro.reference.fill`: the same
increment-granular water-fill, rewritten as whole-wave sweeps over the
:class:`~repro.network.link_table.LinkTable` /
:class:`~repro.channels.conn_table.ConnectionTable` columns instead of
per-connection Python iteration.

Bitwise contract.  Under equal share the reference's fill (priority
``(level, cid)``) processes level "waves" over cid-sorted buckets;
each member, at its turn, is granted one increment iff every link of
its path still has spare ≥ its threshold.  This module performs the
*same grants in the same order*:

* a wave's members are gathered in ascending conn-id order, and their
  per-link spare is the exact left-to-right expression of the
  reference (``capacity - min - activated - extra``), evaluated
  elementwise;
* members failing the wave-entry spare test are dropped permanently —
  spares only shrink inside a round, so they would fail at their turn
  in the sequential fill too;
* the surviving set is granted **in one shot** only when a conservative
  contention analysis proves the sequential fill would have granted all
  of them: for every touched link, ``spare - total demand + Δ_min ≥
  thr_max`` (each member at its turn sees at least ``spare - (demand -
  its own Δ)``, which the condition bounds below by its threshold).
  The grant uses ``np.add.at`` — unbuffered, applied in array order —
  so each link's extra total accumulates member contributions in conn-id
  order, the reference's exact float trajectory;
* waves whose contention analysis fails fall back to sequential scalar
  processing of that whole wave (identical arithmetic, just slower) —
  correctness never depends on the fast path applying.

The one-shot/sequential equivalence argument is exact in real
arithmetic and in float64 on the paper's dyadic bandwidth grid
(multiples of 50 Kb/s, where every partial sum is exact); arbitrary
off-grid bandwidths fall back more often but stay bitwise equal because
the fallback *is* the sequential fill.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.elastic.policies import AdaptationPolicy, EqualShare
from repro.network.link_table import LinkTable
from repro.units import EPSILON

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle at runtime
    from repro.channels.conn_table import ConnectionTable

__all__ = ["redistribute_soa", "drop_to_minimum_soa", "is_maximal_soa"]

#: Shared placeholder for inactive members' path slices in the scalar
#: tail — never iterated, avoids allocating a list per dead slot.
_EMPTY_PATH: List[int] = []

#: Candidate count above which an equal-share fill skips the vectorized
#: machinery entirely and runs the scalar fill over Python mirrors.
#: Purely a constant-factor routing threshold (the scalar fill is the
#: exact sequential fill): large fields are post-reclaim refills whose
#: contention probe virtually always fails, so the ragged gathers and
#: demand build-up are wasted work there.
_TAIL_DIRECT_THRESHOLD = 32


def _gather(conns: ConnectionTable, hs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated dense link indices of ``hs``'s primary paths.

    Returns ``(flat indices, wave start offsets)``; member ``j`` owns
    ``flat[starts[j] : starts[j] + len_j]``.  Pure index arithmetic (the
    ``cumsum``/``repeat`` ragged-gather idiom) — no Python loop.
    """
    st = conns.prim_start[hs]
    ln = conns.prim_len[hs]
    ends = np.cumsum(ln)
    starts = ends - ln
    total = int(ends[-1])
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(st - starts, ln)
    return conns.links_arena.data[flat], starts


def redistribute_soa(
    links: LinkTable,
    conns: ConnectionTable,
    handles: Union[np.ndarray, List[int]],
    policy: AdaptationPolicy,
    afters: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Water-fill spare capacity into the candidate handles.

    Args:
        links: Link columns (mutated: extras are granted).
        conns: Connection columns (mutated: levels rise).
        handles: Candidate handles, **sorted by conn id** — only these
            may rise (the caller collects every channel touching a link
            whose spare changed).  A plain list is accepted so hot
            callers can skip materializing an array the scalar fill
            would never use.
        policy: Adaptation policy ranking the competitors.
        afters: When given, filled with ``conn_id -> post-fill level``
            for every channel that rose (spares the caller a column
            gather per event).

    Returns:
        ``conn_id -> increments granted`` for every channel that rose.
    """
    n = len(handles)
    if not n:
        return {}
    granted: Dict[int, int] = {}
    if type(policy) is EqualShare:
        # The equal-share fill folds the saturation test (level <
        # max_level) into its candidate cull — no pre-filter pass.
        if n >= _TAIL_DIRECT_THRESHOLD:
            # Crowding shortcut: a large candidate field means the event
            # just reclaimed or released a saturated neighbourhood, and
            # the vectorized contention probe is all but certain to fail
            # there — skip every ragged gather and run the exact
            # sequential fill over the Python mirrors directly.
            hs_list = handles.tolist() if isinstance(handles, np.ndarray) else handles
            _python_fill(links, conns, hs_list, granted, afters)
        else:
            hs = (
                handles
                if isinstance(handles, np.ndarray)
                else np.fromiter(handles, np.int64, n)
            )
            _fill_equal_share_soa(links, conns, hs, granted, afters)
    else:
        hs = (
            handles
            if isinstance(handles, np.ndarray)
            else np.fromiter(handles, np.int64, n)
        )
        keep = conns.level[hs] < conns.max_level[hs]
        if not keep.any():
            return {}
        _fill_by_priority_soa(links, conns, hs[keep], policy, granted, afters)
    return granted


def _fill_equal_share_soa(
    links: LinkTable,
    conns: ConnectionTable,
    hs: np.ndarray,
    granted: Dict[int, int],
    afters: Optional[Dict[int, int]] = None,
) -> None:
    """Heap-free wave fill under the equal-share priority ``(level, cid)``.

    The candidate paths are gathered into one flat index array **once**;
    each wave then works on boolean-mask slices of that arena view.
    Candidates stay in cid order throughout, so wave membership masks
    never need sorting and every per-link accumulation is in cid order.
    """
    ncand = len(hs)
    flat_all, starts_all = _gather(conns, hs)
    lens = conns.prim_len[hs]
    thr_all = conns.threshold[hs]
    delta_all = conns.increment[hs]
    maxl = conns.max_level[hs]
    cur = conns.level[hs].copy()
    grants = np.zeros(ncand, dtype=np.int64)
    extra = links.primary_extra
    cap = links.capacity
    pmin = links.primary_min
    act = links.activated
    nlinks = len(links)
    # Upfront hopeless-candidate cull: extras are only ever *added*
    # during a fill, so path spares are monotonically non-increasing —
    # a member that cannot pass the spare test now never can.  Most
    # candidates in a saturated network die here, in a handful of
    # whole-array ops, before any wave machinery runs.  (Bitwise-safe:
    # a culled member would never have granted, so no float op moves.)
    # The materialized ``spare`` column is the same left-to-right
    # expression per cell, so one gather replaces four.
    links.refresh_aggregates()
    spare0 = links.spare[flat_all]
    active = (cur < maxl) & (np.minimum.reduceat(spare0, starts_all) >= thr_all)
    if not active.any():
        return
    # Global first-round contention probe.  If granting *every* active
    # member one increment keeps every touched link above the strictest
    # threshold, then so does any per-level subset of them (a subset
    # demands less and its ``thr_max``/``Δ_min`` bounds are no tighter),
    # and the vectorized wave loop below starts clean.  Otherwise the
    # sequential order matters from the first wave on — skip the wave
    # machinery entirely and run the exact member-by-member fill.
    act_idx = np.flatnonzero(active)
    occ_act = np.repeat(active, lens)
    flat_act = flat_all[occ_act]
    demand_rep0 = np.repeat(delta_all[act_idx], lens[act_idx])
    demand0 = np.zeros(nlinks, dtype=np.float64)
    np.add.at(demand0, flat_act, demand_rep0)
    probe = (
        spare0[occ_act] - demand0[flat_act] + delta_all[act_idx].min()
        < thr_all[act_idx].max()
    )
    if bool(probe.any()):
        _python_tail(
            links, conns, hs, flat_all, lens, thr_all, delta_all,
            maxl, cur, grants, active,
        )
    else:
        # The wave loop mutates ``primary_extra`` via unbuffered bulk
        # adds; flag the materialized aggregates stale up front
        # (spuriously when every wave dies at entry, which costs one
        # cheap recompute later).
        links.mark_aggregates_dirty()
        while True:
            if not active.any():
                break
            level = int(cur[active].min())
            sel = active & (cur == level)
            sel_idx = np.flatnonzero(sel)
            occ = np.repeat(sel, lens)
            flat = flat_all[occ]
            spare = cap[flat] - pmin[flat] - act[flat] - extra[flat]
            lens_sel = lens[sel_idx]
            seg_starts = np.cumsum(lens_sel) - lens_sel
            passed = np.minimum.reduceat(spare, seg_starts) >= thr_all[sel_idx]
            # Wave-entry failers leave the rotation permanently: spares
            # only shrink within a fill, so they would fail at their
            # turn in the sequential fill too.
            active[sel_idx[~passed]] = False
            if not passed.any():
                continue
            ok_idx = sel_idx[passed]
            if passed.all():
                flat_ok, spare_ok = flat, spare
            else:
                occ_ok = np.repeat(passed, lens_sel)
                flat_ok, spare_ok = flat[occ_ok], spare[occ_ok]
            delta_ok = delta_all[ok_idx]
            thr_max = thr_all[ok_idx].max()
            delta_min = delta_ok.min()
            demand_rep = np.repeat(delta_ok, lens[ok_idx])
            demand = np.zeros(nlinks, dtype=np.float64)
            np.add.at(demand, flat_ok, demand_rep)
            demand_at = demand[flat_ok]
            contended = spare_ok - demand_at + delta_min < thr_max
            if contended.any():
                # Contention: from here on the sequential order matters,
                # so finish the whole fill member-by-member in plain
                # Python — identical IEEE arithmetic, far cheaper per
                # scalar op than NumPy indexing.
                _python_tail(
                    links, conns, hs, flat_all, lens, thr_all, delta_all,
                    maxl, cur, grants, active,
                )
                break
            # Provably contention-free.  Grant k whole rounds at once:
            # k is bounded by every member's remaining headroom, by the
            # gap to the next populated level (so wave merge order — the
            # reference's grant order — is preserved), and by each
            # link's room for k rounds of the wave's demand (round j is
            # safe iff ``spare - j*demand + Δ_min ≥ thr_max``; worst at
            # j = k, and that bound also implies every member re-passes
            # the round-entry spare test).
            k = int((maxl[ok_idx] - level).min())
            ahead = active & (cur > level)
            if ahead.any():
                k = min(k, int(cur[ahead].min()) - level)
            if k > 1:
                room = spare_ok + delta_min - thr_max
                k = max(1, min(k, int((room / demand_at).min())))
                while k > 1 and bool(
                    (spare_ok - k * demand_at + delta_min < thr_max).any()
                ):
                    k -= 1  # float-division edge: back off conservatively
            # Each round is its own unbuffered add: per-link
            # accumulation order = cid order within the round, rounds in
            # sequence — the reference's exact float trajectory.
            hs_ok = hs[ok_idx]
            for _round in range(k):
                np.add.at(extra, flat_ok, demand_rep)
                conns.conn_extra[hs_ok] += delta_ok
            conns.level[hs_ok] += k
            grants[ok_idx] += k
            cur[ok_idx] += k
            active[ok_idx[cur[ok_idx] >= maxl[ok_idx]]] = False
    rose = np.flatnonzero(grants)
    if len(rose):
        hs_rose = hs[rose]
        cids = conns.conn_id[hs_rose].tolist()
        for cid, count in zip(cids, grants[rose].tolist()):
            granted[cid] = count
        if afters is not None:
            # ``conns.level`` is current on every exit path (the wave
            # loop scatters per round, the scalar tail writes back).
            for cid, lvl in zip(cids, conns.level[hs_rose].tolist()):
                afters[cid] = lvl


def _python_fill(
    links: LinkTable,
    conns: ConnectionTable,
    hs_list: List[int],
    granted: Dict[int, int],
    afters: Optional[Dict[int, int]],
) -> None:
    """Run a whole equal-share fill member-by-member over Python mirrors.

    The scalar twin of the wave machinery for crowded candidate fields:
    per-member thresholds, increments, level caps, and paths come from
    the :class:`ConnectionTable` Python mirrors (immutable per
    allocation, no gather needed); only the mutable state — levels,
    accumulated extras, link columns — is snapshotted per fill.  Probe
    and grant arithmetic is the reference's exact expression order
    over IEEE doubles, so the trajectory is bitwise identical.

    The upfront min-spare cull of the vectorized path is deliberately
    absent: a member it would cull simply fails its first in-bucket
    probe here (spares only shrink within a fill), granting nothing —
    same grants, same floats, no ragged reduction.
    """
    n = len(hs_list)
    hs_np = np.fromiter(hs_list, np.int64, n)
    cur_l = conns.level[hs_np].tolist()
    ce_l = conns.conn_extra[hs_np].tolist()
    maxl_py = conns.maxl_py
    thr_py = conns.thr_py
    delta_py = conns.delta_py
    path_py = conns.path_py
    spare_base = (links.capacity - links.primary_min - links.activated).tolist()
    extra_py = links.primary_extra.tolist()
    grants_l = [0] * n
    # Index j ascends in cid order, so appending risers in turn order
    # keeps each bucket cid-sorted, and merging two buckets is a plain
    # sorted-int merge.
    buckets: Dict[int, List[int]] = {}
    for j, h in enumerate(hs_list):
        if cur_l[j] < maxl_py[h]:
            buckets.setdefault(cur_l[j], []).append(j)
    while buckets:
        level = min(buckets)
        members = buckets.pop(level)
        risers: List[int] = []
        for j in members:
            h = hs_list[j]
            thr = thr_py[h]
            path = path_py[h]
            for li in path:
                if spare_base[li] - extra_py[li] < thr:
                    break
            else:
                delta = delta_py[h]
                for li in path:
                    extra_py[li] += delta
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
        return  # nothing granted: columns untouched, aggregates clean
    links.primary_extra[:] = extra_py
    links.mark_aggregates_dirty()
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


def _python_tail(
    links: LinkTable,
    conns: ConnectionTable,
    hs: np.ndarray,
    flat_all: np.ndarray,
    lens: np.ndarray,
    thr_all: np.ndarray,
    delta_all: np.ndarray,
    maxl: np.ndarray,
    cur: np.ndarray,
    grants: np.ndarray,
    active: np.ndarray,
) -> None:
    """Finish a fill member-by-member once contention is detected.

    Sequential grant order now matters, and for wave sizes in the tens,
    plain-Python float arithmetic over list snapshots is an order of
    magnitude cheaper per operation than NumPy scalar indexing.  Python
    floats *are* IEEE doubles, and the ops below mirror the
    reference's expression order exactly, so the trajectory stays bitwise
    identical.  Only ``primary_extra`` mutates during a fill, so the
    other link columns are snapshotted once as the combined base
    ``capacity - primary_min - activated`` (same left-to-right
    association as the reference's spare expression).
    """
    n = len(hs)
    spare_base = (links.capacity - links.primary_min - links.activated).tolist()
    extra_py = links.primary_extra.tolist()
    flat_list = flat_all.tolist()
    ends = np.cumsum(lens)
    ends_l = ends.tolist()
    offs_l = (ends - lens).tolist()
    thr_l = thr_all.tolist()
    delta_l = delta_all.tolist()
    maxl_l = maxl.tolist()
    cur_l = cur.tolist()
    ce_l = conns.conn_extra[hs].tolist()
    grants0 = grants.tolist()
    grants_l = grants0.copy()
    # Index i ascends in cid order, so appending risers in turn order
    # keeps each bucket cid-sorted, and merging two buckets is a plain
    # sorted-int merge.  Per-member path slices are cut once and reused
    # across every level the member climbs.
    paths: List[List[int]] = [_EMPTY_PATH] * n
    buckets: Dict[int, List[int]] = {}
    for i, alive in enumerate(active.tolist()):
        if alive:
            paths[i] = flat_list[offs_l[i] : ends_l[i]]
            buckets.setdefault(cur_l[i], []).append(i)
    while buckets:
        level = min(buckets)
        members = buckets.pop(level)
        risers: List[int] = []
        for i in members:
            thr = thr_l[i]
            path = paths[i]
            for li in path:
                if spare_base[li] - extra_py[li] < thr:
                    break
            else:
                delta = delta_l[i]
                for li in path:
                    extra_py[li] += delta
                ce_l[i] += delta
                grants_l[i] += 1
                cur_l[i] += 1
                if cur_l[i] < maxl_l[i]:
                    risers.append(i)
        if risers:
            waiting = buckets.get(level + 1)
            if waiting is None:
                buckets[level + 1] = risers
            else:
                # Two sorted runs: timsort's galloping merge is O(n)
                # and runs in C, cheaper than heapq.merge's generator.
                waiting += risers
                waiting.sort()
    changed = [i for i in range(n) if grants_l[i] > grants0[i]]
    if changed:
        # Write-back only when the tail granted something: otherwise the
        # columns are untouched (any wave grants were scattered as they
        # happened) and the aggregates need no new staleness flag.
        links.primary_extra[:] = extra_py
        links.mark_aggregates_dirty()
        hs_ch = hs[changed]
        conns.conn_extra[hs_ch] = [ce_l[i] for i in changed]
        conns.level[hs_ch] = [cur_l[i] for i in changed]
        grants[changed] = [grants_l[i] for i in changed]


def _fill_by_priority_soa(
    links: LinkTable,
    conns: ConnectionTable,
    hs: np.ndarray,
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
    links.mark_aggregates_dirty()
    extra = links.primary_extra
    cap = links.capacity
    pmin = links.primary_min
    act = links.activated
    level_col = conns.level
    heap: List[Tuple[Tuple, int, int, List[int]]] = []
    for h in hs.tolist():
        cid = int(conns.conn_id[h])
        qos = conns.qos[h]
        assert qos is not None
        path = conns.prim_slice(h).tolist()
        heap.append((priority(cid, int(level_col[h]), qos.performance), cid, h, path))
    heapq.heapify(heap)
    while heap:
        _, cid, h, path = heapq.heappop(heap)
        level = int(level_col[h])
        max_level = int(conns.max_level[h])
        if level >= max_level:
            continue
        threshold = conns.threshold[h]
        raisable = True
        for li in path:
            if cap[li] - pmin[li] - act[li] - extra[li] < threshold:
                raisable = False
                break
        if not raisable:
            continue
        delta = conns.increment[h]
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
) -> Tuple[int, np.ndarray]:
    """Reclaim handle ``h``'s extras on its whole path and zero its level.

    Returns ``(previous_level, dense indices where bandwidth was
    freed)`` — the redistribution frontier.  Extras are uniform along a
    path, so the frontier is all-or-nothing.
    """
    previous = int(conns.level[h])
    if previous == 0:
        return 0, _EMPTY_IDX
    freed = conns.conn_extra[h]
    path = conns.prim_slice(h)
    if freed:
        extra = links.primary_extra
        for li in path:
            extra[li] -= freed
        links.refresh_cells(path)
        conns.conn_extra[h] = 0.0
    conns.level[h] = 0
    if freed > EPSILON:
        return previous, path
    return previous, _EMPTY_IDX


_EMPTY_IDX = np.zeros(0, dtype=np.int64)


def is_maximal_soa(links: LinkTable, conns: ConnectionTable, hs: np.ndarray) -> bool:
    """Whether no handle in ``hs`` could still be raised (test oracle)."""
    spare = links.spare_for_extras()
    for h in hs.tolist():
        if conns.level[h] >= conns.max_level[h]:
            continue
        threshold = conns.threshold[h]
        if all(spare[li] >= threshold for li in conns.prim_slice(h)):
            return False
    return True
