"""PRB/load-aware shared-cell capacity model for fleet simulation.

The paper's measurement UAV had every cell to itself; a deployed RPAV
fleet does not. This module makes cells *contended*: each cell in a
layout owns a physical-resource-block (PRB) budget, attached sessions
request PRBs sized by their SINR-derived spectral efficiency (a UE in
a weak radio position needs more PRBs for the same bitrate), and a
per-tick proportional scheduler splits the budget so per-session
capacity shrinks as cells fill up.

Three mechanisms (after the ai-ran-sim ``Cell`` exemplar):

* **PRB scheduling** — :func:`allocate_prbs` is a largest-remainder
  proportional allocator; the sum of allocated PRBs never exceeds the
  cell budget, and a sole occupant always receives the whole budget
  (share exactly 1.0), which keeps an N=1 fleet bit-identical to the
  single-session path.
* **Admission control** — a cell at ``max_sessions`` rejects new
  attachments: it is excluded from initial cell selection and from A3
  handover candidates of non-attached UEs.
* **Load balancing** — crowded cells advertise a negative
  cell-individual offset (CIO) that is added to the A3 margin, so
  loaded cells become less attractive targets *and* shed attached UEs
  toward emptier neighbours.

Everything here is deterministic and RNG-free: contention state is a
pure function of the attach/update call sequence, which the shared
event loop orders deterministically.

:class:`CellContention` is the one implementation, a struct-of-arrays
scheduler: per-UE radio state lives in flat lists and numpy arrays,
membership is an ``(n_ues, n_cells)`` boolean plane, PRB requests
(and their per-cell sums) are maintained incrementally, and the
per-tick share query answers from a per-cell allocation cache that
reruns :func:`allocate_prbs_array` (the array-wise twin of
:func:`allocate_prbs`) only when a member's request or the
membership changed. The golden fleet digests in
``tests/golden/fingerprints.json`` pin its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class CellCapacityConfig:
    """Per-cell resource budget and load-management knobs.

    Attributes
    ----------
    num_prb_ul / num_prb_dl:
        PRB budget per scheduling tick in each direction (100 PRBs =
        one 20 MHz LTE carrier).
    max_sessions:
        Admission cap: attachments beyond this are rejected (the cell
        is hidden from cell selection and A3 candidates).
    lb_step_db / lb_max_db:
        Load-balancing cell-individual offset: each attached session
        beyond the first lowers the cell's advertised attractivity by
        ``lb_step_db`` dB, clamped at ``lb_max_db``.
    congestion_share:
        Uplink PRB share below which a session is considered congested
        (opens a ``cell.congestion`` trace span for attribution).
    """

    num_prb_ul: int = 100
    num_prb_dl: int = 100
    max_sessions: int = 8
    lb_step_db: float = 2.0
    lb_max_db: float = 6.0
    congestion_share: float = 0.75

    def __post_init__(self) -> None:
        if self.num_prb_ul < 1 or self.num_prb_dl < 1:
            raise ValueError("PRB budgets must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")


def allocate_prbs(requests: list[int], budget: int) -> list[int]:
    """Split ``budget`` PRBs proportionally to ``requests``.

    Largest-remainder (Hamilton) allocation: every requester receives
    ``budget * request / total`` rounded down, then the leftover PRBs
    go to the largest fractional remainders (ties broken by position,
    so the result is deterministic). The allocation always sums to
    exactly ``budget`` — spare capacity is redistributed under the
    full-buffer assumption — and a single requester receives the whole
    budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not requests:
        return []
    if any(r < 0 for r in requests):
        raise ValueError("requests must be non-negative")
    total = sum(requests)
    if total <= 0:
        return [0] * len(requests)
    quotas = [budget * r / total for r in requests]
    allocation = [int(q) for q in quotas]
    leftover = budget - sum(allocation)
    remainders = sorted(
        range(len(requests)),
        key=lambda i: (-(quotas[i] - allocation[i]), i),
    )
    for i in remainders[:leftover]:
        allocation[i] += 1
    return allocation


def allocate_prbs_array(requests: np.ndarray, budget: int) -> np.ndarray:
    """Array-wise :func:`allocate_prbs`, bit-identical to the scalar one.

    The quotient ``budget * request / total`` stays exactly equal to
    the scalar Python division for any realistic PRB budget (both
    routes convert int operands below 2**53 to float64 exactly and
    the division is correctly rounded), truncating ``astype`` matches
    ``int()`` for non-negative quotas, and the stable argsort on the
    negated remainders reproduces the scalar's ``(-remainder, index)``
    tie-break. ``tests/test_fleet.py`` asserts elementwise equality
    against the scalar allocator under large random request vectors.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    req = np.asarray(requests, dtype=np.int64)
    if req.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(req < 0):
        raise ValueError("requests must be non-negative")
    total = int(req.sum())
    if total <= 0:
        return np.zeros(req.size, dtype=np.int64)
    quotas = req * budget / total
    allocation = quotas.astype(np.int64)
    leftover = budget - int(allocation.sum())
    order = np.argsort(-(quotas - allocation), kind="stable")
    allocation[order[:leftover]] += 1
    return allocation


def _request_prbs(demand_bps: float, unc_bps: float, budget: int) -> int:
    """PRBs needed to serve ``demand_bps`` at this UE's efficiency.

    The per-PRB rate is ``unc_bps / budget`` (the full-budget rate
    spread over the budget), so a UE with poor SINR requests more PRBs
    for the same demand. Full-buffer (NaN demand) or unsatisfiable
    demands request the whole budget.
    """
    if math.isnan(demand_bps) or unc_bps <= 0.0:
        return budget
    needed = math.ceil(demand_bps * budget / unc_bps)
    return max(1, min(budget, needed))


class CellContention:
    """Shared-cell PRB scheduler, admission gate and CIO source.

    One instance is shared by every :class:`CellularChannel` of a
    fleet. Channels ``register`` once, ``attach`` whenever their
    serving cell changes, ``update_rates`` each measurement tick, and
    read back their PRB ``shares``; the handover engine consumes
    :meth:`offsets` (load-balancing CIO added to the A3 margin) and
    :meth:`blocked_cells` (admission control).

    Struct-of-arrays layout: every registered UE owns a slot in flat
    per-UE state (serving cell, uncontended rates, demands, current
    PRB requests), membership is an ``(n_ues, n_cells)`` boolean plane
    with per-cell occupancy counts, the load-balancing offsets refresh
    as one vectorized expression, and :meth:`shares` answers from a
    per-cell allocation cache keyed by a request version: the full
    largest-remainder allocation (:func:`allocate_prbs_array`) is
    recomputed only when a member's request or the membership actually
    changes, and every co-member's query in between is a dict lookup
    plus one indexed division. PRB requests and their per-cell sums
    are maintained *incrementally* — each :meth:`update_rates`
    rewrites only that UE's request (and bumps the cell's request
    version only when the request moved): when UE ``i`` asks for its
    share mid-tick, co-members that already ticked contribute fresh
    requests and the rest contribute last tick's. Admission blocks are
    cached per UE and invalidated by a topology version that bumps on
    every attach, so the per-tick blocked query costs a dict lookup
    between handovers. ``blocked_cells`` lists cells in ascending id
    order; consumers only mask them to ``-inf``. A separate ranking
    version bumps only when an attach changes the offsets or the
    at-cap set, the two things A3 ranking reads.
    """

    def __init__(
        self, num_cells: int, config: CellCapacityConfig | None = None
    ) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        self.config = config if config is not None else CellCapacityConfig()
        self.num_cells = num_cells
        self._slots: dict[int, int] = {}
        self._ids: list[int] = []
        cap = 16
        # Scalar per-UE state lives in plain Python lists (read and
        # written one UE at a time — numpy scalar indexing would cost
        # more than it saves); only the state the hot share query
        # *gathers across members* is a numpy array.
        self._cells: list[int] = []  #: serving cell per slot (-1 = none)
        self._unc_ul: list[float] = []
        self._unc_dl: list[float] = []
        self._dem_ul: list[float] = []  #: NaN = full-buffer
        self._dem_dl: list[float] = []
        #: Current PRB requests, ``(cap, 2)`` int64 (columns: UL, DL) —
        #: the share query fancy-indexes member rows in one gather —
        #: plus Python mirrors for the incremental bookkeeping.
        self._req = np.zeros((cap, 2), dtype=np.int64)
        self._req_ul_py: list[int] = []
        self._req_dl_py: list[int] = []
        self._budgets = np.array(
            [self.config.num_prb_ul, self.config.num_prb_dl], dtype=np.int64
        )
        self._member = np.zeros((cap, num_cells), dtype=bool)
        self._counts = np.zeros(num_cells, dtype=np.int64)
        self._counts_py: list[int] = [0] * num_cells
        #: Per-cell sums of the attached members' PRB requests,
        #: maintained incrementally (plain Python ints — the hot
        #: :meth:`shares` path reads them without a numpy reduction).
        self._sum_ul: list[int] = [0] * num_cells
        self._sum_dl: list[int] = [0] * num_cells
        self._offsets = np.zeros(num_cells)
        #: Cells currently at the admission cap (ascending cell ids).
        self._at_cap: np.ndarray = np.zeros(0, dtype=np.int64)
        #: Bumped on every attach; invalidates per-UE blocked caches
        #: and per-cell member rosters.
        self._topo_version = 0
        #: Bumped only by an attach that changes what A3 ranking reads:
        #: an offset value (``np.array_equal``, so 0.0 and -0.0 are
        #: equal) or the set of cells at the cap. Stamps the tick
        #: batch's fleet-wide A3 hint.
        self._rank_version = 0
        self._blocked_cache: dict[int, tuple[int, tuple[int, ...]]] = {}
        #: Per-cell ``(sorted ue ids, aligned slots)`` rosters, built
        #: lazily and dropped when the cell's membership changes.
        self._rosters: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Per-UE ``(topo version, member slots, own index)`` resolved
        #: roster positions — between handovers the share query skips
        #: the roster lookup and binary search entirely.
        self._share_cache: dict[int, tuple[int, np.ndarray, int]] = {}
        #: Per-cell request-state version: bumped whenever a member's
        #: PRB request or the cell's membership changes. Shares are a
        #: pure function of the member requests, so the per-cell
        #: allocation cache below stays valid while the version holds.
        self._req_version: list[int] = [0] * num_cells
        #: Per-cell ``(request version, ul alloc, dl alloc)`` in roster
        #: order (plain lists — the hit path indexes one element) —
        #: one largest-remainder run serves every co-member's share
        #: query until a request actually changes.
        self._alloc_cache: dict[int, tuple[int, list[int], list[int]]] = {}
        #: Highest concurrent attachment count ever seen per cell.
        self.peak_attached: dict[int, int] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        cap = len(self._req) * 2
        grown_member = np.zeros((cap, self.num_cells), dtype=bool)
        grown_member[: len(self._member)] = self._member
        self._member = grown_member
        grown_req = np.zeros((cap, 2), dtype=np.int64)
        grown_req[: len(self._req)] = self._req
        self._req = grown_req

    def register(
        self,
        ue_id: int,
        *,
        demand_ul_bps: float | None = None,
        demand_dl_bps: float | None = None,
    ) -> None:
        """Declare a session (before its first measurement tick).

        ``demand_*_bps`` size the session's PRB requests; ``None``
        means full-buffer (request the whole budget).
        """
        if ue_id in self._slots:
            raise ValueError(f"ue {ue_id} already registered")
        slot = len(self._ids)
        if slot >= len(self._req):
            self._grow()
        self._slots[ue_id] = slot
        self._ids.append(ue_id)
        self._cells.append(-1)
        self._unc_ul.append(0.0)
        self._unc_dl.append(0.0)
        self._dem_ul.append(
            math.nan if demand_ul_bps is None else demand_ul_bps
        )
        self._dem_dl.append(
            math.nan if demand_dl_bps is None else demand_dl_bps
        )
        # Uncontended rate starts at 0 -> full-budget requests until
        # the first update_rates.
        self._req[slot, 0] = self.config.num_prb_ul
        self._req[slot, 1] = self.config.num_prb_dl
        self._req_ul_py.append(self.config.num_prb_ul)
        self._req_dl_py.append(self.config.num_prb_dl)

    def attach(self, ue_id: int, cell: int) -> None:
        """Move ``ue_id`` onto ``cell`` (no-op if already attached)."""
        slot = self._slots[ue_id]
        old = self._cells[slot]
        if old == cell:
            return
        if not 0 <= cell < self.num_cells:
            raise ValueError(f"cell {cell} out of range")
        req_ul = self._req_ul_py[slot]
        req_dl = self._req_dl_py[slot]
        if old >= 0:
            self._member[slot, old] = False
            self._counts[old] -= 1
            self._counts_py[old] -= 1
            self._sum_ul[old] -= req_ul
            self._sum_dl[old] -= req_dl
            self._rosters.pop(old, None)
            self._req_version[old] += 1
        self._cells[slot] = cell
        self._member[slot, cell] = True
        self._counts[cell] += 1
        count = self._counts_py[cell] + 1
        self._counts_py[cell] = count
        self._sum_ul[cell] += req_ul
        self._sum_dl[cell] += req_dl
        self._rosters.pop(cell, None)
        self._req_version[cell] += 1
        if count > self.peak_attached.get(cell, 0):
            self.peak_attached[cell] = count
        at_cap = np.nonzero(
            self._counts >= self.config.max_sessions
        )[0].astype(np.int64)
        if self._refresh_offsets() or not np.array_equal(at_cap, self._at_cap):
            self._rank_version += 1
        self._at_cap = at_cap
        self._topo_version += 1

    def attached_count(self, cell: int) -> int:
        """Sessions currently attached to ``cell``."""
        if not 0 <= cell < self.num_cells:
            return 0
        return self._counts_py[cell]

    def _refresh_offsets(self) -> bool:
        """Recompute the CIO vector in place; ``True`` if a value changed."""
        config = self.config
        extra = self._counts - 1
        offsets = np.where(
            extra > 0,
            -np.minimum(config.lb_max_db, config.lb_step_db * extra),
            0.0,
        )
        changed = not np.array_equal(offsets, self._offsets)
        self._offsets[:] = offsets
        return changed

    def _roster(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted ue ids, aligned slots)`` of one cell's members."""
        roster = self._rosters.get(cell)
        if roster is None:
            slots = np.nonzero(self._member[:, cell])[0]
            ids = np.fromiter(
                (self._ids[s] for s in slots),
                dtype=np.int64,
                count=len(slots),
            )
            order = np.argsort(ids, kind="stable")
            roster = (ids[order], slots[order])
            self._rosters[cell] = roster
        return roster

    # ------------------------------------------------------------------
    # handover inputs
    # ------------------------------------------------------------------
    def offsets(self) -> np.ndarray:
        """Per-cell CIO vector (dB) added to A3 measurements.

        All zeros while no cell holds more than one session, so a
        single-session fleet evaluates the exact same A3 margins as
        the uncontended path.
        """
        return self._offsets

    def blocked_cells(self, ue_id: int) -> tuple[int, ...]:
        """Cells ``ue_id`` may not enter (admission control).

        A cell is blocked when it is at ``max_sessions`` and the UE is
        not one of them; the UE's own serving cell is never blocked.
        The result is constant between attaches, so it is cached per
        UE against the topology version.
        """
        if self._at_cap.size == 0:
            return ()
        slot = self._slots.get(ue_id)
        if slot is None:
            return tuple(int(c) for c in self._at_cap)
        cached = self._blocked_cache.get(slot)
        if cached is not None and cached[0] == self._topo_version:
            return cached[1]
        own = self._cells[slot]
        blocked = tuple(int(c) for c in self._at_cap if c != own)
        self._blocked_cache[slot] = (self._topo_version, blocked)
        return blocked

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def update_rates(
        self, ue_id: int, unc_ul_bps: float, unc_dl_bps: float
    ) -> None:
        """Report a session's uncontended (full-budget) link rates.

        Also refreshes this UE's PRB requests in place — the request
        planes are therefore always current *for the UEs that already
        ticked*, which is the mid-tick state a ``shares`` query must
        see.
        """
        slot = self._slots[ue_id]
        self._unc_ul[slot] = unc_ul_bps
        self._unc_dl[slot] = unc_dl_bps
        config = self.config
        req_ul = _request_prbs(
            self._dem_ul[slot], unc_ul_bps, config.num_prb_ul
        )
        req_dl = _request_prbs(
            self._dem_dl[slot], unc_dl_bps, config.num_prb_dl
        )
        old_ul = self._req_ul_py[slot]
        old_dl = self._req_dl_py[slot]
        if req_ul == old_ul and req_dl == old_dl:
            return
        cell = self._cells[slot]
        if cell >= 0:
            self._sum_ul[cell] += req_ul - old_ul
            self._sum_dl[cell] += req_dl - old_dl
            self._req_version[cell] += 1
        self._req_ul_py[slot] = req_ul
        self._req_dl_py[slot] = req_dl
        self._req[slot, 0] = req_ul
        self._req[slot, 1] = req_dl

    def shares(self, ue_id: int) -> tuple[float, float]:
        """Current (uplink, downlink) PRB share of ``ue_id`` in [0, 1].

        A sole occupant's share is exactly ``1.0`` in both directions
        (bit-identity with the uncontended path); co-attached sessions
        split each budget proportionally to their PRB requests.
        """
        slot = self._slots[ue_id]
        cell = self._cells[slot]
        if cell < 0:
            return 1.0, 1.0
        if self._counts_py[cell] == 1:
            return 1.0, 1.0
        cached = self._share_cache.get(slot)
        if cached is None or cached[0] != self._topo_version:
            ids, member_slots = self._roster(cell)
            cached = (
                self._topo_version,
                member_slots,
                int(np.searchsorted(ids, ue_id)),
            )
            self._share_cache[slot] = cached
        version = self._req_version[cell]
        alloc = self._alloc_cache.get(cell)
        config = self.config
        if alloc is None or alloc[0] != version:
            requests = self._req[cached[1]]
            alloc = (
                version,
                allocate_prbs_array(
                    requests[:, 0], config.num_prb_ul
                ).tolist(),
                allocate_prbs_array(
                    requests[:, 1], config.num_prb_dl
                ).tolist(),
            )
            self._alloc_cache[cell] = alloc
        index = cached[2]
        return (
            alloc[1][index] / config.num_prb_ul,
            alloc[2][index] / config.num_prb_dl,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def cell_load(self, cell: int) -> float:
        """Uplink PRB utilization of ``cell`` in [0, 1].

        Utilization counts PRBs that serve actual demand
        (``min(allocated, requested)``), not the full-buffer surplus,
        so a lone low-demand UE does not read as a saturated cell.
        """
        if not 0 <= cell < self.num_cells or self._counts_py[cell] == 0:
            return 0.0
        budget = self.config.num_prb_ul
        _, slots = self._roster(cell)
        requests = self._req[slots, 0]
        allocation = allocate_prbs_array(requests, budget)
        used = int(np.minimum(allocation, requests).sum())
        return used / budget

    def loads(self) -> dict[int, float]:
        """Uplink PRB utilization of every occupied cell."""
        return {
            int(cell): self.cell_load(int(cell))
            for cell in np.nonzero(self._counts)[0]
        }

    def occupancy(self) -> dict[int, int]:
        """Attached-session count of every occupied cell."""
        return {
            int(cell): int(self._counts[cell])
            for cell in np.nonzero(self._counts)[0]
        }


def fleet_demand_bps(max_bitrate: float, static_bitrate: float) -> float:
    """Uplink PRB demand hint for one video session (bits/s).

    The offered load of a session is its encoder ceiling plus
    packetization/RTP overhead — the scheduler sizes PRB requests from
    this, not from the plan cap, so well-placed UEs leave headroom for
    cell mates instead of hoarding the whole budget.
    """
    return 1.25 * max(max_bitrate, static_bitrate)


def normalize_cell_map(mapping: dict) -> dict[int, int]:
    """Coerce a cell-id-keyed count map back to ``int`` keys/values.

    A :class:`~repro.core.fleet.FleetResult`'s occupancy/peak maps
    survive the pickle result cache unchanged, but any JSON round-trip
    (report exports, history artifacts, hand-rolled caches) stringifies
    the int cell ids — ``{"3": 2}`` instead of ``{3: 2}`` — which then
    silently double-counts cells in :func:`merge_occupancy` merges.
    Normalizing on load makes the maps shape-stable either way.
    """
    return {int(cell): int(count) for cell, count in mapping.items()}


def merge_occupancy(maps: Iterable[dict]) -> dict[int, int]:
    """Merge per-fleet peak-occupancy maps by per-cell maximum.

    Keys are coerced through :func:`normalize_cell_map`, so maps that
    went through a JSON round-trip (string cell ids) merge correctly
    with native ones.
    """
    merged: dict[int, int] = {}
    for occupancy in maps:
        for cell, count in occupancy.items():
            cell = int(cell)
            merged[cell] = max(merged.get(cell, 0), int(count))
    return merged
