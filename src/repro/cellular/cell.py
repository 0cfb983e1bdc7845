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
scheduler: per-UE state lives in flat lists and numpy arrays, each
cell keeps a roster of its members, and every member's PRB share is
kept current by re-running :func:`allocate_prbs_array` (the
array-wise twin of :func:`allocate_prbs`) on a cell only when its
membership or a member's request changed. A fleet's tick batch moves
all its members through one tick with :meth:`CellContention.tick_shares`;
the per-UE ``attach``/``update_rates``/``shares`` calls are its
reference. The golden fleet digests in
``tests/golden/fingerprints.json`` pin its output.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
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


def request_prbs_array(
    demand_bps: np.ndarray, unc_bps: np.ndarray, budget
) -> np.ndarray:
    """Array-wise :func:`_request_prbs`, equal element for element.

    ``budget`` broadcasts against the rate arrays (a column of per-
    direction budgets for ``(2, n)`` inputs). The quotient is the same
    two correctly rounded operations as the scalar one and ``np.ceil``
    is exact, so the requests agree wherever the scalar is defined.
    """
    full = np.isnan(demand_bps) | (unc_bps <= 0.0)
    needed = np.ceil(demand_bps * budget / np.where(full, 1.0, unc_bps))
    clamped = np.maximum(np.minimum(needed, budget), 1)
    return np.where(full, budget, clamped).astype(np.int64)


@lru_cache(maxsize=1024)
def _split(requests: tuple[int, ...], budget: int) -> tuple[float, ...]:
    """Each requester's share of ``budget`` (:func:`allocate_prbs_array`).

    Memoized: a cell's request vector keeps returning to the same few
    states (a full-buffer direction's only changes with the member
    count), and the split is a pure function of it.
    """
    allocation = allocate_prbs_array(np.array(requests), budget).tolist()
    return tuple([prbs / budget for prbs in allocation])


class CellContention:
    """Shared-cell PRB scheduler, admission gate and CIO source.

    One instance is shared by every :class:`CellularChannel` of a
    fleet. Per UE, ``register`` once, ``attach`` whenever the serving
    cell changes, ``update_rates`` each measurement tick and read back
    the PRB ``shares``; the handover engine consumes :meth:`offsets`
    (load-balancing CIO added to the A3 margin) and
    :meth:`blocked_cells` (admission control). A fleet's tick batch
    does the same for all its rows at once through :meth:`count_move`
    and :meth:`tick_shares`, with the per-UE calls as the reference
    the batch is tested against.

    Struct-of-arrays layout: every registered UE owns a slot in flat
    per-slot state (serving cell, demands, PRB requests, granted
    shares); each cell keeps a roster of its members' slots in UE-id
    order and per-cell occupancy counts; the load-balancing offsets
    refresh as one vectorized expression. Shares are kept current:
    whenever a cell's membership or a member's request changes, that
    cell's budget is re-split (:func:`allocate_prbs_array`) and every
    member's share rewritten, so a share query is one list lookup.
    Admission blocks are cached per UE and invalidated by a topology
    version that bumps on every membership change. ``blocked_cells``
    lists cells in ascending id order; consumers only mask them to
    ``-inf``. A separate ranking version bumps only when a move
    changes the offsets or the at-cap set, the two things A3 ranking
    reads.
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
        # Scalar per-slot state lives in plain Python lists (read and
        # written one UE at a time); the demands and requests the tick
        # batch gathers across rows are also kept as ``(2, cap)``
        # arrays (rows: UL, DL).
        self._cells: list[int] = []  #: serving cell per slot (-1 = none)
        self._dem_ul: list[float] = []  #: NaN = full-buffer
        self._dem_dl: list[float] = []
        self._dem = np.zeros((2, 16))
        self._req = np.zeros((2, 16), dtype=np.int64)
        self._req_ul: list[int] = []
        self._req_dl: list[int] = []
        self._share_ul: list[float] = []
        self._share_dl: list[float] = []
        self._budget_ul = self.config.num_prb_ul
        self._budget_dl = self.config.num_prb_dl
        self._budgets = np.array([[self._budget_ul], [self._budget_dl]])
        self._counts = np.zeros(num_cells, dtype=np.int64)
        self._counts_py: list[int] = [0] * num_cells
        #: Member slots of each cell, ascending by UE id.
        self._rosters: list[list[int]] = [[] for _ in range(num_cells)]
        self._offsets = np.zeros(num_cells)
        #: Cells currently at the admission cap (ascending cell ids).
        self._at_cap: np.ndarray = np.zeros(0, dtype=np.int64)
        #: Bumped on every membership change; invalidates the per-UE
        #: blocked caches.
        self._topo_version = 0
        #: Bumped only by a move that changes what A3 ranking reads:
        #: an offset value (``np.array_equal``, so 0.0 and -0.0 are
        #: equal) or the set of cells at the cap. Stamps the tick
        #: batch's fleet-wide A3 hint.
        self._rank_version = 0
        self._blocked_cache: dict[int, tuple[int, tuple[int, ...]]] = {}
        #: Highest concurrent attachment count ever seen per cell.
        self.peak_attached: dict[int, int] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
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
        if slot >= self._req.shape[1]:
            self._dem = np.concatenate([self._dem, np.zeros_like(self._dem)], 1)
            self._req = np.concatenate([self._req, np.zeros_like(self._req)], 1)
        dem_ul = math.nan if demand_ul_bps is None else demand_ul_bps
        dem_dl = math.nan if demand_dl_bps is None else demand_dl_bps
        self._slots[ue_id] = slot
        self._ids.append(ue_id)
        self._cells.append(-1)
        self._dem_ul.append(dem_ul)
        self._dem_dl.append(dem_dl)
        self._dem[:, slot] = (dem_ul, dem_dl)
        # Uncontended rate starts at 0 -> full-budget requests until
        # the first rate update.
        self._req[:, slot] = (self._budget_ul, self._budget_dl)
        self._req_ul.append(self._budget_ul)
        self._req_dl.append(self._budget_dl)
        self._share_ul.append(1.0)
        self._share_dl.append(1.0)

    def attach(self, ue_id: int, cell: int) -> None:
        """Move ``ue_id`` onto ``cell`` (no-op if already attached)."""
        slot = self._slots[ue_id]
        old = self._cells[slot]
        if old == cell:
            return
        if not 0 <= cell < self.num_cells:
            raise ValueError(f"cell {cell} out of range")
        self.count_move(old, cell)
        self._member_move(slot, cell)
        if old >= 0:
            self._reallocate(old, True, True)
        self._reallocate(cell, True, True)

    def count_move(self, old: int, cell: int) -> None:
        """The ranking half of a move from ``old`` (-1: none) to ``cell``.

        Updates what A3 ranking and admission read — occupancy counts,
        peaks, offsets, the at-cap set and the ranking version — but
        not the membership the shares are split over
        (:meth:`_member_move`). :meth:`attach` runs both halves; a tick
        batch runs this one at the row's A3 step, so later rows rank
        against it, and the other at the row's turn in
        :meth:`tick_shares`.
        """
        counts = self._counts
        if old >= 0:
            counts[old] -= 1
            self._counts_py[old] -= 1
        counts[cell] += 1
        count = self._counts_py[cell] + 1
        self._counts_py[cell] = count
        if count > self.peak_attached.get(cell, 0):
            self.peak_attached[cell] = count
        at_cap = np.flatnonzero(counts >= self.config.max_sessions)
        if self._refresh_offsets() or not np.array_equal(at_cap, self._at_cap):
            self._rank_version += 1
        self._at_cap = at_cap
        self._topo_version += 1

    def _member_move(self, slot: int, cell: int) -> None:
        """The membership half of a move: rosters and the slot's cell."""
        old = self._cells[slot]
        if old >= 0:
            self._rosters[old].remove(slot)
        self._cells[slot] = cell
        bisect.insort(self._rosters[cell], slot, key=self._ids.__getitem__)
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
        The result is constant between moves, so it is cached per UE
        against the topology version.
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

        Re-sizes this UE's PRB requests and, when one moved, re-splits
        its cell: co-members that already reported this tick hold
        fresh requests and the rest last tick's, which is the mid-tick
        state a ``shares`` query must see.
        """
        slot = self._slots[ue_id]
        req_ul = _request_prbs(self._dem_ul[slot], unc_ul_bps, self._budget_ul)
        req_dl = _request_prbs(self._dem_dl[slot], unc_dl_bps, self._budget_dl)
        ul = req_ul != self._req_ul[slot]
        dl = req_dl != self._req_dl[slot]
        if ul or dl:
            self._set_request(slot, req_ul, req_dl)
            if self._cells[slot] >= 0:
                self._reallocate(self._cells[slot], ul, dl)

    def _set_request(self, slot: int, req_ul: int, req_dl: int) -> None:
        self._req_ul[slot] = req_ul
        self._req_dl[slot] = req_dl
        self._req[:, slot] = (req_ul, req_dl)

    def _reallocate(self, cell: int, ul: bool, dl: bool) -> None:
        """Re-split ``cell``'s budgets over its members' current requests.

        A sole occupant is granted exactly ``1.0`` in both directions
        (bit-identity with the uncontended path).
        """
        roster = self._rosters[cell]
        if len(roster) == 1:
            self._share_ul[roster[0]] = 1.0
            self._share_dl[roster[0]] = 1.0
            return
        if not roster:
            return
        if ul:
            requests = self._req_ul
            shares = self._share_ul
            split = _split(tuple([requests[s] for s in roster]), self._budget_ul)
            for slot, share in zip(roster, split):
                shares[slot] = share
        if dl:
            requests = self._req_dl
            shares = self._share_dl
            split = _split(tuple([requests[s] for s in roster]), self._budget_dl)
            for slot, share in zip(roster, split):
                shares[slot] = share

    def shares(self, ue_id: int) -> tuple[float, float]:
        """Current (uplink, downlink) PRB share of ``ue_id`` in [0, 1].

        A sole occupant's share is exactly ``1.0`` in both directions
        (bit-identity with the uncontended path); co-attached sessions
        split each budget proportionally to their PRB requests.
        """
        slot = self._slots[ue_id]
        if self._cells[slot] < 0:
            return 1.0, 1.0
        return self._share_ul[slot], self._share_dl[slot]

    def tick_shares(
        self,
        slots: list[int],
        slot_ids: np.ndarray,
        cells: list[int],
        moved: list[int],
        unc_ul: list[float],
        unc_dl: list[float],
    ) -> tuple[list[float], list[float]]:
        """One tick's PRB shares for a batch's rows, in row order.

        Row ``i`` (slot ``slots[i]``, also as the array ``slot_ids``)
        serves from ``cells[i]`` at uncontended rates ``unc_ul[i]`` /
        ``unc_dl[i]``; ``moved`` lists the rows whose serving cell
        changed this tick, whose ranking half (:meth:`count_move`)
        already ran. Every row's requests come from one array op, and
        only a row whose request changed or that moved alters its
        cells: the batch walks those change points in row order, so
        row ``i`` sees this tick's requests for rows before it, last
        tick's for rows after it, and the memberships of rows up to
        it — exactly what ``attach`` → ``update_rates`` → ``shares``
        called row by row grant.
        """
        req = request_prbs_array(
            self._dem[:, slot_ids], np.array((unc_ul, unc_dl)), self._budgets
        )
        changed = req != self._req[:, slot_ids]
        touched = changed[0] | changed[1]
        if moved:
            touched[moved] = True
        share_ul = self._share_ul
        share_dl = self._share_dl
        if not touched.any():
            return [share_ul[s] for s in slots], [share_dl[s] for s in slots]
        req_ul, req_dl = req.tolist()
        out_ul: list[float] = []
        out_dl: list[float] = []
        start = 0
        for row in np.flatnonzero(touched).tolist():
            segment = slots[start:row]
            out_ul += [share_ul[s] for s in segment]
            out_dl += [share_dl[s] for s in segment]
            start = row
            slot = slots[row]
            cell = cells[row]
            old = self._cells[slot]
            ul = req_ul[row] != self._req_ul[slot]
            dl = req_dl[row] != self._req_dl[slot]
            if ul or dl:
                self._set_request(slot, req_ul[row], req_dl[row])
            if old != cell:
                self._member_move(slot, cell)
                if old >= 0:
                    self._reallocate(old, True, True)
                ul = dl = True
            self._reallocate(cell, ul, dl)
        segment = slots[start:]
        out_ul += [share_ul[s] for s in segment]
        out_dl += [share_dl[s] for s in segment]
        return out_ul, out_dl

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
        budget = self._budget_ul
        requests = self._req[0, self._rosters[cell]]
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
