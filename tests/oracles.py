"""Independent reference implementations used to pin down the package.

Everything here recomputes results with a different algorithmic shape
than the production code: the DRAM recount works from sorted time lists
and bisect arithmetic, the incremental engine steps one event and one
ACT at a time where the package works on columns of events, the replay
trace walks one access op and one row piece at a time, the distance
metrics use exhaustive grids and subset enumeration, and the spectrum
uses the direct transform sum.  Slow on purpose.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from hammersim.dram import (
    BitFlip,
    DramConfig,
    RowContents,
    SimulationResult,
    ThresholdTable,
    TraceRateError,
    TrrConfig,
    VulnerabilityMap,
    WindowSummary,
    _bit_positions,
)
from hammersim.federation import ModelSpec
from hammersim.memlayout import (
    PAGE_BYTES,
    AccessEvent,
    AccessTrace,
    DramMapping,
    EventColumns,
    MemoryLayout,
    Region,
    physical_to_dram,
)
from hammersim.metrics import BandwidthModel


# ---------------------------------------------------------------------------
# DRAM activation recount
# ---------------------------------------------------------------------------

def expand_acts(events, mapping: DramMapping) -> list[tuple[int, int, int]]:
    """(time, bank, row) of every activation, after open-row collapsing."""
    open_row = {}
    acts = []
    for time_ns, paddr, _kind, size in events:
        addr = paddr
        remaining = size
        while remaining > 0:
            bank, row, col = physical_to_dram(addr, mapping)
            if open_row.get(bank) != row:
                open_row[bank] = row
                acts.append((time_ns, bank, row))
            take = min(remaining, mapping.row_size_bytes - col)
            addr += take
            remaining -= take
    return acts


def oracle_simulate(
    events,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig,
    vmap: VulnerabilityMap,
    contents: RowContents,
):
    """Recount windows and flips from scratch.

    Returns (window_rows, window_banks, flips, total_acts) where
    window_rows is a list of {(bank, row): acts} per aligned refresh
    window, window_banks a list of per-bank totals, and flips a sorted
    list of (time_ns, bank, row, mode, effective, threshold) tuples.
    """
    events = list(events)
    acts = expand_acts(events, mapping)
    total_acts = len(acts)
    t_last = events[-1][0] if events else 0
    window_ns = cfg.window_ns
    trefi = cfg.trefi_ns
    nr = mapping.rows_per_bank
    nb = mapping.bank_count
    rows_per_ref = max(1, nr // cfg.ref_commands)

    act_times = [a[0] for a in acts]
    by_row: dict[tuple[int, int], list[int]] = {}
    by_row_times: dict[tuple[int, int], list[int]] = {}
    for seq, (t, b, r) in enumerate(acts):
        by_row.setdefault((b, r), []).append(seq)
        by_row_times.setdefault((b, r), []).append(t)

    # -- window summaries ----------------------------------------------
    n_windows = int(t_last // window_ns) + 1
    window_rows: list[dict[tuple[int, int], int]] = [dict() for _ in range(n_windows)]
    window_banks: list[list[int]] = [[0] * nb for _ in range(n_windows)]
    for t, b, r in acts:
        w = int(t // window_ns)
        window_rows[w][(b, r)] = window_rows[w].get((b, r), 0) + 1
        window_banks[w][b] += 1

    # -- refresh schedule: round robin plus sampler-driven neighbors ----
    # A refresh at time T orders before every activation with time >= T;
    # its "position" is that index in the global activation sequence.
    n_ticks = int(t_last // trefi)
    base_refresh: dict[int, list[int]] = {}  # row -> positions (same in every bank)
    trr_refresh: dict[tuple[int, int], list[int]] = {}
    for k in range(1, n_ticks + 1):
        tick_t = k * trefi
        pos = bisect.bisect_left(act_times, tick_t)
        start = ((k - 1) * rows_per_ref) % nr
        for j in range(rows_per_ref):
            base_refresh.setdefault((start + j) % nr, []).append(pos)
        if trr.capacity > 0:
            if tick_t % window_ns == 0:
                ws = tick_t - window_ns
            else:
                ws = (tick_t // window_ns) * window_ns
            for b in range(nb):
                counted = []
                for (bb, r), times in by_row_times.items():
                    if bb != b:
                        continue
                    c = bisect.bisect_left(times, tick_t) - bisect.bisect_left(times, ws)
                    if c > 0:
                        counted.append((-c, r))
                counted.sort()
                for _negc, r in counted[: trr.capacity]:
                    for d in range(1, trr.neighbor_radius + 1):
                        if r - d >= 0:
                            trr_refresh.setdefault((b, r - d), []).append(pos)
                        if r + d < nr:
                            trr_refresh.setdefault((b, r + d), []).append(pos)

    # -- per-victim flip sweep ------------------------------------------
    def side_thresholds(bank: int, victim: int, agg: int, mult: float):
        if not 0 <= agg < nr:
            return math.inf, math.inf
        cls = thresholds.nearest_class(contents.fill(bank, victim), contents.fill(bank, agg))
        return cls.single * mult, cls.double * mult

    flips = []
    vulnerable = vmap.vulnerable
    multiplier = vmap.multiplier
    for b in range(nb):
        for victim in range(nr):
            g = b * nr + victim
            if not vulnerable[g]:
                continue
            lo_seqs = by_row.get((b, victim - 1), []) if victim > 0 else []
            hi_seqs = by_row.get((b, victim + 1), []) if victim < nr - 1 else []
            if not lo_seqs and not hi_seqs:
                continue
            mult = float(multiplier[g])
            ts_lo, td_lo = side_thresholds(b, victim, victim - 1, mult)
            ts_hi, td_hi = side_thresholds(b, victim, victim + 1, mult)
            refreshes = sorted(base_refresh.get(victim, []) + trr_refresh.get((b, victim), []))
            stream = (
                [(p, 0, 0) for p in refreshes]
                + [(s, 1, 0) for s in lo_seqs]
                + [(s, 1, 1) for s in hi_seqs]
            )
            stream.sort()
            lo = hi = 0
            armed = True
            for pos, kind, side in stream:
                if kind == 0:
                    lo = hi = 0
                    armed = True
                    continue
                if side == 0:
                    lo += 1
                else:
                    hi += 1
                if not armed:
                    continue
                if lo >= hi:
                    td, ts = td_lo, ts_lo
                else:
                    td, ts = td_hi, ts_hi
                if lo >= td / 2 and hi >= td / 2:
                    mode, eff, thr = "double", lo + hi, td
                else:
                    mode, eff, thr = "single", max(lo, hi), ts
                if eff >= thr:
                    flips.append((acts[pos][0], b, victim, mode, eff, thr))
                    armed = False
    flips.sort()
    return window_rows, window_banks, flips, total_acts


# ---------------------------------------------------------------------------
# Incremental DRAM engine
# ---------------------------------------------------------------------------

class ActivationLedger:
    """Mutable per-row state: open rows, neighbor exposure, armed flags.

    Indexing is flat: g = bank * rows_per_bank + row.  exp_lo / exp_hi
    hold the activations of the row's low / high neighbor since the row's
    own refresh (its accumulated disturbance).  armed marks rows that
    have not flipped since their last refresh.
    """

    def __init__(self, mapping: DramMapping):
        n = mapping.bank_count * mapping.rows_per_bank
        self.mapping = mapping
        self.open_row = [-1] * mapping.bank_count
        self.exp_lo = [0] * n
        self.exp_hi = [0] * n
        self.armed = [True] * n

    def refresh_row(self, bank: int, row: int) -> None:
        g = bank * self.mapping.rows_per_bank + row
        self.exp_lo[g] = 0
        self.exp_hi[g] = 0
        self.armed[g] = True


class IncrementalEngine:
    """The DRAM engine stepped one event and one ACT at a time; the reference
    for dram.simulate_trace, which works on chunks of event columns."""

    def __init__(
        self,
        cfg: DramConfig,
        mapping: DramMapping,
        thresholds: ThresholdTable,
        trr: TrrConfig,
        vmap: VulnerabilityMap,
        contents: RowContents,
    ):
        self.cfg = cfg
        self.mapping = mapping
        self.thresholds = thresholds
        self.trr = trr
        self.vmap = vmap
        self.contents = contents
        self.ledger = ActivationLedger(mapping)

        self.nr = mapping.rows_per_bank
        self.nb = mapping.bank_count
        self.rows_per_ref = max(1, self.nr // cfg.ref_commands)
        self.trefi_ns = cfg.trefi_ns
        self.window_ns = cfg.window_ns
        self.act_cap = cfg.act_cap

        self.tick_index = 1
        self.ref_ptr = 0
        self.window_index = 0
        self.window_row_acts: list[dict[int, int]] = [dict() for _ in range(self.nb)]
        self.window_bank_acts = [0] * self.nb
        self.windows: list[WindowSummary] = []
        self.flips: list[BitFlip] = []
        self.total_acts = 0
        self._vuln = self.vmap.vulnerable.tolist()
        self._mult = self.vmap.multiplier.tolist()
        self._victim_cache: dict[int, tuple[float, float, float, float, float]] = {}

    # -- per-victim threshold cache ------------------------------------
    def _victim_thresholds(self, bank: int, row: int, g: int):
        cached = self._victim_cache.get(g)
        if cached is None:
            fill_v = self.contents.fill(bank, row)
            mult = self._mult[g]
            if row > 0:
                cls_lo = self.thresholds.nearest_class(fill_v, self.contents.fill(bank, row - 1))
                ts_lo, td_lo = cls_lo.single * mult, cls_lo.double * mult
            else:
                ts_lo = td_lo = float("inf")
            if row < self.nr - 1:
                cls_hi = self.thresholds.nearest_class(fill_v, self.contents.fill(bank, row + 1))
                ts_hi, td_hi = cls_hi.single * mult, cls_hi.double * mult
            else:
                ts_hi = td_hi = float("inf")
            cheap = min(ts_lo, ts_hi, td_lo, td_hi)
            cached = (ts_lo, ts_hi, td_lo, td_hi, cheap)
            self._victim_cache[g] = cached
        return cached

    def _check_victim(self, bank: int, row: int, time_ns: int) -> None:
        g = bank * self.nr + row
        led = self.ledger
        if not led.armed[g] or not self._vuln[g]:
            return
        lo = led.exp_lo[g]
        hi = led.exp_hi[g]
        ts_lo, ts_hi, td_lo, td_hi, cheap = self._victim_thresholds(bank, row, g)
        if lo + hi < cheap:
            return
        if lo >= hi:
            td, ts, agg_row = td_lo, ts_lo, row - 1
        else:
            td, ts, agg_row = td_hi, ts_hi, row + 1
        if lo >= td / 2 and hi >= td / 2:
            mode, eff, thr = "double", lo + hi, td
        else:
            mode, eff, thr = "single", max(lo, hi), ts
        if eff < thr:
            return
        fill_v = self.contents.fill(bank, row)
        fill_a = self.contents.fill(bank, agg_row)
        self.flips.append(
            BitFlip(bank, row, _bit_positions(fill_v, fill_a), time_ns, eff, mode, fill_v, fill_a, thr)
        )
        led.armed[g] = False

    # -- refresh machinery ---------------------------------------------
    def _trr_tracked(self, bank: int) -> list[int]:
        acts = self.window_row_acts[bank]
        if not acts or self.trr.capacity == 0:
            return []
        top = heapq.nsmallest(self.trr.capacity, acts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [row for row, _ in top]

    def _do_tick(self) -> None:
        for bank in range(self.nb):
            for j in range(self.rows_per_ref):
                self.ledger.refresh_row(bank, (self.ref_ptr + j) % self.nr)
            if self.trr.capacity > 0:
                for row in self._trr_tracked(bank):
                    for d in range(1, self.trr.neighbor_radius + 1):
                        if row - d >= 0:
                            self.ledger.refresh_row(bank, row - d)
                        if row + d < self.nr:
                            self.ledger.refresh_row(bank, row + d)
        self.ref_ptr = (self.ref_ptr + self.rows_per_ref) % self.nr
        self.tick_index += 1

    def _roll_window(self) -> None:
        row_acts = {}
        for bank in range(self.nb):
            for row, count in self.window_row_acts[bank].items():
                row_acts[(bank, row)] = count
        self.windows.append(
            WindowSummary(self.window_index, self.window_index * self.window_ns,
                          row_acts, list(self.window_bank_acts))
        )
        self.window_index += 1
        self.window_row_acts = [dict() for _ in range(self.nb)]
        self.window_bank_acts = [0] * self.nb

    def advance_time(self, t: int) -> None:
        """Apply all refresh commands and window rollovers up to time t."""
        while True:
            tick_t = self.tick_index * self.trefi_ns
            window_t = (self.window_index + 1) * self.window_ns
            if tick_t <= t and tick_t <= window_t:
                self._do_tick()
            elif window_t <= t:
                self._roll_window()
            else:
                return

    # -- event processing ----------------------------------------------
    def touch(self, bank: int, row: int, time_ns: int) -> None:
        if self.ledger.open_row[bank] == row:
            return
        self.ledger.open_row[bank] = row
        g = bank * self.nr + row
        self.total_acts += 1
        bank_total = self.window_bank_acts[bank] + 1
        if bank_total > self.act_cap:
            raise TraceRateError(
                f"bank {bank} exceeds {self.act_cap} activations in window "
                f"{self.window_index}: the trace outruns the row-cycle budget"
            )
        self.window_bank_acts[bank] = bank_total
        acts = self.window_row_acts[bank]
        acts[row] = acts.get(row, 0) + 1
        if row > 0:
            self.ledger.exp_hi[g - 1] += 1
            self._check_victim(bank, row - 1, time_ns)
        if row < self.nr - 1:
            self.ledger.exp_lo[g + 1] += 1
            self._check_victim(bank, row + 1, time_ns)

    def finish(self) -> None:
        self._roll_window()


def incremental_simulate(
    trace,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    seed: int = 0,
) -> tuple[SimulationResult, ActivationLedger]:
    """dram.simulate_trace computed one event and one ACT at a time.

    Returns (SimulationResult, final ActivationLedger).  Accepts the same
    inputs, but reads EventColumns blocks as tuples.
    """
    events = trace.events if isinstance(trace, AccessTrace) else trace
    if not isinstance(events, EventColumns):
        events = itertools.chain.from_iterable(
            e if isinstance(e, EventColumns) else (e,) for e in events)
    if trr is None:
        trr = TrrConfig()
    if vmap is None:
        vmap = VulnerabilityMap.from_seed(mapping, seed)
    if contents is None:
        contents = RowContents()
    eng = IncrementalEngine(cfg, mapping, thresholds, trr, vmap, contents)

    row_size = mapping.row_size_bytes
    col_bits = mapping.col_bits
    bank_bits = mapping.bank_bits
    bank_mask = mapping.bank_count - 1
    xor = mapping.bank_xor
    capacity = mapping.capacity_bytes

    last_t = None
    n_events = 0
    for time_ns, paddr, kind, size in events:
        n_events += 1
        if last_t is not None and time_ns < last_t:
            raise ValueError(f"trace time goes backwards at {time_ns}")
        last_t = time_ns
        if paddr < 0 or paddr + size > capacity:
            raise ValueError(f"event at {paddr:#x}+{size} outside module capacity")
        eng.advance_time(time_ns)
        addr = paddr
        remaining = size
        while remaining > 0:
            row = addr >> (col_bits + bank_bits)
            bank = (addr >> col_bits) & bank_mask
            if xor:
                bank ^= row & bank_mask
            eng.touch(bank, row, time_ns)
            chunk = min(remaining, row_size - (addr & (row_size - 1)))
            addr += chunk
            remaining -= chunk
    eng.finish()
    return SimulationResult(eng.windows, eng.flips, n_events, eng.total_acts), eng.ledger


def check_flip(
    ledger: ActivationLedger,
    vmap: VulnerabilityMap,
    thresholds: ThresholdTable,
    contents: RowContents,
    time_ns: int = 0,
) -> list[BitFlip]:
    """Evaluate the flip condition for every armed row at the current state.

    Pure query: the ledger is not modified.  IncrementalEngine applies the
    same rule as exposures grow.
    """
    mapping = ledger.mapping
    nr = mapping.rows_per_bank
    flips = []
    vuln = vmap.vulnerable
    mult = vmap.multiplier
    for bank in range(mapping.bank_count):
        base = bank * nr
        for row in range(nr):
            g = base + row
            if not ledger.armed[g] or not vuln[g]:
                continue
            lo = ledger.exp_lo[g]
            hi = ledger.exp_hi[g]
            if lo == 0 and hi == 0:
                continue
            fill_v = contents.fill(bank, row)
            agg_row = row - 1 if lo >= hi else row + 1
            if not 0 <= agg_row < nr:
                continue
            fill_a = contents.fill(bank, agg_row)
            cls = thresholds.nearest_class(fill_v, fill_a)
            m = float(mult[g])
            td = cls.double * m
            if lo >= td / 2 and hi >= td / 2:
                mode, eff, thr = "double", lo + hi, td
            else:
                mode, eff, thr = "single", max(lo, hi), cls.single * m
            if eff >= thr:
                flips.append(
                    BitFlip(bank, row, _bit_positions(fill_v, fill_a), time_ns, eff, mode, fill_v, fill_a, thr)
                )
    return flips


# ---------------------------------------------------------------------------
# Layout lookups, one address or index at a time
# ---------------------------------------------------------------------------

def layer_of(spec: ModelSpec, index: int) -> int:
    """Layer number containing a flat parameter index."""
    if not 0 <= index < spec.total_params:
        raise ValueError(f"index {index} out of range")
    return bisect.bisect_right(spec.layer_offsets, index) - 1


def byte_range_of_elems(region: Region, offset: int, count: int) -> tuple[int, int]:
    """Virtual [start, end) byte range of an element run of a region."""
    start_bit = offset * region.elem_bits
    end_bit = (offset + count) * region.elem_bits
    start = region.virtual_start + start_bit // 8
    end = region.virtual_start + -(-end_bit // 8)
    if end > region.virtual_end:
        raise ValueError(f"run [{offset}, {offset + count}) overflows region {region.name}/{region.layer}")
    return start, end


def virtual_to_physical(layout: MemoryLayout, vaddr: int) -> int:
    """Physical address of a virtual one, through the layout's page table."""
    page, offset = divmod(vaddr, PAGE_BYTES)
    frame = layout.page_table.get(page)
    if frame is None:
        raise ValueError(f"vaddr {vaddr:#x} not mapped")
    return frame * PAGE_BYTES + offset


# ---------------------------------------------------------------------------
# Replay trace generation
# ---------------------------------------------------------------------------

class ScriptOp(NamedTuple):
    region: str  # "ingress" | "accumulator" | "writeback" | "values"
    layer: int  # -1 for the global ingress queue
    offset: int  # in elements of the region
    count: int
    kind: str  # "R" | "W"


def _reference_runs(spec, indices) -> list[tuple[int, int, int]]:
    """(layer, offset within layer, count) runs of a sorted index list."""
    out = []
    idx = [int(i) for i in indices]
    i = 0
    while i < len(idx):
        start = idx[i]
        j = i + 1
        while j < len(idx) and idx[j] == idx[j - 1] + 1:
            j += 1
        count = j - i
        while count > 0:
            layer = layer_of(spec, start)
            take = min(count, spec.layer_offsets[layer + 1] - start)
            out.append((layer, start - spec.layer_offsets[layer], take))
            start += take
            count -= take
        i = j
    return out


def _reference_pieces(layout: MemoryLayout, op: ScriptOp) -> list[tuple[int, int]]:
    """(paddr, size) pieces of one op, cut at page and physical row borders."""
    region = layout.region(op.region, op.layer)
    start, end = byte_range_of_elems(region, op.offset, op.count)
    row_size = layout.mapping.row_size_bytes
    pieces = []
    v = start
    while v < end:
        page_end = (v // PAGE_BYTES + 1) * PAGE_BYTES
        p = virtual_to_physical(layout, v)
        row_end_p = (p // row_size + 1) * row_size
        piece = min(end - v, page_end - v, row_end_p - p)
        pieces.append((p, piece))
        v += piece
    return pieces


def reference_replay_events(
    layout: MemoryLayout,
    records,
    bw: BandwidthModel,
    metadata_bytes_per_entry: int = 0,
) -> list[AccessEvent]:
    """Replay events built one round, one op and one piece at a time.

    Per round: the update message (ingress write, then accumulator read
    and write per run) spread uniformly over size / bandwidth, then the
    writeback ops (accumulator read, writeback write, values write per
    run) at the round's integer end, where the next round starts.  The
    ingress queue is a ring that wraps when the next update would
    overflow it.
    """
    spec = layout.spec
    ingress_size = layout.region("ingress").size_bytes
    events = []
    offset = 0
    t_ns = 0
    for record in records:
        k = len(record.indices)
        size = -(-(k * spec.uniform_precision_bits) // 8) + k * metadata_bytes_per_entry
        if size > ingress_size:
            raise ValueError(f"round {record.round_number}: update larger than the ingress queue")
        if offset + size > ingress_size:
            offset = 0
        runs = _reference_runs(spec, record.indices)
        ops = [ScriptOp("ingress", -1, offset, size, "W")]
        writeback_ops = []
        for layer, off, count in runs:
            ops.append(ScriptOp("accumulator", layer, off, count, "R"))
            ops.append(ScriptOp("accumulator", layer, off, count, "W"))
            writeback_ops.append(ScriptOp("accumulator", layer, off, count, "R"))
            writeback_ops.append(ScriptOp("writeback", layer, off, count, "W"))
            writeback_ops.append(ScriptOp("values", layer, off, count, "W"))
        budget_ns = size * 1e9 / bw.bytes_per_second
        pieces = [(p, n, op.kind) for op in ops for p, n in _reference_pieces(layout, op)]
        t = float(t_ns)
        step = budget_ns / len(pieces)
        events.extend(AccessEvent(int(t + i * step), p, kind, n)
                      for i, (p, n, kind) in enumerate(pieces))
        round_end = int(t + budget_ns)
        for op in writeback_ops:
            events.extend(AccessEvent(round_end, p, op.kind, n) for p, n in _reference_pieces(layout, op))
        t_ns = round_end
        offset += size
    return events


# ---------------------------------------------------------------------------
# Metric references
# ---------------------------------------------------------------------------

def emd_reference(u, v, total_params: int) -> float:
    """Earth mover's distance by exhaustive CDF comparison at every index."""
    a = sorted(u)
    b = sorted(v)
    total = 0.0
    for j in range(total_params):
        fa = sum(1 for x in a if x <= j) / len(a)
        fb = sum(1 for x in b if x <= j) / len(b)
        total += abs(fa - fb)
    return total / total_params


def cd_reference(indices, total_params: int) -> float:
    """Cluster diameter by exhaustive subset enumeration (small k only)."""
    idx = sorted(set(indices))
    k = len(idx)
    m = math.ceil(Fraction(9, 10) * k)
    best = None
    for subset in itertools.combinations(idx, m):
        span = subset[-1] - subset[0] + 1
        if best is None or span < best:
            best = span
    return best / total_params


def rur_reference(index_sets) -> float:
    """Repeated-update ratio straight from the definition."""
    inter = 0
    denom = 0
    for a, b in zip(index_sets[:-1], index_sets[1:]):
        inter += len(set(a) & set(b))
        denom += len(set(a))
    return inter / denom


def stft_reference(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Direct-sum transform of Hann-windowed frames."""
    x = np.asarray(x, dtype=np.float64)
    window = np.hanning(frame_len)
    n_frames = 1 + (x.size - frame_len) // hop
    n_bins = frame_len // 2 + 1
    out = np.empty((n_frames, n_bins), dtype=np.complex128)
    for f in range(n_frames):
        seg = x[f * hop: f * hop + frame_len] * window
        for k in range(n_bins):
            angle = -2.0 * math.pi * k * np.arange(frame_len) / frame_len
            out[f, k] = np.sum(seg * (np.cos(angle) + 1j * np.sin(angle)))
    return out
