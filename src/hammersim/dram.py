"""Open-row DRAM model with refresh, TRR sampling and disturbance flips.

The engine consumes a time-ordered physical access trace and tracks, per
bank, the open row, and per row, activation counts and the accumulated
aggressor exposure of each neighbor side.  Refresh commands arrive on a
fixed tREFI grid (refresh_period / ref_commands) and sweep rows round
robin; a refreshed row's exposure resets.  An in-DRAM TRR sampler of
capacity C additionally refreshes the neighbors of the C most-activated
rows of the current refresh window at every refresh command, ties
resolved to the lower row number.

A bit flip is recorded for a vulnerable victim row the first time its
effective aggressor count reaches the data-pattern-dependent threshold:
double-sided (sum of both neighbor exposures) when both sides carry at
least half the double-sided threshold, single-sided (max neighbor)
otherwise.  The module's one fill byte picks the pattern class for every
victim and aggressor; thresholds scale with a per-row multiplier.

Event ordering at coincident times: refresh commands fire before events
with the same timestamp, and before the aligned-window rollover when a
command lands exactly on a window boundary.

The engine works on chunks of event columns: it cuts them into row
pieces, collapses open-row hits per bank (row_activations, as replay does
for its templates), counts ACTs per window, builds the chunk's refresh
schedule as arrays and finds flips as first crossings of cumulative
neighbor ACTs between a victim's refreshes.  What it carries from chunk
to chunk is sized by banks x rows, never by the trace.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .memlayout import DramMapping, EventColumns, row_pieces
from .metrics import sorted_unique
from .seeding import generator

__all__ = [
    "DramConfig",
    "ThresholdEntry",
    "ThresholdTable",
    "TrrConfig",
    "VulnerabilityMap",
    "RowContents",
    "BitFlip",
    "WindowSummary",
    "SimulationResult",
    "TraceRateError",
    "simulate_trace",
    "row_activations",
    "builtin_thresholds",
    "read_threshold_file",
]


@dataclass(frozen=True)
class DramConfig:
    """Module timing: refresh window, REF count, effective row-cycle time."""

    refresh_period_s: float = 0.064
    ref_commands: int = 8192
    trc_effective_s: float = 49e-9

    def __post_init__(self) -> None:
        if self.refresh_period_s <= 0 or self.trc_effective_s <= 0:
            raise ValueError("timing parameters must be positive")
        if self.ref_commands <= 0:
            raise ValueError("ref_commands must be positive")
        if self.act_cap < 1:
            raise ValueError("trc_effective_s exceeds refresh_period_s: no activation fits a window")

    @property
    def trefi_ns(self) -> float:
        return self.refresh_period_s * 1e9 / self.ref_commands

    @property
    def window_ns(self) -> float:
        return self.refresh_period_s * 1e9

    @property
    def act_cap(self) -> int:
        """Max ACTs one bank can absorb per refresh window."""
        return int(self.refresh_period_s / self.trc_effective_s)


@dataclass(frozen=True)
class ThresholdEntry:
    victim_fill: int
    aggressor_fill: int
    single: int
    double: int

    def __post_init__(self) -> None:
        for b in (self.victim_fill, self.aggressor_fill):
            if not 0 <= b <= 0xFF:
                raise ValueError(f"fill byte {b:#x} out of range")
        if self.single <= 0 or self.double <= 0:
            raise ValueError("thresholds must be positive")
        if self.double > self.single:
            raise ValueError(
                f"double-sided threshold {self.double} exceeds single-sided {self.single}"
            )


class ThresholdTable:
    """Flip thresholds per (victim fill, aggressor fill) pattern class."""

    def __init__(self, entries: list[ThresholdEntry], published_average: int | None = None):
        if not entries:
            raise ValueError("threshold table is empty")
        seen = set()
        for e in entries:
            key = (e.victim_fill, e.aggressor_fill)
            if key in seen:
                raise ValueError(f"duplicate pattern class {key}")
            seen.add(key)
        self.entries = tuple(entries)
        self.published_average = published_average
        if published_average is not None and published_average < self.min_single():
            raise ValueError(f"published_average {published_average} is below the lowest "
                             f"single-sided threshold {self.min_single()}")

    def nearest_class(self, victim_fill: int, aggressor_fill: int) -> ThresholdEntry:
        """Closest pattern class by byte-value distance, first wins ties."""
        best = None
        best_d = None
        for e in self.entries:
            d = abs(e.victim_fill - victim_fill) + abs(e.aggressor_fill - aggressor_fill)
            if best_d is None or d < best_d:
                best, best_d = e, d
        return best

    def min_single(self) -> int:
        return min(e.single for e in self.entries)

    def mean_single(self) -> float:
        return sum(e.single for e in self.entries) / len(self.entries)

    def reference_mean(self) -> int:
        """Average single-sided threshold used for feasibility verdicts.

        The bundled module table states 240K as its average; computed
        tables fall back to the rounded arithmetic mean.
        """
        if self.published_average is not None:
            return self.published_average
        return int(round(self.mean_single()))


def builtin_thresholds() -> ThresholdTable:
    """Reference DDR4-2400 module thresholds (activations per window), as packaged."""
    return read_threshold_file(Path(__file__).with_name("data") / "thresholds_ddr4.txt")


def read_threshold_file(path) -> ThresholdTable:
    published = None
    cells: dict[tuple[int, int], dict[str, int]] = {}
    order: list[tuple[int, int]] = []
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key.strip() == "published_average":
                    published = int(value)
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4 or parts[2] not in ("single", "double"):
                raise ValueError(f"{path}:{line_no}: expected victim,aggressor,mode,count")
            key = (int(parts[0], 16), int(parts[1], 16))
            if key not in cells:
                cells[key] = {}
                order.append(key)
            if parts[2] in cells[key]:
                raise ValueError(f"{path}:{line_no}: duplicate {parts[2]} entry for {key}")
            cells[key][parts[2]] = int(parts[3])
    entries = []
    for key in order:
        modes = cells[key]
        if set(modes) != {"single", "double"}:
            raise ValueError(f"{path}: pattern {key} missing a mode")
        entries.append(ThresholdEntry(key[0], key[1], modes["single"], modes["double"]))
    if not entries:
        raise ValueError(f"{path}: no threshold entries")
    return ThresholdTable(entries, published)


@dataclass(frozen=True)
class TrrConfig:
    """Target-row-refresh sampler: capacity 0 disables it."""

    capacity: int = 4
    neighbor_radius: int = 1

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.neighbor_radius < 1:
            raise ValueError("neighbor_radius must be >= 1")


class VulnerabilityMap:
    """Per-row flip susceptibility and threshold multiplier."""

    def __init__(self, vulnerable: np.ndarray, multiplier: np.ndarray):
        if vulnerable.shape != multiplier.shape:
            raise ValueError("vulnerable/multiplier shape mismatch")
        self.vulnerable = np.asarray(vulnerable, dtype=bool)
        self.multiplier = np.asarray(multiplier, dtype=np.float64)

    @staticmethod
    def check_parameters(probability: float, multiplier_low: float, multiplier_high: float) -> None:
        """Raise ValueError unless from_seed can draw a map from these."""
        if not 0 <= probability <= 1:
            raise ValueError(f"vulnerable_probability must be in [0, 1], got {probability}")
        if multiplier_low <= 0 or multiplier_high < multiplier_low:
            raise ValueError(f"need 0 < multiplier_low <= multiplier_high, got {multiplier_low} and {multiplier_high}")

    @classmethod
    def from_seed(
        cls,
        mapping: DramMapping,
        seed: int,
        probability: float = 0.95,
        multiplier_low: float = 1.0,
        multiplier_high: float = 1.0,
    ) -> "VulnerabilityMap":
        cls.check_parameters(probability, multiplier_low, multiplier_high)
        n = mapping.bank_count * mapping.rows_per_bank
        rng = generator(seed, "vulnerability")
        vulnerable = rng.random(n) < probability
        if multiplier_high == multiplier_low:
            mult = np.full(n, multiplier_low)
        else:
            mult = rng.uniform(multiplier_low, multiplier_high, size=n)
        return cls(vulnerable, mult)


class RowContents:
    """The majority byte of every row's contents, one fill for the module."""

    def __init__(self, default_fill: int = 0x00):
        if not 0 <= default_fill <= 0xFF:
            raise ValueError(f"row_fill must be a byte, got {default_fill}")
        self.default_fill = default_fill


@dataclass(frozen=True)
class BitFlip:
    bank: int
    row: int
    bit_positions: tuple[int, ...]
    time_ns: int
    effective_count: int
    mode: str  # "single" | "double"
    victim_fill: int
    aggressor_fill: int
    threshold: float


@dataclass
class WindowSummary:
    """ACT accounting for one aligned refresh window."""

    index: int
    start_ns: float
    row_acts: dict[tuple[int, int], int]
    bank_acts: list[int]

    def max_row_acts(self) -> int:
        return max(self.row_acts.values(), default=0)


@dataclass
class SimulationResult:
    windows: list[WindowSummary]
    flips: list[BitFlip]
    total_events: int
    total_acts: int

    def max_row_acts(self) -> int:
        return max((w.max_row_acts() for w in self.windows), default=0)


class TraceRateError(ValueError):
    """Trace demands more ACTs per bank and window than the bus can issue."""


def _bit_positions(victim_fill: int, aggressor_fill: int) -> tuple[int, ...]:
    """Bits at risk: positions where the fills differ, else the victim's
    charged bits (identical-pattern classes still flip, just later)."""
    diff = victim_fill ^ aggressor_fill
    if diff == 0:
        diff = victim_fill
    return tuple(b for b in range(8) if (diff >> b) & 1)


# Events enter the engine in chunks of at most this many, and replay cuts
# its blocks of rounds at it too.  Every array the engine allocates is sized
# by one chunk, or by banks x rows for the state it carries from one chunk
# to the next.
CHUNK_EVENTS = 1 << 16
# At most this many (refresh command, row) cells are ranked for TRR at once.
_TRR_CELLS = 1 << 20

_COLUMNS = tuple(operator.itemgetter(f) for f in (0, 1, 3))  # time_ns, paddr, size


def _event_chunks(trace, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(time_ns, paddr, size) columns of consecutive events, at most chunk events each.

    Reads EventColumns, or an iterable of either (time_ns, paddr, kind,
    size) tuples or EventColumns blocks; a block goes in on its own, cut
    only where it is longer than chunk.  Tuples are read one column at a
    time, times truncated to int64.
    """
    if isinstance(trace, EventColumns):
        trace = (trace,)
    it = iter(trace)
    first = next(it, None)
    if first is None:
        return
    it = itertools.chain((first,), it)
    if not isinstance(first, EventColumns):
        while rows := list(itertools.islice(it, chunk)):
            if set(map(len, rows)) != {4}:
                raise ValueError("trace events must be (time_ns, paddr, kind, size) tuples")
            yield tuple(np.fromiter(map(col, rows), np.int64, len(rows)) for col in _COLUMNS)
        return
    for block in it:
        for a in range(0, len(block), chunk):
            yield block.time_ns[a:a + chunk], block.paddr[a:a + chunk], block.size[a:a + chunk]


def _steps(t: np.ndarray, step: float, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(m, at) of non-decreasing t: how many k >= 1 have k * step <= t[i]
    (< t[i] if strict) is m[np.searchsorted(at, i, "right")].

    The products k * step are the float products of the refresh clock, so
    an event or a command on an exact tick or window boundary lands on the
    same side of it as in a one-step-at-a-time replay.  A count is
    floor(t / step) or a neighbour, so only those k are located in t (at),
    after a 0 (m): the range spanned by t if no longer than t, else t's
    distinct floor(t / step) and their neighbours.  Nothing is sized by the
    time t spans.
    """
    if not t.size:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lo, hi = math.floor(t[0] / step), math.floor(t[-1] / step)
    if hi - lo < t.size:
        k = np.arange(max(lo - 1, 1), hi + 2)
    else:
        f = sorted_unique(np.floor(t / step), presorted=True)
        k = sorted_unique(np.concatenate((f - 1, f, f + 1))).astype(np.int64)
        k = k[k >= 1]
    return np.concatenate(([0], k)), np.searchsorted(t, k * step, "right" if strict else "left")


def _multiples(t: np.ndarray, step: float, strict: bool = False) -> np.ndarray:
    """Per element of non-decreasing t, the number of k >= 1 with k * step <= t (< t if strict)."""
    m, at = _steps(t, step, strict)
    return np.repeat(m, np.diff(np.concatenate(([0], at, [t.size]))))


def _locate(sorted_values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each x in a sorted unique array, and whether it is there."""
    i = np.searchsorted(sorted_values, x)
    found = i < sorted_values.size
    found[found] = sorted_values[i[found]] == x[found]
    return i, found


def row_activations(g: np.ndarray, bank: np.ndarray, open_rows: np.ndarray) -> np.ndarray:
    """Which accesses, to rows g in banks bank in trace order, open their row:
    those whose bank's access before, or open_rows[bank] (-1: none) for the
    first, is in another row.  Leaves each bank's last row in open_rows."""
    nb, psh = open_rows.size, g.size.bit_length()  # sorted (bank << psh) + position keys: bank order
    key = bank.astype(np.min_scalar_type((nb << psh) - 1)) << psh
    key += np.arange(g.size, dtype=key.dtype)
    key.sort()
    order = (key & (1 << psh) - 1).astype(np.intp)
    gs = g[order]
    bounds = np.append(np.searchsorted(key, np.arange(nb, dtype=key.dtype) << psh), g.size)  # each bank's run
    busy = np.flatnonzero(bounds[1:] > bounds[:-1])
    opens = np.empty(gs.size, dtype=bool)
    np.not_equal(gs[1:], gs[:-1], out=opens[1:])
    opens[bounds[busy]] = gs[bounds[busy]] != open_rows[busy]
    open_rows[busy] = gs[bounds[busy + 1] - 1]
    is_act = np.empty_like(opens)
    is_act[order] = opens
    return is_act


class _ColumnEngine:
    """Open-row engine that consumes events a chunk of columns at a time.

    Flat row index g = bank * rows_per_bank + row.  Carried from chunk to
    chunk: each bank's open row; each row's low / high neighbor ACTs since
    its last refresh and whether it may still flip (rows with any such
    state are "dirty"); the current window's ACT counts; the number of
    refresh commands issued; and the last event time.

    Every key the engine sorts or searches packs an entity above a
    position, (entity << sh) + position, with positions 0..n of a chunk of
    n ACTs in sh = n.bit_length() bits; an ACT's entity is its row, or
    rank * N + row in the chunk's rank-th window.
    """

    def __init__(self, cfg: DramConfig, mapping: DramMapping, thresholds: ThresholdTable,
                 trr: TrrConfig, vmap: VulnerabilityMap, contents: RowContents):
        self.cfg = cfg
        self.mapping = mapping
        self.trr = trr
        self.vmap = vmap
        self.nb = mapping.bank_count
        self.nr = mapping.rows_per_bank
        n = self.nb * self.nr
        self.rows_per_ref = max(1, self.nr // cfg.ref_commands)
        # every row and its neighbors hold the module's fill: one pattern class
        self.fill = contents.default_fill
        cls = thresholds.nearest_class(self.fill, self.fill)
        self.single, self.double = cls.single, cls.double
        self.bit_positions = _bit_positions(self.fill, self.fill)

        self.open_g = np.full(self.nb, -1, dtype=np.int64)
        self.exp_lo = np.zeros(n, dtype=np.int64)
        self.exp_hi = np.zeros(n, dtype=np.int64)
        self.armed = np.ones(n, dtype=bool)
        self.dirty = np.zeros(0, dtype=np.int64)  # sorted rows with exposure or disarmed
        self.window = 0  # window of the last ACT, whose counts are held below
        self.win_counts = np.zeros(n, dtype=np.int64)
        self.win_rows = np.zeros(0, dtype=np.int64)  # sorted rows with a count
        self.bank_acts = np.zeros(self.nb, dtype=np.int64)
        self.ticks = 0  # refresh commands issued so far
        self.last_t: int | None = None

        self.windows: list[WindowSummary] = []
        self.flips: list[BitFlip] = []
        self.total_events = 0
        self.total_acts = 0

    # -- input checks ----------------------------------------------------
    def feed(self, t: np.ndarray, paddr: np.ndarray, size: np.ndarray) -> None:
        """Process one chunk; a bad event raises after the events before it ran."""
        first = t[0] if self.last_t is None else self.last_t
        end = paddr + size
        if (t[0] >= first and not (t[1:] < t[:-1]).any() and size.min() >= 0
                and paddr.min() >= 0 and end.max() <= self.mapping.capacity_bytes):
            self._run(t, paddr, size)
            return
        prev = np.empty_like(t)
        prev[1:] = t[:-1]
        prev[0] = first
        back = t < prev
        negative = size < 0
        outside = (paddr < 0) | (end > self.mapping.capacity_bytes)
        e = int((back | negative | outside).argmax())
        if e:
            self._run(t[:e], paddr[:e], size[:e])
        if back[e]:
            raise ValueError(f"trace time goes backwards at {t[e]}")
        if negative[e]:
            raise ValueError(f"event at {int(paddr[e]):#x} has negative size {size[e]}")
        raise ValueError(f"event at {int(paddr[e]):#x}+{size[e]} outside module capacity")

    # -- one chunk -----------------------------------------------------------
    def _run(self, t: np.ndarray, paddr: np.ndarray, size: np.ndarray) -> None:
        m = self.mapping
        nb, nr = self.nb, self.nr
        self.total_events += t.size
        self.last_t = int(t[-1])

        # the events' row pieces, each at its event's time; cut only if an event is empty or crosses a row
        piece_t = t
        if size.min() == 0 or ((paddr & (m.row_size_bytes - 1)) + size).max() > m.row_size_bytes:
            nonempty = size > 0
            n_pieces, paddr, _ = row_pieces(paddr[nonempty], (paddr + size)[nonempty], m.row_size_bytes)
            piece_t = t[nonempty].repeat(n_pieces)
        g = m.flat_row(paddr)
        is_act = row_activations(g, g // nr, self.open_g)
        act_g, act_t = g[is_act], piece_t[is_act]
        n = act_g.size
        self.total_acts += n

        # the ACTs' one sort, of (row << sh) + position keys; re-sorted stably on
        # the window rank (rank 0: the carried window) it is by entity = rank * N + row
        sh = n.bit_length()  # positions 0..n fit below bit sh
        row_key = np.left_shift(act_g, sh, out=act_g)
        row_key += np.arange(n)
        row_key.sort()
        wins, acts = np.array([self.window]), row_key
        if n and _multiples(act_t[-1:], self.cfg.window_ns)[0] > self.window:
            w = _multiples(act_t, self.cfg.window_ns)
            wins = sorted_unique(np.append(self.window, w), presorted=True)  # w never decreases
            w_rank = np.searchsorted(wins, w)[row_key & (1 << sh) - 1]
            by_key = np.argsort(w_rank.astype(np.min_scalar_type(wins.size - 1)), kind="stable")
            acts = ((w_rank * (nb * nr) << sh) + row_key)[by_key]
        ent = sorted_unique(acts >> sh, presorted=True)
        first = np.searchsorted(acts, ent << sh)  # where each entity starts in acts
        # refresh commands issued before ACT p (p = n: by the chunk's last event)
        # are ticks[np.searchsorted(tick_at, p, "right")]
        ticks, tick_at = _steps(np.append(act_t, t[-1]), self.cfg.trefi_ns)
        issued = int(ticks[np.searchsorted(tick_at, n, "right")])
        self._refresh_and_flip(act_t, ticks, tick_at, issued, row_key, acts, ent, wins, sh)
        self._count_windows(acts, ent, first, wins, sh)
        self.ticks = issued

    # -- refresh schedule and flips ----------------------------------------
    def _refresh_and_flip(self, act_t, ticks, tick_at, issued, row_key, acts, ent, wins, sh) -> None:
        """Apply the chunk's refresh commands and neighbor ACTs to the dirty rows.

        A command before ACT p resets its rows before that ACT.  Victims
        whose exposure could reach their cheapest threshold are swept
        ACT by ACT between their refreshes (cumulative sums per segment);
        every other row only needs its exposure after its last refresh.
        """
        nr = self.nr

        def acts_from(u: np.ndarray, q) -> np.ndarray:
            """ACTs of rows u at positions >= q."""
            return np.searchsorted(row_key, (u + 1) << sh) - np.searchsorted(row_key, (u << sh) + q)

        acted = sorted_unique(ent % (self.nb * nr))
        acted_row = acted % nr
        touched = sorted_unique(np.concatenate((self.dirty, acted[acted_row > 0] - 1, acted[acted_row < nr - 1] + 1)))
        if not touched.size:
            return
        vrow = touched % nr
        has_lo, has_hi = vrow > 0, vrow < nr - 1
        exposure = (self.exp_lo[touched] + self.exp_hi[touched]
                    + np.where(has_lo, acts_from(touched - 1, 0), 0)
                    + np.where(has_hi, acts_from(touched + 1, 0), 0))
        cand_of = np.flatnonzero(self.vmap.vulnerable[touched]
                                 & (exposure >= self.double * self.vmap.multiplier[touched]))
        cand = touched[cand_of]

        # last round-robin refresh: sweep position x refreshes row x % nr at
        # command x // rows_per_ref + 1; take the last x of each row
        rpr = self.rows_per_ref
        end = issued * rpr
        x = end - 1 - (end - 1 - vrow) % nr
        last = np.full(touched.size, -1)
        swept = x >= self.ticks * rpr  # at the first position whose ticks reach x // rpr + 1
        last[swept] = tick_at[np.searchsorted(ticks, x[swept] // rpr + 1) - 1]

        trr_pos, trr_vic = [last[:0]], [last[:0]]
        for pos, ref in self._trr_refreshes(act_t, ticks, tick_at, acts, ent, wins, sh):
            i, hit = _locate(touched, ref)
            np.maximum.at(last, i[hit], pos[hit])
            i, hit = _locate(cand, ref)
            trr_pos.append(pos[hit])
            trr_vic.append(i[hit])

        flip_vic, flip_pos = self._sweep(cand, row_key, act_t, ticks, tick_at, sh, trr_pos, trr_vic)

        fresh = last >= 0
        q = np.maximum(last, 0)
        lo = np.where(has_lo, acts_from(touched - 1, q), 0) + np.where(fresh, 0, self.exp_lo[touched])
        hi = np.where(has_hi, acts_from(touched + 1, q), 0) + np.where(fresh, 0, self.exp_hi[touched])
        armed = fresh | self.armed[touched]
        flipped = cand_of[flip_vic]
        armed[flipped[flip_pos >= last[flipped]]] = False
        self.exp_lo[touched] = lo
        self.exp_hi[touched] = hi
        self.armed[touched] = armed
        self.dirty = touched[(lo > 0) | (hi > 0) | ~armed]

    def _trr_refreshes(self, act_t, ticks, tick_at, acts, ent, wins, sh) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(position, refreshed row) of the sampler's refreshes, in batches.

        A command ranks the rows of each bank by their ACTs in the current
        window before the command, ties to the lower row, and refreshes the
        neighbors of the top capacity rows.  Commands at the same position
        see the same counts, and one landing in a later window than the
        ACT before it sees an empty window, so one ranking per position
        covers all of them.
        """
        cap = self.trr.capacity
        if cap == 0:
            return
        # the positions of the chunk's commands, and the first command at each
        pos = sorted_unique(tick_at[(ticks[1:] > self.ticks) & (tick_at <= act_t.size)], presorted=True)
        first_tick = np.maximum(ticks[np.searchsorted(tick_at, pos - 1, "right")], self.ticks) + 1
        w_before = np.full(pos.size, self.window)
        after_act = pos > 0
        w_before[after_act] = _multiples(act_t[pos[after_act] - 1], self.cfg.window_ns)
        ranked = _multiples(first_tick * self.cfg.trefi_ns, self.cfg.window_ns, strict=True) == w_before
        pos, w_before = pos[ranked], w_before[ranked]
        if not pos.size:
            return
        nb, nr, N = self.nb, self.nr, self.nb * self.nr

        # the carried window's rows are rank-0 entities too, its counts the base
        ent = sorted_unique(np.concatenate((self.win_rows, ent)))
        before = np.searchsorted(acts, ent << sh) - np.where(ent < N, self.win_counts[ent % N], 0)
        bank = ent % N // nr

        rank = np.searchsorted(wins, w_before)  # never decreases
        lo_e = np.searchsorted(ent, rank * N)
        n_cells = np.searchsorted(ent, (rank + 1) * N) - lo_e
        bounds = np.concatenate(([0], n_cells.cumsum()))
        ent_rank = ent // N
        a = 0
        while a < pos.size:
            b = max(a + 1, int(np.searchsorted(bounds, bounds[a] + _TRR_CELLS, "right")) - 1)
            # a cell per position and entity of its rank, by entity then
            # position, so that the count search runs over sorted keys
            lo, hi = lo_e[a], lo_e[b - 1] + n_cells[b - 1]
            s0 = np.searchsorted(rank[a:b], ent_rank[lo:hi])
            n_states = np.searchsorted(rank[a:b], ent_rank[lo:hi], "right") - s0
            cell = np.repeat(np.arange(lo, hi), n_states)
            state = np.arange(cell.size) + np.repeat(s0 - n_states.cumsum() + n_states, n_states)
            p = pos[a:b][state]
            count = np.searchsorted(acts, (ent[cell] << sh) + p) - before[cell]
            # one stable sort ranks each (position, bank) group by count; a group's cells come in
            # row order, so ties go to the lower row.  The key is below (b - a) * nb * cmax, with
            # b - a <= 2**20 + 1 and cmax <= act_cap + n + 1: 2**46 at 16 banks, 64 ms, 49 ns
            group = state * nb + bank[cell]
            cmax = int(count.max(initial=0)) + 1
            top = np.argsort(group * cmax + (cmax - 1 - count), kind="stable")
            by_group = group[top]
            in_top = count[top] > 0  # and fewer than cap cells of its group before it
            in_top[cap:] &= by_group[cap:] != by_group[:-cap]
            top = top[in_top]
            p, g = p[top], ent[cell[top]] % N
            r = g % nr
            out_p, out_g = [], []
            for d in range(1, self.trr.neighbor_radius + 1):
                for sel, ref in ((r >= d, g - d), (r + d < nr, g + d)):
                    out_p.append(p[sel])
                    out_g.append(ref[sel])
            yield np.concatenate(out_p), np.concatenate(out_g)
            a = b

    def _sweep(self, cand, row_key, act_t, ticks, tick_at, sh, trr_pos, trr_vic) -> tuple[np.ndarray, np.ndarray]:
        """Record the flips of candidate victims; returns (candidate index, position) per flip.

        Each victim's neighbor ACTs are cut into segments by its refreshes
        (round robin and TRR); exposure is the cumulative count within a
        segment, plus the carried exposure in a segment no refresh began.
        A flip is the first ACT of a segment that meets the rule while the
        victim is armed.
        """
        none = np.zeros(0, dtype=np.int64)
        if not cand.size:
            return none, none
        nr = self.nr
        vrow = cand % nr
        aggressor = np.concatenate((np.where(vrow > 0, cand - 1, -1), np.where(vrow < nr - 1, cand + 1, -1)))
        a = np.searchsorted(row_key, aggressor << sh)
        count = np.searchsorted(row_key, (aggressor + 1) << sh) - a
        vic = np.repeat(np.tile(np.arange(cand.size), 2), count)
        is_lo = np.repeat(np.arange(2 * cand.size) < cand.size, count)
        p = row_key[np.arange(vic.size) + np.repeat(a - count.cumsum() + count, count)] & (1 << sh) - 1
        order = np.argsort((vic << sh) + p)  # distinct keys: a victim's two sides are two rows
        vic, is_lo, p = vic[order], is_lo[order], p[order]

        # segment number: round-robin sweeps past the victim plus TRR
        # refreshes of it, both counted up to each ACT
        rpr = self.rows_per_ref
        rr = (ticks[np.searchsorted(tick_at, p, "right")] * rpr - 1 - vrow[vic]) // nr
        trr = (np.concatenate(trr_vic) << sh) + np.concatenate(trr_pos)
        trr.sort()
        seg = rr + np.searchsorted(trr, (vic << sh) + p, "right") - np.searchsorted(trr, vic << sh)
        carried = seg == ((self.ticks * rpr - 1 - vrow) // nr)[vic]
        new = np.ones(vic.size, dtype=bool)
        new[1:] = (vic[1:] != vic[:-1]) | (seg[1:] != seg[:-1])
        seg_id = new.cumsum() - 1
        starts = np.flatnonzero(new)
        lo = is_lo.cumsum()
        lo -= (lo - is_lo)[starts][seg_id]
        hi = (~is_lo).cumsum()
        hi -= (hi - ~is_lo)[starts][seg_id]
        lo += np.where(carried, self.exp_lo[cand][vic], 0)
        hi += np.where(carried, self.exp_hi[cand][vic], 0)
        armed = ~carried | self.armed[cand][vic]

        # thresholds against the larger side: the class's counts times the
        # victim's multiplier, inf for a side past the bank edge
        low_side = lo >= hi
        edge = np.where(low_side, vrow[vic] == 0, vrow[vic] == nr - 1)
        mult = np.where(edge, np.inf, self.vmap.multiplier[cand][vic])
        td = self.double * mult
        double = (lo >= td / 2) & (hi >= td / 2)
        eff = np.where(double, lo + hi, np.maximum(lo, hi))
        thr = np.where(double, td, self.single * mult)
        hits = np.flatnonzero(armed & (eff >= thr))
        _, first_hit = np.unique(seg_id[hits], return_index=True)
        f = hits[first_hit]
        f = f[np.lexsort((cand[vic[f]], p[f]))]

        for i in f.tolist():
            bank, row = divmod(int(cand[vic[i]]), nr)
            self.flips.append(BitFlip(
                bank, row, self.bit_positions, int(act_t[p[i]]), int(eff[i]),
                "double" if double[i] else "single", self.fill, self.fill, float(thr[i]),
            ))
        return vic[f], p[f]

    # -- windows -------------------------------------------------------------
    def _count_windows(self, acts: np.ndarray, ent: np.ndarray, first: np.ndarray, wins: np.ndarray, sh: int) -> None:
        """Add the chunk's ACTs per entity to the window counts, closing finished windows.

        Raises at the first ACT that takes its bank past act_cap in its
        window.  The chunk's entities are sorted, so each bank's ACTs in a
        window are one run of acts.
        """
        N, nr, cap = self.nb * self.nr, self.nr, self.cfg.act_cap
        bounds = np.append(first, acts.size)  # each entity's first ACT in acts, then the end
        rank = ent // N
        ranks = sorted_unique(rank, presorted=True)
        ends = np.searchsorted(rank, ranks).tolist() + [ent.size]
        for r, a, b in zip(ranks.tolist(), ends, ends[1:]):
            if r:
                self._roll_to(int(wins[r]))
            rows, c = ent[a:b] % N, bounds[a + 1:b + 1] - bounds[a:b]
            self.win_counts[rows] += c
            self.win_rows = sorted_unique(np.concatenate((self.win_rows, rows)))
            before = self.bank_acts
            self.bank_acts = before + np.bincount(rows // nr, weights=c, minlength=self.nb).astype(np.int64)
            over = np.flatnonzero(self.bank_acts > cap)
            if over.size:  # each over bank's ACTs, and the one past the cap, in trace order
                runs = bounds[a + np.searchsorted(rows // nr, np.stack((over, over + 1)))]
                _, bank = min((np.sort(acts[i:j] & (1 << sh) - 1)[cap - before[k]], k)
                              for k, i, j in zip(over.tolist(), *runs.tolist()))
                raise TraceRateError(
                    f"bank {bank} exceeds {cap} activations in window "
                    f"{self.window}: the trace outruns the row-cycle budget"
                )

    def _roll_to(self, index: int) -> None:
        """Close the held window and every empty window before index."""
        nb, nr = self.nb, self.nr
        rows = self.win_rows
        row_acts = dict(zip(zip((rows // nr).tolist(), (rows % nr).tolist()), self.win_counts[rows].tolist()))
        self.windows.append(WindowSummary(self.window, self.window * self.cfg.window_ns,
                                          row_acts, self.bank_acts.tolist()))
        for i in range(self.window + 1, index):
            self.windows.append(WindowSummary(i, i * self.cfg.window_ns, {}, [0] * nb))
        self.win_counts[rows] = 0
        self.win_rows = rows[:0]
        self.bank_acts = np.zeros(nb, dtype=np.int64)
        self.window = index

    def finish(self) -> SimulationResult:
        last = 0 if self.last_t is None else int(_multiples(np.array([self.last_t]), self.cfg.window_ns)[0])
        self._roll_to(last + 1)
        return SimulationResult(self.windows, self.flips, self.total_events, self.total_acts)


def simulate_trace(
    trace: EventColumns | Iterable,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Run the access trace through the bank/row state machine.

    Accepts EventColumns, or any iterable of (time_ns, paddr, kind, size)
    tuples or of EventColumns blocks (a generator streams long replays
    without materializing them).  Raises ValueError at the first event
    that goes back in time or leaves the module, and TraceRateError at
    the first ACT that takes a bank past act_cap in one aligned refresh
    window.
    """
    if trr is None:
        trr = TrrConfig()
    if vmap is None:
        vmap = VulnerabilityMap.from_seed(mapping, seed)
    if contents is None:
        contents = RowContents()
    eng = _ColumnEngine(cfg, mapping, thresholds, trr, vmap, contents)
    for columns in _event_chunks(trace, CHUNK_EVENTS):
        eng.feed(*columns)
    return eng.finish()
