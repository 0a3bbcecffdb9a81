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
otherwise.  Thresholds scale with a per-row multiplier.

Event ordering at coincident times: refresh commands fire before events
with the same timestamp, and before the aligned-window rollover when a
command lands exactly on a window boundary.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .memlayout import AccessTrace, DramMapping
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
    "ActivationLedger",
    "simulate_trace",
    "check_flip",
    "builtin_thresholds",
    "write_threshold_file",
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
    """Reference DDR4-2400 module thresholds (activations per window)."""
    return ThresholdTable(
        [
            ThresholdEntry(0xFF, 0x00, 185_000, 115_000),
            ThresholdEntry(0x00, 0xFF, 240_000, 140_000),
            ThresholdEntry(0x55, 0x55, 260_000, 160_000),
            ThresholdEntry(0xAA, 0xAA, 265_000, 165_000),
        ],
        published_average=240_000,
    )


def write_threshold_file(path, table: ThresholdTable) -> None:
    """Lines of victim_hex,aggressor_hex,mode,count."""
    with open(path, "w", encoding="ascii") as f:
        if table.published_average is not None:
            f.write(f"# published_average={table.published_average}\n")
        for e in table.entries:
            f.write(f"{e.victim_fill:#04x},{e.aggressor_fill:#04x},single,{e.single}\n")
            f.write(f"{e.victim_fill:#04x},{e.aggressor_fill:#04x},double,{e.double}\n")


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

    @classmethod
    def from_seed(
        cls,
        mapping: DramMapping,
        seed: int,
        probability: float = 0.95,
        multiplier_low: float = 1.0,
        multiplier_high: float = 1.0,
    ) -> "VulnerabilityMap":
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        if multiplier_low <= 0 or multiplier_high < multiplier_low:
            raise ValueError("need 0 < multiplier_low <= multiplier_high")
        n = mapping.bank_count * mapping.rows_per_bank
        rng = generator(seed, "vulnerability")
        vulnerable = rng.random(n) < probability
        if multiplier_high == multiplier_low:
            mult = np.full(n, multiplier_low)
        else:
            mult = rng.uniform(multiplier_low, multiplier_high, size=n)
        return cls(vulnerable, mult)

    @classmethod
    def all_vulnerable(cls, mapping: DramMapping) -> "VulnerabilityMap":
        n = mapping.bank_count * mapping.rows_per_bank
        return cls(np.ones(n, dtype=bool), np.ones(n))


class RowContents:
    """Majority byte per row: one default fill plus sparse overrides."""

    def __init__(self, default_fill: int = 0x00, overrides: dict[tuple[int, int], int] | None = None):
        if not 0 <= default_fill <= 0xFF:
            raise ValueError("default_fill out of byte range")
        self.default_fill = default_fill
        self.overrides = dict(overrides or {})
        for key, b in self.overrides.items():
            if not 0 <= b <= 0xFF:
                raise ValueError(f"override fill {b:#x} for {key} out of range")

    def fill(self, bank: int, row: int) -> int:
        return self.overrides.get((bank, row), self.default_fill)


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
    ledger: "ActivationLedger"
    total_events: int
    total_acts: int

    def max_row_acts(self) -> int:
        return max((w.max_row_acts() for w in self.windows), default=0)


class TraceRateError(ValueError):
    """Trace demands more ACTs per bank and window than the bus can issue."""


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


def _bit_positions(victim_fill: int, aggressor_fill: int) -> tuple[int, ...]:
    """Bits at risk: positions where the fills differ, else the victim's
    charged bits (identical-pattern classes still flip, just later)."""
    diff = victim_fill ^ aggressor_fill
    if diff == 0:
        diff = victim_fill
    return tuple(b for b in range(8) if (diff >> b) & 1)


class _Engine:
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


def simulate_trace(
    trace: AccessTrace | Iterable,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Run the access trace through the bank/row state machine.

    Accepts an AccessTrace or any iterable of AccessEvents (a generator
    streams long replays without materializing them).  Raises
    TraceRateError when any bank sees more activations inside one aligned
    refresh window than the row-cycle time permits.
    """
    events = trace.events if isinstance(trace, AccessTrace) else trace
    if trr is None:
        trr = TrrConfig()
    if vmap is None:
        vmap = VulnerabilityMap.from_seed(mapping, seed)
    if contents is None:
        contents = RowContents()
    eng = _Engine(cfg, mapping, thresholds, trr, vmap, contents)

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
    return SimulationResult(eng.windows, eng.flips, eng.ledger, n_events, eng.total_acts)


def check_flip(
    ledger: ActivationLedger,
    vmap: VulnerabilityMap,
    thresholds: ThresholdTable,
    contents: RowContents,
    time_ns: int = 0,
) -> list[BitFlip]:
    """Evaluate the flip condition for every armed row at the current state.

    Pure query: the ledger is not modified.  The engine applies the same
    rule incrementally as exposures grow.
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
