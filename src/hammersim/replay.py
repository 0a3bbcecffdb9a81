"""Replay recorded update rounds through the layout and the DRAM engine.

Each round record (the union of client index sets) becomes one update
message: ingress-queue write, accumulator read+write per entry run, then
the round-end writeback.  Rounds play back to back at the modeled link
bandwidth, which makes the accumulator rows the hottest rows of the
module and lets the measured per-window ACT counts be compared against
the analytic budget floor(window_bytes / S_update).

Note on open-row semantics: a row only re-activates each round if some
other access to the same bank closes it in between.  Single-bank module
configs guarantee that; on multi-bank hashes the interleaving depends on
where the layout lands.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import metrics
from .dram import (
    DramConfig,
    RowContents,
    SimulationResult,
    ThresholdTable,
    TrrConfig,
    VulnerabilityMap,
    simulate_trace,
)
from .federation import PARAM_BITS, RoundRecord
from .memlayout import AccessScript, EventColumns, MemoryLayout, PieceTemplates, trace_update_processing
from .metrics import BandwidthModel

__all__ = [
    "BLOCK_EVENTS", "BATCH_INDICES", "ReplayCache", "ReplaySummary", "runs_script", "round_script", "replay_records",
]


# Rounds become events a block at a time.  A block holds whole consecutive
# rounds with at most this many events between them (a larger round is a
# block of its own), which bounds the memory of the columns.
BLOCK_EVENTS = 1 << 15
# Templates are built in windows of consecutive records with at most this
# many indices between them (at least one record).
BATCH_INDICES = 1 << 14


def _ring(records: Sequence[RoundRecord], sizes: np.ndarray, capacity: int, offset: int) -> np.ndarray:
    """Where each message of sizes (records[i] sends message i) lands in the
    ingress ring of capacity bytes: the first at offset, each next one right
    after it, and one that would overflow the ring at 0; one step per wrap."""
    too_large = sizes > capacity
    if too_large.any():
        raise ValueError(f"round {records[too_large.argmax()].round_number}: update larger than the ingress queue")
    start = np.zeros(sizes.size + 1, dtype=np.int64)  # each message's start in the stream, then the end
    sizes.cumsum(out=start[1:])
    ring = np.empty_like(sizes)
    i, base = 0, -offset  # messages from i on land at their start minus base
    while i < sizes.size:
        wrap = int(start[1:].searchsorted(base + capacity, "right"))
        ring[i:wrap] = start[i:wrap] - base
        i, base = wrap, start[wrap]
    return ring


def runs_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    metadata_bytes_per_entry: int = 0,
    ingress_offset: int = 0,
) -> AccessScript:
    """Access script replaying consecutive recorded rounds, one message each,
    with every record's entry runs.

    Each record's indices must be sorted ascending, without repeats, and
    inside the model.  The ingress queue is a ring buffer: the first
    message lands at ingress_offset (see _ring).
    """
    if not records:
        raise ValueError("no rounds to script")
    spec = layout.spec
    n_params = spec.total_params
    counts = np.array([record.indices.size for record in records], dtype=np.int64)
    if not counts.all():
        raise ValueError(f"round {records[counts.argmin()].round_number}: empty record")
    round_bounds = np.zeros(counts.size + 1, dtype=np.int64)  # where each round's indices start, then the end
    counts.cumsum(out=round_bounds[1:])
    idx = np.concatenate([r.indices for r in records])
    unsorted = idx[1:] <= idx[:-1]
    unsorted[round_bounds[1:-1] - 1] = False  # a round may start below the one before it ends
    if unsorted.any():
        r = round_bounds.searchsorted(unsorted.argmax(), "right") - 1
        raise ValueError(f"round {records[r].round_number}: record indices must be sorted and unique")
    low, high = idx[round_bounds[:-1]], idx[round_bounds[1:] - 1]
    outside = (low < 0) | (high >= n_params)
    if outside.any():
        r = outside.argmax()
        bad = low[r] if low[r] < 0 else high[r]
        raise ValueError(f"round {records[r].round_number}: index {bad} outside the model [0, {n_params})")
    sizes = metrics.update_bytes(counts, PARAM_BITS, metadata_bytes_per_entry)
    ring = _ring(records, sizes, layout.region("ingress").size_bytes, ingress_offset)

    # entry runs, split at index gaps, round changes and layer borders:
    # adding the number of layer borders at or below each index turns a
    # border into a gap.  run_bounds holds each run's start, then the end.
    stepped = idx
    for border in spec.layer_offsets[1:-1]:
        stepped = stepped + (idx >= border)
    new_run = np.empty(idx.size + 1, dtype=bool)
    np.not_equal(stepped[1:], stepped[:-1] + 1, out=new_run[1:-1])
    new_run[round_bounds] = True
    run_bounds = new_run.nonzero()[0]
    run_start = run_bounds[:-1]
    run_layer = stepped[run_start] - idx[run_start]
    run_offset = idx[run_start] - np.array(spec.layer_offsets)[run_layer]
    round_runs = run_bounds.searchsorted(round_bounds)  # each round's first run, then n_runs
    return AccessScript(
        size_bytes=sizes,
        ingress_offset=ring,
        runs=round_runs[1:] - round_runs[:-1],
        layer=run_layer,
        offset=run_offset,
        count=run_bounds[1:] - run_start,
    )


class ReplayCache:
    """What one replay knows of its rounds, and keeps from block to block.

    Each round's index array is numbered once, here, by the array object
    (the records hold them all, so no key is reused; equal-content copies
    get numbers of their own), in the order the arrays first play, so the
    arrays built so far are 0 .. built - 1.  Per round it holds its array's
    number, message bytes, ingress ring offset and ingress piece count; per
    array its first and last round and its template's slot in templates
    (-1 until it is built and once it is dropped).
    """

    def __init__(self, layout: MemoryLayout, records: Sequence[RoundRecord], meta: int):
        number: dict[int, int] = {}
        self.owner = np.fromiter((number.setdefault(id(r.indices), len(number)) for r in records),
                                 np.int64, len(records))
        _, first = np.unique(self.owner, return_index=True)
        _, from_end = np.unique(self.owner[::-1], return_index=True)
        self.first = np.append(first, len(records))  # then the end
        self.last = len(records) - 1 - from_end
        self.length = np.array([records[r].indices.size for r in first.tolist()], dtype=np.int64)
        self.meta = meta
        self.size_bytes = metrics.update_bytes(self.length, PARAM_BITS, meta)[self.owner]
        ingress = layout.region("ingress")
        self.ingress_offset = _ring(records, self.size_bytes, ingress.size_bytes, 0)
        shift = layout.mapping.row_size_bytes.bit_length() - 1
        start = ingress.virtual_start + self.ingress_offset
        self.ingress_pieces = ((start + self.size_bytes - 1) >> shift) - (start >> shift) + 1
        self.templates = PieceTemplates()
        self.built = 0
        self.slot = np.full(self.length.size, -1, dtype=np.int64)
        self.arrays = np.zeros(0, dtype=np.int64)  # per template: its array

    def build(self, layout: MemoryLayout, records: Sequence[RoundRecord], at: int) -> None:
        """Templates of every unbuilt array in the window of rounds from
        records[at] on, the first round of the first unbuilt array, with at
        most BATCH_INDICES indices between them (at least one round)."""
        indices = self.length[self.owner[at:at + BATCH_INDICES]].cumsum()  # a round holds at least one index
        end = at + max(1, int(indices.searchsorted(BATCH_INDICES, "right")))
        new = np.arange(self.built, self.owner[at:end].max() + 1)
        self.templates.add(layout, runs_script(layout, [records[r] for r in self.first[new].tolist()], self.meta))
        self.slot[new] = np.arange(self.arrays.size, self.arrays.size + new.size)
        self.arrays = np.concatenate((self.arrays, new))
        self.built = int(new[-1]) + 1

    def drop_before(self, first: int) -> None:
        """Drop the templates that no round from records[first] on plays."""
        kept = (self.last[self.arrays] >= first).nonzero()[0]
        if kept.size < self.arrays.size:
            self.templates.keep(kept)
            self.slot[self.arrays] = -1
            self.arrays = self.arrays[kept]
            self.slot[self.arrays] = np.arange(kept.size)


def round_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    cache: ReplayCache,
    first: int,
) -> AccessScript:
    """Access script of the next block of a replay: the rounds from
    records[first] on, as many as fit in BLOCK_EVENTS events (at least one),
    one message each, at the ingress ring offsets of cache.

    Every round plays the template of its index array.  The cache first
    drops the templates whose array's last round has passed.  The block
    takes rounds while they fit; a round whose array has no template yet
    first builds the templates of its window (see ReplayCache.build), so
    each array is built once.
    """
    cache.drop_before(first)
    end, n = first, 0  # the block so far: its rounds end before end, with n events
    while end < cache.owner.size:
        if cache.slot[cache.owner[end]] < 0:
            cache.build(layout, records, end)
        stop = min(int(cache.first[cache.built]), end + BLOCK_EVENTS)  # a round has at least one event
        events = cache.templates.events[cache.slot[cache.owner[end:stop]]] + cache.ingress_pieces[end:stop]
        total = events.cumsum() + n
        fit = max(int(total.searchsorted(BLOCK_EVENTS, "right")), int(end == first))
        end += fit
        if end < stop:
            break
        n = int(total[-1])

    block = slice(first, end)
    empty = np.zeros(0, dtype=np.int64)
    return AccessScript(
        size_bytes=cache.size_bytes[block],
        ingress_offset=cache.ingress_offset[block],
        runs=np.zeros(end - first, dtype=np.int64), layer=empty, offset=empty, count=empty,
        template=cache.slot[cache.owner[block]],
    )


def _event_blocks(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    bw: BandwidthModel,
    metadata_bytes_per_entry: int,
    blocks: list[tuple[float, int]],
) -> Iterator[EventColumns]:
    """Physical event columns of consecutive rounds, back to back, one block at a time.

    The clock and the cache carry over from block to block, never from one
    call to the next.  For each block, its wall time in round_script and
    trace_update_processing and its message bytes are appended to blocks;
    the first block's time includes setting up the cache.
    """
    started = time.perf_counter()
    cache = ReplayCache(layout, records, metadata_bytes_per_entry)
    t = played = 0
    while played < len(records):
        script = round_script(layout, records, cache, played)
        played += script.size_bytes.size
        trace = trace_update_processing(layout, script, bw, t, cache.templates)
        blocks.append((time.perf_counter() - started, int(script.size_bytes.sum())))
        t = trace.end_ns
        yield trace.events
        del trace  # free the block's columns before building the next block
        started = time.perf_counter()


@dataclass
class ReplaySummary:
    result: SimulationResult
    rounds: int
    h_max_analytic: int
    measured_max_row_acts: int
    # wall time in trace generation, and in the rest of replay_records
    trace_seconds: float = field(compare=False)
    engine_seconds: float = field(compare=False)

    @property
    def act_ratio(self) -> float:
        """Measured hottest-row ACTs per window over the analytic budget."""
        if self.h_max_analytic == 0:
            return 0.0
        return self.measured_max_row_acts / self.h_max_analytic


def replay_records(
    records: list[RoundRecord],
    layout: MemoryLayout,
    dram_cfg: DramConfig,
    bw: BandwidthModel,
    thresholds: ThresholdTable,
    *,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    sim_seed: int = 0,
    metadata_bytes_per_entry: int = 0,
) -> ReplaySummary:
    """Replay a full record list and cross-check the activation budget.

    The analytic column uses the mean update size over the replayed
    rounds: H_max = floor(window_bytes / mean_size); for a constant-size
    trace this is exact.
    """
    started = time.perf_counter()
    if not records:
        raise ValueError("no rounds to replay")
    blocks: list[tuple[float, int]] = []
    result = simulate_trace(
        _event_blocks(layout, records, bw, metadata_bytes_per_entry, blocks), dram_cfg, layout.mapping,
        thresholds, trr=trr, vmap=vmap, contents=contents, seed=sim_seed,
    )
    trace = sum(seconds for seconds, _ in blocks)
    mean_size = Fraction(sum(n for _, n in blocks), len(records))
    return ReplaySummary(
        result=result,
        rounds=len(records),
        h_max_analytic=metrics.h_max(bw, mean_size, dram_cfg.refresh_period_s),
        measured_max_row_acts=result.max_row_acts(),
        trace_seconds=trace,
        engine_seconds=time.perf_counter() - started - trace,
    )
