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


def runs_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    metadata_bytes_per_entry: int = 0,
    ingress_offset: int = 0,
) -> AccessScript:
    """Access script replaying consecutive recorded rounds, one message each,
    with every record's entry runs.

    The ingress queue is a ring buffer: the first message lands at
    ingress_offset, each next one right after it, and a message that would
    overflow the queue wraps to offset 0.
    """
    if not records:
        raise ValueError("no rounds to script")
    spec = layout.spec
    n_params = spec.total_params
    ingress_size = layout.region("ingress").size_bytes
    sizes, ring = [], []
    round_bounds = [0]  # where each round's indices start in the block, then the end
    offset = ingress_offset
    for record in records:
        idx = record.indices
        if not idx.size:
            raise ValueError(f"round {record.round_number}: empty record")
        if idx[0] < 0 or idx[-1] >= n_params:
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise ValueError(f"round {record.round_number}: index {bad} outside the model [0, {n_params})")
        size = metrics.update_bytes(idx.size, PARAM_BITS, metadata_bytes_per_entry)
        if size > ingress_size:
            raise ValueError(f"round {record.round_number}: update larger than the ingress queue")
        if offset + size > ingress_size:
            offset = 0
        sizes.append(size)
        ring.append(offset)
        round_bounds.append(round_bounds[-1] + idx.size)
        offset += size

    # entry runs, split at index gaps, round changes and layer borders:
    # adding the number of layer borders at or below each index turns a
    # border into a gap.  run_bounds holds each run's start, then the end.
    idx = np.concatenate([r.indices for r in records])
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
        size_bytes=np.array(sizes, dtype=np.int64),
        ingress_offset=np.array(ring, dtype=np.int64),
        runs=round_runs[1:] - round_runs[:-1],
        layer=run_layer,
        offset=run_offset,
        count=run_bounds[1:] - run_start,
    )


class ReplayCache:
    """What one replay keeps from block to block: a template per index array
    it has met, until the array's last round has passed."""

    def __init__(self, records: Sequence[RoundRecord]):
        self.last = {id(record.indices): i for i, record in enumerate(records)}  # each array's last round
        self.templates = PieceTemplates()
        self.until = np.zeros(0, dtype=np.int64)  # per template: its array's last round

    def build(self, layout: MemoryLayout, records: Sequence[RoundRecord], at: dict, meta: int) -> None:
        """Templates of the records at the places at.values(), keyed by at's keys."""
        self.templates.add(layout, runs_script(layout, [records[i] for i in at.values()], meta), list(at))
        self.until = np.concatenate((self.until, [self.last[key] for key in at]))

    def drop_before(self, first: int) -> None:
        """Drop the templates that no round from records[first] on plays."""
        kept = (self.until >= first).nonzero()[0]
        if kept.size < self.until.size:
            self.templates.keep(kept)
            self.until = self.until[kept]


def _window(records: Sequence[RoundRecord], first: int) -> range:
    """The records from records[first] on with at most BATCH_INDICES indices
    between them (at least one)."""
    n = 0
    for i in range(first, len(records)):
        n += records[i].indices.size
        if n > BATCH_INDICES and i > first:
            return range(first, i)
    return range(first, len(records))


def round_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    metadata_bytes_per_entry: int,
    ingress_offset: int,
    cache: ReplayCache,
    first: int,
) -> AccessScript:
    """Access script of the next block of a replay: the rounds from
    records[first] on, as many as fit in BLOCK_EVENTS events (at least one),
    one message each, the first landing at ingress_offset in the ingress
    ring (see runs_script).

    Every round plays the template of its index array; the key is the array
    object (the records hold every keyed array, so no key is reused).  The
    cache first drops the templates whose array's last round has passed.
    A round whose array has none yet builds the templates of every unbuilt
    array in its window (see _window), so each array is built once.
    """
    ingress = layout.region("ingress")
    ingress_size, base = ingress.size_bytes, ingress.virtual_start
    row = layout.mapping.row_size_bytes
    cache.drop_before(first)
    templates = cache.templates
    find, message_bytes, template_events = templates.find, templates.size_bytes, templates.event_counts
    sizes, ring, played = [], [], []
    offset, n = ingress_offset, 0
    for i in range(first, len(records)):
        s = find.get(id(records[i].indices))
        if s is None:
            at = {}
            for j in _window(records, i):
                key = id(records[j].indices)
                if key not in find and key not in at:
                    at[key] = j
            cache.build(layout, records, at, metadata_bytes_per_entry)
            s = find[id(records[i].indices)]
        size = message_bytes[s]
        if offset + size > ingress_size:
            offset = 0
        start = base + offset
        k = template_events[s] + (start + size - 1) // row - start // row + 1
        if played and n + k > BLOCK_EVENTS:
            break
        n += k
        sizes.append(size)
        ring.append(offset)
        offset += size
        played.append(s)

    empty = np.zeros(0, dtype=np.int64)
    return AccessScript(
        size_bytes=np.array(sizes, dtype=np.int64),
        ingress_offset=np.array(ring, dtype=np.int64),
        runs=np.zeros(len(played), dtype=np.int64), layer=empty, offset=empty, count=empty,
        template=np.array(played, dtype=np.int64),
    )


def _event_blocks(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    bw: BandwidthModel,
    metadata_bytes_per_entry: int,
    blocks: list[tuple[float, int]],
) -> Iterator[EventColumns]:
    """Physical event columns of consecutive rounds, back to back, one block at a time.

    The ingress ring offset, the clock and the cache carry over from block
    to block, never from one call to the next.  For each block, its wall
    time in round_script and trace_update_processing and its message bytes
    are appended to blocks.
    """
    cache = ReplayCache(records)
    offset = 0
    t = 0
    played = 0
    while played < len(records):
        started = time.perf_counter()
        script = round_script(layout, records, metadata_bytes_per_entry, offset, cache, played)
        played += script.size_bytes.size
        offset = int(script.ingress_offset[-1] + script.size_bytes[-1])
        trace = trace_update_processing(layout, script, bw, t, cache.templates)
        blocks.append((time.perf_counter() - started, int(script.size_bytes.sum())))
        t = trace.end_ns
        yield trace.events
        del trace  # free the block's columns before building the next block


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
