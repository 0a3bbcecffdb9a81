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
from typing import Iterable, Iterator, Sequence

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
from .memlayout import AccessScript, EventColumns, MemoryLayout, trace_update_processing
from .metrics import BandwidthModel

__all__ = ["BLOCK_INDICES", "ReplaySummary", "round_script", "replay_records"]


# Rounds become events a block at a time.  A block holds whole consecutive
# rounds with at most this many record indices between them (a larger
# round is a block of its own), which bounds the memory of the columns.
BLOCK_INDICES = 8192


def round_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    metadata_bytes_per_entry: int = 0,
    ingress_offset: int = 0,
) -> AccessScript:
    """Access script replaying consecutive recorded rounds, one message each.

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


def _blocks(records: Iterable[RoundRecord]) -> Iterator[list[RoundRecord]]:
    """Consecutive records grouped into blocks of at most BLOCK_INDICES indices."""
    block: list[RoundRecord] = []
    n = 0
    for record in records:
        k = record.indices.size
        if block and n + k > BLOCK_INDICES:
            yield block
            block, n = [], 0
        block.append(record)
        n += k
    if block:
        yield block


def _event_blocks(
    layout: MemoryLayout,
    records: Iterable[RoundRecord],
    bw: BandwidthModel,
    metadata_bytes_per_entry: int,
    trace_seconds: list[float],
) -> Iterator[EventColumns]:
    """Physical event columns of consecutive rounds, back to back, one block at a time.

    The ingress ring offset and the clock carry over from block to block.
    Each block's wall time in round_script and trace_update_processing is
    appended to trace_seconds.
    """
    offset = 0
    t = 0
    for block in _blocks(records):
        started = time.perf_counter()
        script = round_script(layout, block, metadata_bytes_per_entry, offset)
        offset = int(script.ingress_offset[-1] + script.size_bytes[-1])
        trace = trace_update_processing(layout, script, bw, t)
        trace_seconds.append(time.perf_counter() - started)
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
    total_bytes = sum(metrics.update_bytes(r.indices.size, PARAM_BITS, metadata_bytes_per_entry) for r in records)
    mean_size = Fraction(total_bytes, len(records))
    hmax = metrics.h_max(bw, mean_size, dram_cfg.refresh_period_s)
    trace_seconds: list[float] = []
    result = simulate_trace(
        _event_blocks(layout, records, bw, metadata_bytes_per_entry, trace_seconds), dram_cfg, layout.mapping,
        thresholds, trr=trr, vmap=vmap, contents=contents, seed=sim_seed,
    )
    trace = sum(trace_seconds)
    return ReplaySummary(
        result=result,
        rounds=len(records),
        h_max_analytic=hmax,
        measured_max_row_acts=result.max_row_acts(),
        trace_seconds=trace,
        engine_seconds=time.perf_counter() - started - trace,
    )
