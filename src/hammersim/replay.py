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
from .memlayout import (
    AccessScript, EventColumns, MemoryLayout, PieceTemplates, RunPieces, run_pieces, trace_update_processing,
)
from .metrics import BandwidthModel

__all__ = [
    "BLOCK_EVENTS", "BATCH_INDICES", "TEMPLATE_EVENTS", "ReplayCache", "ReplaySummary", "runs_script", "round_script",
    "replay_records",
]


# Rounds become events a block at a time.  A block holds whole consecutive
# rounds with at most this many events between them (a larger round is a
# block of its own), which bounds the memory of the columns.
BLOCK_EVENTS = 1 << 15
# Records are built in batches of consecutive records with at most this many
# indices between them (at least one record).
BATCH_INDICES = 1 << 14
# A record whose index array comes more than once in a replay gets a
# template, built once and kept for the replay, while the kept templates
# hold fewer than this many events; the others are built each time they come.
TEMPLATE_EVENTS = 1 << 19


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


class _Batch:
    """Built rounds of records that get no template, played in order."""

    def __init__(self, layout: MemoryLayout, records: Sequence[RoundRecord], at: list[int], meta: int):
        self.at = at  # each round's place in the replay's records
        self.script = runs_script(layout, [records[i] for i in at], meta)
        self.pieces = run_pieces(layout, self.script)
        self.round_runs = np.zeros(len(at) + 1, dtype=np.int64)  # each round's first run, then the end
        self.script.runs.cumsum(out=self.round_runs[1:])
        n = self.pieces.first[1:] - self.pieces.first[:-1]
        run_events = np.zeros(self.script.layer.size + 1, dtype=np.int64)
        (3 * n[0::3] + n[1::3] + n[2::3]).cumsum(out=run_events[1:])
        # per round: message bytes, and events after the ingress write
        self.sizes = self.script.size_bytes.tolist()
        self.events = (run_events[self.round_runs[1:]] - run_events[self.round_runs[:-1]]).tolist()
        self.played = 0

    def rounds(self, a: int, b: int) -> tuple[tuple[np.ndarray, ...], RunPieces]:
        """Rounds a to b: their runs per round, layer, offset and count per
        run, and the runs' pieces."""
        script, j0, j1 = self.script, self.round_runs[a], self.round_runs[b]
        first = self.pieces.first[3 * j0:3 * j1 + 1]
        p0, p1 = first[0], first[-1]
        runs = script.runs[a:b], script.layer[j0:j1], script.offset[j0:j1], script.count[j0:j1]
        return runs, RunPieces(first - p0, self.pieces.paddr[p0:p1], self.pieces.size[p0:p1])


class ReplayCache:
    """What one replay keeps from block to block: the templates of records
    whose index array comes more than once, and the built rounds of the
    others that no block has played yet."""

    def __init__(self, records: Sequence[RoundRecord]):
        seen, self.repeated = set(), set()
        for record in records:
            key = id(record.indices)
            (self.repeated if key in seen else seen).add(key)
        self.templates = PieceTemplates()
        self.batch: _Batch | None = None

    def templated(self, key: int) -> bool:
        """Whether a record whose array has no template yet gets one."""
        return key in self.repeated and self.templates.n_events < TEMPLATE_EVENTS


def _window(records: Sequence[RoundRecord], first: int) -> range:
    """The records from records[first] on with at most BATCH_INDICES indices
    between them (at least one)."""
    n = 0
    for i in range(first, len(records)):
        n += records[i].indices.size
        if n > BATCH_INDICES and i > first:
            return range(first, i)
    return range(first, len(records))


def _join(parts: list[tuple[tuple[np.ndarray, ...], RunPieces]]) -> tuple[tuple[np.ndarray, ...], RunPieces]:
    """A block's built rounds, from the batches' rounds in order (as
    _Batch.rounds gives them)."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return (empty,) * 4, RunPieces(np.zeros(1, dtype=np.int64), empty, empty)
    runs, pieces = zip(*parts)
    ends = np.cumsum([p.paddr.size for p in pieces])
    first = np.concatenate([p.first[:-1] + end - p.paddr.size for p, end in zip(pieces, ends)] + [ends[-1:]])
    return (tuple(np.concatenate(column) for column in zip(*runs)),
            RunPieces(first, np.concatenate([p.paddr for p in pieces]), np.concatenate([p.size for p in pieces])))


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

    A record whose index array the cache templates plays its template; the
    key is the array object (the records hold every keyed array, so no key
    is reused).  Templates and the other records are built here, in
    batches, the first time a block meets them, and each is built once.
    """
    ingress = layout.region("ingress")
    ingress_size, base = ingress.size_bytes, ingress.virtual_start
    row = layout.mapping.row_size_bytes
    templates = cache.templates
    find, message_bytes, template_events = templates.find, templates.size_bytes, templates.event_counts
    sizes, ring, played = [], [], []
    spans: list[tuple[_Batch, int]] = []  # each batch the block plays from, and its first round there
    offset, n = ingress_offset, 0
    for i in range(first, len(records)):
        key = id(records[i].indices)
        s = find.get(key)
        if s is None and cache.templated(key):  # build the window's new templates
            at = {}
            for j in _window(records, i):
                k = id(records[j].indices)
                if k not in find and k not in at and cache.templated(k):
                    at[k] = j
            templates.add(layout, runs_script(layout, [records[j] for j in at.values()], metadata_bytes_per_entry),
                          list(at))
            s = find[key]
        if s is not None:
            size, events = message_bytes[s], template_events[s]
        else:
            batch = cache.batch
            if batch is None or batch.played == len(batch.at) or batch.at[batch.played] != i:
                at = [j for j in _window(records, i)
                      if id(records[j].indices) not in find and not cache.templated(id(records[j].indices))]
                batch = cache.batch = _Batch(layout, records, at, metadata_bytes_per_entry)
            size, events = batch.sizes[batch.played], batch.events[batch.played]
        if offset + size > ingress_size:
            offset = 0
        start = base + offset
        k = events + (start + size - 1) // row - start // row + 1
        if played and n + k > BLOCK_EVENTS:
            break
        n += k
        sizes.append(size)
        ring.append(offset)
        offset += size
        if s is not None:
            played.append(s)
            continue
        played.append(-1)
        if not spans or spans[-1][0] is not batch:
            spans.append((batch, batch.played))
        batch.played += 1

    template = np.array(played, dtype=np.int64)
    (built_runs, layer, run_offset, count), pieces = _join([b.rounds(a, b.played) for b, a in spans])
    runs = np.zeros(template.size, dtype=np.int64)
    runs[template < 0] = built_runs
    return AccessScript(
        size_bytes=np.array(sizes, dtype=np.int64),
        ingress_offset=np.array(ring, dtype=np.int64),
        runs=runs, layer=layer, offset=run_offset, count=count,
        template=template, pieces=pieces,
    )


def _event_blocks(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    bw: BandwidthModel,
    metadata_bytes_per_entry: int,
    trace_seconds: list[float],
) -> Iterator[EventColumns]:
    """Physical event columns of consecutive rounds, back to back, one block at a time.

    The ingress ring offset, the clock and the cache carry over from block
    to block, never from one call to the next.  Each block's
    wall time in round_script and trace_update_processing is appended to
    trace_seconds.
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
