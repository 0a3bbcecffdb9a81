"""Replay recorded update rounds through the layout and the DRAM engine.

Each round record (the union of client index sets) becomes one update
message: ingress-queue write, accumulator read+write per entry run, then
the round-end writeback.  Rounds play back to back at the modeled link
bandwidth, which makes the accumulator rows the hottest rows of the
module and lets the measured per-window ACT counts be compared against
the analytic budget floor(window_bytes / S_update).

This module owns a round's access model.  ReplayCache numbers a replay's
index arrays and holds, per array, its template: the time-free physical
events of its rounds after the ingress write, built once from the
array's entry runs and played any number of times.  round_script cuts the
rounds into blocks of one engine chunk, and trace_update_processing turns
a block into time-stamped event columns.  Each message occupies
size_bytes / bandwidth seconds, its events are spaced uniformly, and the
writeback events land on the round boundary.  Contiguous element runs
become single burst events, split at row and page borders, and the engine
is handed only each template's events that can open a row.  That leaves
the per-bank row-activation sequence identical to per-element events
while keeping traces tractable; total_events still counts every event.

Note on open-row semantics: a row only re-activates each round if some
other access to the same bank closes it in between.  Single-bank module
configs guarantee that; on multi-bank hashes the interleaving depends on
where the layout lands.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from . import dram, metrics
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
from .memlayout import DramMapping, EventColumns, MemoryLayout, ranges, row_pieces, translate
from .metrics import BandwidthModel

__all__ = [
    "BATCH_INDICES", "AccessTrace", "RecordError", "ReplayCache", "ReplaySummary", "round_script",
    "trace_update_processing", "replay_records",
]


# Templates are built in windows of consecutive records with at most this
# many indices between them (at least one record).
BATCH_INDICES = 1 << 14


class RecordError(ValueError):
    """A round that cannot be replayed; the message names the round."""


def _ring(sizes: np.ndarray, capacity: int) -> np.ndarray:
    """Where each message of sizes, none larger than capacity, lands in the
    ingress ring of capacity bytes: the first at 0, each next one right
    after it, and one that would overflow the ring at 0; one step per wrap."""
    start = np.zeros(sizes.size + 1, dtype=np.int64)  # each message's start in the stream, then the end
    sizes.cumsum(out=start[1:])
    ring = np.empty_like(sizes)
    i = 0
    while i < sizes.size:  # messages from i on land at their start minus start[i]
        wrap = int(start[1:].searchsorted(start[i] + capacity, "right"))
        ring[i:wrap] = start[i:wrap] - start[i]
        i = wrap
    return ring


def _entry_runs(layout: MemoryLayout, records: Sequence[RoundRecord]) -> tuple[np.ndarray, ...]:
    """Entry runs of the records' index arrays: per record its number of
    runs, and per run its layer, first entry within the layer and entries.

    Each record's indices must be sorted ascending without repeats (a
    RecordError names the record's round); ReplayCache checked the rest.
    """
    spec = layout.spec
    counts = np.array([record.indices.size for record in records], dtype=np.int64)
    round_bounds = np.zeros(counts.size + 1, dtype=np.int64)  # where each record's indices start, then the end
    counts.cumsum(out=round_bounds[1:])
    idx = np.concatenate([r.indices for r in records])
    unsorted = idx[1:] <= idx[:-1]
    unsorted[round_bounds[1:-1] - 1] = False  # a record may start below the one before it ends
    if unsorted.any():
        r = round_bounds.searchsorted(unsorted.argmax(), "right") - 1
        raise RecordError(f"round {records[r].round_number}: record indices must be sorted and unique")

    # runs split at index gaps, record changes and layer borders: adding
    # the number of layer borders at or below each index turns a border
    # into a gap.  run_bounds holds each run's start, then the end.
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
    round_runs = run_bounds.searchsorted(round_bounds)  # each record's first run, then n_runs
    return round_runs[1:] - round_runs[:-1], run_layer, run_offset, run_bounds[1:] - run_start


def _row_opening(
    mapping: DramMapping, paddr: np.ndarray, runs: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The events of rounds' templates that can open a row: a bank's first in
    its template, one in another row than its bank's event before, and the
    template's last (the round's end).  Any other finds its row open,
    whatever played before.

    Round r's template is, per run of its runs[r], the run's accumulator
    range read and written (the message), then every run's accumulator,
    writeback and values ranges (the writeback).  Run j's ranges are 3j ..
    3j + 2, and first holds each range's first piece in paddr (then the
    end).  Returns the kept events' pieces and places in their templates,
    each template's first kept event (then the end), its kept message
    events, and its message and event counts, row hits counted.
    """
    round_runs = np.append(0, runs.cumsum())
    ends = first[3 * round_runs]  # each template's first piece, then the end
    g = mapping.flat_row(paddr)
    bank = (g // mapping.rows_per_bank).astype(np.min_scalar_type(mapping.bank_count - 1))
    g += (np.arange(runs.size) * (mapping.bank_count * mapping.rows_per_bank)).repeat(np.diff(ends))  # templates apart
    # dram.row_activations' rule for an event and the one right before it:
    # an op's pieces lie in distinct rows (regions are row-aligned), so only
    # its first event can hit it (a read the write of the run before, a write
    # its read, the writeback the message's last write); dropped here early
    acc = first[:-1:3]
    n = first[1::3] - acc
    head, tail = g[acc], g[acc + n - 1]
    read, write = np.append(False, head[1:] == tail[:-1]), head == tail
    wb = head[round_runs[:-1]] == tail[round_runs[1:] - 1]
    done = np.append(0, n.cumsum())  # accumulator pieces before each run, then all
    message = 2 * np.diff(done[round_runs])
    # the reads, writes and writebacks left holding events, in trace order
    # (run j's read and write as 4j and 4j + 2), and each one's place in its
    # template less its first piece
    r, w = (n > read).nonzero()[0], (n > write).nonzero()[0]
    ops = np.concatenate((4 * r, 4 * w + 2, 4 * round_runs[1:] - 1)).argsort()
    start = np.concatenate((acc[r] + read[r], acc[w] + write[w], ends[:-1] + wb))[ops]
    length = np.concatenate((n[r] - read[r], n[w] - write[w], np.diff(ends) - wb))[ops]
    msg = np.concatenate((r, w))
    place = 2 * (done[msg] - done[round_runs[round_runs.searchsorted(msg, "right") - 1]]) - acc[msg]
    place[r.size:] += n[w]
    offset = np.append(place, message - ends[:-1])[ops]
    writeback = (ops >= msg.size).nonzero()[0]  # each template's writeback op
    src, bounds = _gather_index(start, length)
    keep = dram.row_activations(g[src], bank[src], np.full(mapping.bank_count, -1))  # no row open
    keep[bounds[writeback + 1] - 1] = True
    at = keep.nonzero()[0]
    stored = at.searchsorted(bounds[np.append(0, writeback + 1)])
    src = src[at]
    return (src, src + offset[bounds.searchsorted(at, "right") - 1], stored,
            at.searchsorted(bounds[writeback]) - stored[:-1], message, message + np.diff(ends))


def _gather_index(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source position of every event of the segments, and each segment's
    first event (then the end)."""
    bounds = np.append(0, length.cumsum())
    return np.arange(bounds[-1]) + (start - bounds[:-1]).repeat(length), bounds


class ReplayCache:
    """What one replay knows of its rounds, and the store of its templates.

    Each round's index array is numbered once, here, by the array object
    (the records hold them all, so no key is reused; equal-content copies
    get numbers of their own), in the order the arrays first play, so the
    arrays built so far are 0 .. built - 1.  Per round it holds its array's
    number, message bytes, ingress ring offset and ingress piece count; per
    array its first and last round.  It checks, before any event is built,
    that there are rounds and that each array holds indices, all inside the
    model, and its message fits the ingress queue (build checks that it is
    sorted); a RecordError names the first round of the first bad array.

    Array a's template is its rounds' events after the ingress write, in
    trace order: an accumulator read and write per entry run (the message),
    then an accumulator read, writeback write and values write per run (the
    writeback), full_events[a] events, full_message[a] in the message.  The
    store holds those that can open a row (_row_opening): events[a] events of
    the paddr, size and pos (place in the template) columns from start[a],
    the first message[a] in the message.  kept lists the arrays whose
    templates the store holds, ascending.  The columns grow by doubling;
    past the templates' events they stage a block's ingress pieces.
    """

    def __init__(self, layout: MemoryLayout, records: Sequence[RoundRecord], meta: int):
        if not records:
            raise RecordError("no rounds to replay")
        ids = np.fromiter(map(id, map(attrgetter("indices"), records)), np.uintp, len(records))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        _, from_end = np.unique(ids[::-1], return_index=True)
        # the arrays in first-play order (first's values are distinct, so any
        # sort gives it; np.unique above already ran the stable one)
        order = first.argsort(kind="stable")
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        self.owner = number[inverse]
        self.first = np.append(first[order], len(records))  # then the end
        self.last = len(records) - 1 - from_end[order]
        arrays = [records[r].indices for r in self.first[:-1].tolist()]
        self.length = np.fromiter(map(len, arrays), np.int64, len(arrays))
        ingress, n_params = layout.region("ingress"), layout.spec.total_params
        sizes = metrics.update_bytes(self.length, PARAM_BITS, meta)
        held = self.length > 0
        # each array's first index if negative, else its last (0 if it is empty)
        index = np.array([(a[0] if a[0] < 0 else a[-1]) if a.size else 0 for a in arrays], dtype=np.int64)
        bad = ~held | (index < 0) | (index >= n_params) | (sizes > ingress.size_bytes)
        if bad.any():
            a = int(bad.argmax())
            fault = ("empty record" if not held[a] else
                     f"index {index[a]} outside the model [0, {n_params})" if not 0 <= index[a] < n_params else
                     f"an update of {sizes[a]} bytes does not fit the {ingress.size_bytes}-byte ingress queue")
            raise RecordError(f"round {records[self.first[a]].round_number}: {fault}")
        self.size_bytes = sizes[self.owner]
        self.ingress_offset = _ring(self.size_bytes, ingress.size_bytes)
        start = ingress.virtual_start + self.ingress_offset
        self.ingress_pieces = row_pieces(start, start + self.size_bytes, layout.mapping.row_size_bytes)[0]
        # columns whose first n_events are kept and dropped templates' events
        self.paddr, self.size, self.pos = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self.n_events = 0
        self.start, self.message, self.events, self.full_message, self.full_events = (
            np.zeros(self.length.size, dtype=np.int64) for _ in range(5))
        self.built = 0
        self.kept = np.zeros(0, dtype=np.int64)

    def build(self, layout: MemoryLayout, records: Sequence[RoundRecord], at: int) -> None:
        """Templates of every unbuilt array in the window of rounds from
        records[at] on, the first round of the first unbuilt array, with at
        most BATCH_INDICES indices between them (at least one round).

        Only each entry run's three byte ranges are cut at rows and
        translated, and only the row-opening events are stored."""
        indices = self.length[self.owner[at:at + BATCH_INDICES]].cumsum()  # a round holds at least one index
        stop = at + max(1, int(indices.searchsorted(BATCH_INDICES, "right")))
        new = np.arange(self.built, self.owner[at:stop].max() + 1)
        runs, layer, offset, count = _entry_runs(layout, [records[r] for r in self.first[new].tolist()])
        start, end = ranges(layout, np.arange(1, 4)[:, None], layer, offset, count, by_column=True)
        n_pieces, paddr, size = row_pieces(start, end, layout.mapping.row_size_bytes)
        translate(layout, paddr)
        first = np.append(0, n_pieces.cumsum())
        src, pos, stored, message, full_message, full_events = _row_opening(layout.mapping, paddr, runs, first)
        base = self._reserve(src.size)
        end = self.n_events = base + src.size
        np.take(paddr, src, out=self.paddr[base:end], mode="clip")  # clip: unbuffered
        np.take(size, src, out=self.size[base:end], mode="clip")
        self.pos[base:end] = pos
        self.start[new], self.message[new], self.events[new] = base + stored[:-1], message, np.diff(stored)
        self.full_message[new], self.full_events[new] = full_message, full_events
        self.kept = np.concatenate((self.kept, new))
        self.built = int(new[-1]) + 1

    def drop_before(self, first: int) -> None:
        """Drop the templates that no round from records[first] on plays.

        The kept templates' events stay where they are until the dropped
        events reach them in number; then one gather moves them to the front
        of the columns.  So the columns hold at most twice the kept events
        (and what was added since).
        """
        kept = self.kept[self.last[self.kept] >= first]
        if kept.size < self.kept.size:
            self.kept = kept
            live = int(self.events[kept].sum())
            if self.n_events - live >= live:
                src, bounds = _gather_index(self.start[kept], self.events[kept])
                for column in (self.paddr, self.size, self.pos):
                    column[:src.size] = column.take(src)
                self.start[kept], self.n_events = bounds[:-1], src.size

    def _reserve(self, n: int) -> int:
        """Room for n events right after the templates' ones, growing the
        columns as needed; returns where it starts.  Events written there
        stay templates' events only if n_events then grows over them."""
        used = self.n_events
        if used + n > self.paddr.size:
            capacity = max(2 * self.paddr.size, used + n)
            for name in ("paddr", "size", "pos"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:used] = getattr(self, name)[:used]
                setattr(self, name, grown)
        return used


def round_script(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    cache: ReplayCache,
    first: int,
) -> slice:
    """The next block of a replay: the rounds from records[first] on, as
    many as fit in one engine chunk, dram.CHUNK_EVENTS events (at least one
    round; a longer round is a block of its own, which the engine cuts).

    Every round plays the template of its index array.  The cache first
    drops the templates whose array's last round has passed.  The block
    takes rounds while they fit; a round whose array has no template yet
    first builds the templates of its window (see ReplayCache.build), so
    each array is built once.
    """
    cache.drop_before(first)
    end, n = first, 0  # the block so far: its rounds end before end, with n events
    while end < cache.owner.size:
        if cache.owner[end] >= cache.built:
            cache.build(layout, records, end)
        stop = min(int(cache.first[cache.built]), end + dram.CHUNK_EVENTS)  # a round has at least one event
        events = cache.events[cache.owner[end:stop]] + cache.ingress_pieces[end:stop]
        total = events.cumsum() + n
        end += max(int(total.searchsorted(dram.CHUNK_EVENTS, "right")), int(end == first))
        if end < stop:
            break
        n = int(total[-1])
    return slice(first, end)


@dataclass
class AccessTrace:
    events: EventColumns
    end_ns: int  # end of the last round


def trace_update_processing(
    layout: MemoryLayout,
    cache: ReplayCache,
    block: slice,
    bw: BandwidthModel,
    start_time_ns: int,
) -> AccessTrace:
    """Physical access trace of a block of consecutive rounds of a replay.

    Rounds play back to back from start_time_ns.  A round's message
    occupies size_bytes / bandwidth, its i-th event (row hits counted) at
    int(i * step + start); its writeback events land on the round's integer
    end.  Each event is one burst inside one DRAM row (the row size divides
    the huge page).  A round is its ingress pieces, then its template.
    """
    size_bytes, played = cache.size_bytes[block], cache.owner[block]
    n_ingress, ingress_addr, ingress_size = row_pieces(*ranges(
        layout, 0, -1, cache.ingress_offset[block], size_bytes), layout.mapping.row_size_bytes)
    translate(layout, ingress_addr)

    # stage the ingress pieces after the templates' events (at places -n_ingress .. -1),
    # and build the block with one gather: per round, its ingress pieces, then its template
    at, n = cache._reserve(ingress_addr.size), ingress_addr.size
    cache.paddr[at:at + n], cache.size[at:at + n] = ingress_addr, ingress_size
    cache.pos[at:at + n] = np.arange(n) - n_ingress.cumsum().repeat(n_ingress)
    start = np.empty(2 * played.size, dtype=np.int64)
    length = np.empty_like(start)
    start[0::2], length[0::2] = at + n_ingress.cumsum() - n_ingress, n_ingress
    start[1::2], length[1::2] = cache.start[played], cache.events[played]
    src, bounds = _gather_index(start, length)
    paddr, size = cache.paddr[src], cache.size[src]

    # times, per segment: a round's message, then its writeback (step 0)
    time_bounds = bounds.copy()
    time_bounds[1::2] += cache.message[played]
    seg_events = time_bounds[1:] - time_bounds[:-1]
    budget_ns = size_bytes * 1e9 / bw.bytes_per_second
    seg_t0, t = [], start_time_ns
    for budget in budget_ns.tolist():  # the only per-round recurrence
        seg_t0 += [t, int(t + budget)]
        t = seg_t0[-1]
    seg_step = np.zeros(seg_events.size)
    seg_step[::2] = budget_ns / (n_ingress + cache.full_message[played])
    time_ns = (cache.pos[src] + n_ingress.repeat(bounds[2::2] - bounds[:-1:2])) * seg_step.repeat(seg_events)
    time_ns += np.array(seg_t0, dtype=np.float64).repeat(seg_events)
    return AccessTrace(EventColumns(time_ns.astype(np.int64), paddr, size), t)


def _event_blocks(
    layout: MemoryLayout,
    records: Sequence[RoundRecord],
    cache: ReplayCache,
    bw: BandwidthModel,
    seconds: list[float],
) -> Iterator[EventColumns]:
    """Physical event columns of the rounds of cache, back to back, one block at a time.

    The clock carries over from block to block, never from one call to the
    next.  Each block's wall time in round_script and
    trace_update_processing is appended to seconds.
    """
    t = played = 0
    while played < len(records):
        started = time.perf_counter()
        block = round_script(layout, records, cache, played)
        trace = trace_update_processing(layout, cache, block, bw, t)
        seconds.append(time.perf_counter() - started)
        played, t = block.stop, trace.end_ns
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
    cache = ReplayCache(layout, records, metadata_bytes_per_entry)
    seconds = [time.perf_counter() - started]
    result = simulate_trace(
        _event_blocks(layout, records, cache, bw, seconds), dram_cfg, layout.mapping,
        thresholds, trr=trr, vmap=vmap, contents=contents, seed=sim_seed,
    )
    # every round's ingress pieces and template events: the engine saw no row hits of templates
    result.total_events = int(cache.ingress_pieces.sum() + cache.full_events[cache.owner].sum())
    trace, mean_size = sum(seconds), Fraction(int(cache.size_bytes.sum()), len(records))
    return ReplaySummary(
        result=result,
        rounds=len(records),
        h_max_analytic=metrics.h_max(bw, mean_size, dram_cfg.refresh_period_s),
        measured_max_row_acts=result.max_row_acts(),
        trace_seconds=trace,
        engine_seconds=time.perf_counter() - started - trace,
    )
