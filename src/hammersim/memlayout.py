"""Server-side buffer layout and physical access-trace generation.

Aggregation state lives in pinned 2 MB huge pages: per-layer metadata and
value blocks, per-layer accumulator and writeback buffers, and one global
ingress queue.  A page table maps 2 MB-aligned virtual pages to physical
frames; a configurable DRAM address hash then splits physical addresses
into (bank, row, column).

An AccessScript is the logical access pattern of a block of consecutive
rounds: per round its update message, and either per entry run its layer
and range, or per round the PieceTemplates entry it plays.  A template is
a round's events after its ingress write, built once from the round's
runs and played any number of times.  trace_update_processing turns a
script into time-stamped physical event columns, playing a script of runs
as one template per round.  Each message occupies size_bytes / bandwidth
seconds, its events are spaced uniformly, and the writeback events land
on the round boundary.
Contiguous element runs become single burst events, split at row and page
borders, which leaves the per-bank row-activation sequence identical to
per-element events while keeping traces tractable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .federation import PARAM_BITS, ModelSpec
from .metrics import BandwidthModel
from .seeding import generator

__all__ = [
    "PAGE_BYTES",
    "DramMapping",
    "Region",
    "MemoryLayout",
    "build_layout",
    "SCRIPT_REGIONS",
    "AccessScript",
    "PieceTemplates",
    "physical_to_dram",
    "dram_to_physical",
    "EventColumns",
    "AccessTrace",
    "trace_update_processing",
]

PAGE_BYTES = 2 * 1024 * 1024  # pinned huge pages

ACCUMULATOR_ELEM_BITS = 32  # accumulator and writeback entries are 4-byte
DEFAULT_METADATA_BYTES = 64
DEFAULT_INGRESS_BYTES = 1 << 20


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DramMapping:
    """Physical address to (bank, row, column) hash.

    Column bits are the low log2(row_size_bytes) bits.  The bank index is
    the next log2(bank_count) bits, XOR-folded with the same number of
    bits directly above them when bank_xor is set.  Row bits are
    everything above the column+bank fields.
    """

    bank_count: int = 16
    rows_per_bank: int = 8192
    row_size_bytes: int = 8192
    bank_xor: bool = True

    def __post_init__(self) -> None:
        if not _is_pow2(self.bank_count):
            raise ValueError(f"bank_count must be a power of two, got {self.bank_count}")
        if not _is_pow2(self.row_size_bytes):
            raise ValueError(f"row_size_bytes must be a power of two, got {self.row_size_bytes}")
        if self.rows_per_bank <= 0:
            raise ValueError(f"rows_per_bank must be positive, got {self.rows_per_bank}")

    @property
    def col_bits(self) -> int:
        return self.row_size_bytes.bit_length() - 1

    @property
    def bank_bits(self) -> int:
        return self.bank_count.bit_length() - 1

    @property
    def capacity_bytes(self) -> int:
        return self.bank_count * self.rows_per_bank * self.row_size_bytes


def physical_to_dram(paddr: int, m: DramMapping) -> tuple[int, int, int]:
    """(bank, row, column) of a physical byte address."""
    if not 0 <= paddr < m.capacity_bytes:
        raise ValueError(f"paddr {paddr:#x} outside capacity {m.capacity_bytes:#x}")
    col = paddr & (m.row_size_bytes - 1)
    bank_field = (paddr >> m.col_bits) & (m.bank_count - 1)
    row = paddr >> (m.col_bits + m.bank_bits)
    bank = bank_field
    if m.bank_xor:
        bank ^= row & (m.bank_count - 1)
    return bank, row, col


def dram_to_physical(bank: int, row: int, col: int, m: DramMapping) -> int:
    """Inverse of physical_to_dram."""
    if not 0 <= bank < m.bank_count:
        raise ValueError(f"bank {bank} out of range")
    if not 0 <= row < m.rows_per_bank:
        raise ValueError(f"row {row} out of range")
    if not 0 <= col < m.row_size_bytes:
        raise ValueError(f"col {col} out of range")
    bank_field = bank
    if m.bank_xor:
        bank_field ^= row & (m.bank_count - 1)
    return (row << (m.col_bits + m.bank_bits)) | (bank_field << m.col_bits) | col


@dataclass(frozen=True)
class Region:
    """One buffer: a virtual byte range plus its element width in bits."""

    name: str  # "metadata" | "values" | "accumulator" | "writeback" | "ingress"
    layer: int  # -1 for the global ingress queue
    virtual_start: int
    size_bytes: int
    elem_bits: int

    @property
    def virtual_end(self) -> int:
        return self.virtual_start + self.size_bytes


@dataclass
class MemoryLayout:
    spec: ModelSpec
    mapping: DramMapping
    regions: dict[tuple[str, int], Region]
    page_table: dict[int, int]  # virtual page index -> physical frame index
    seed: int

    def region(self, name: str, layer: int = -1) -> Region:
        try:
            return self.regions[(name, layer)]
        except KeyError:
            raise KeyError(f"no region {name!r} for layer {layer}") from None

    # Lookup tables for the columnar trace stage, built on first use (a
    # layout is not changed after build_layout).
    @cached_property
    def _script_region_table(self) -> np.ndarray:
        """Arrays virtual_start, elem_bits, virtual_end; entry r * (layers + 1) + layer + 1
        is SCRIPT_REGIONS[r] of that layer (an empty range where there is none)."""
        width = len(self.spec.layers) + 1
        table = np.zeros((3, len(SCRIPT_REGIONS) * width), dtype=np.int64)
        for code, name in enumerate(SCRIPT_REGIONS):
            for layer in range(-1, width - 1):
                region = self.regions.get((name, layer))
                if region is not None:
                    table[:, code * width + layer + 1] = (
                        region.virtual_start, region.elem_bits, region.virtual_end)
        return table

    @cached_property
    def _frame_table(self) -> np.ndarray:
        """Physical frame per virtual page, -1 where unmapped; never empty, so _translate can index it."""
        frames = np.full(max(self.page_table, default=0) + 1, -1, dtype=np.int64)
        frames[list(self.page_table)] = list(self.page_table.values())
        return frames


def build_layout(
    spec: ModelSpec,
    capacity_bytes: int | None,
    mapping: DramMapping,
    seed: int,
    *,
    ingress_bytes: int = DEFAULT_INGRESS_BYTES,
    metadata_bytes: int = DEFAULT_METADATA_BYTES,
) -> MemoryLayout:
    """Place regions contiguously in virtual space and map their pages.

    Physical 2 MB frames are drawn without replacement from a seeded
    shuffle of the module's frame pool, so the layout is deterministic per
    seed.  Virtual regions are packed back to back, each aligned to the
    DRAM row size (buffers this large get row-aligned allocations in
    practice): metadata and values per layer first, then accumulator and
    writeback per layer, then the ingress queue.
    """
    if capacity_bytes is None:
        capacity_bytes = mapping.capacity_bytes
    if capacity_bytes > mapping.capacity_bytes:
        raise ValueError("capacity_bytes exceeds the mapped module capacity")
    if ingress_bytes <= 0:
        raise ValueError("ingress_bytes must be positive")
    if metadata_bytes < 0:
        raise ValueError("metadata_bytes must be non-negative")
    if mapping.row_size_bytes > PAGE_BYTES:
        raise ValueError("row size larger than a huge page is not supported")

    regions: dict[tuple[str, int], Region] = {}
    cursor = 0
    align = max(64, mapping.row_size_bytes)

    def place(name: str, layer: int, size: int, elem_bits: int) -> None:
        nonlocal cursor
        cursor = -(-cursor // align) * align
        regions[(name, layer)] = Region(name, layer, cursor, size, elem_bits)
        cursor += size

    for i, layer in enumerate(spec.layers):
        place("metadata", i, metadata_bytes, 8)
        place("values", i, -(-(layer.element_count * PARAM_BITS) // 8), PARAM_BITS)
    for i, layer in enumerate(spec.layers):
        place("accumulator", i, layer.element_count * (ACCUMULATOR_ELEM_BITS // 8), ACCUMULATOR_ELEM_BITS)
        place("writeback", i, layer.element_count * (ACCUMULATOR_ELEM_BITS // 8), ACCUMULATOR_ELEM_BITS)
    place("ingress", -1, ingress_bytes, 8)

    pages_needed = -(-cursor // PAGE_BYTES)
    frames_available = capacity_bytes // PAGE_BYTES
    if pages_needed > frames_available:
        raise ValueError(
            f"layout needs {pages_needed} huge pages but capacity holds {frames_available}"
        )
    rng = generator(seed, "page-table")
    frames = rng.permutation(frames_available)[:pages_needed]
    page_table = {page: int(frames[page]) for page in range(pages_needed)}
    return MemoryLayout(spec, mapping, regions, page_table, int(seed))


# Regions an access script touches, in the order of the layout's region table.
SCRIPT_REGIONS = ("ingress", "accumulator", "writeback", "values")


@dataclass(frozen=True)
class AccessScript:
    """A block of consecutive rounds: per round its message, and its entry
    runs or the template it plays.

    Round r's message lands at ingress_offset[r].  When template is given,
    round r plays entry template[r] of a PieceTemplates and has no runs
    (runs[r] is 0); otherwise its runs[r] entry runs follow those of the
    rounds before it.  A run is count entries from offset of layer, in the layer's
    accumulator, writeback and values buffers.  In trace order a round is:
    ingress write, an accumulator read and write per run, then at the
    round's end an accumulator read, writeback write and values write per
    run.
    """

    size_bytes: np.ndarray  # per round: update message bytes
    ingress_offset: np.ndarray  # per round: where the message lands in the ingress queue
    runs: np.ndarray  # per round: number of entry runs
    layer: np.ndarray  # per run
    offset: np.ndarray  # per run: first entry, within the layer
    count: np.ndarray  # per run: entries
    template: np.ndarray | None = None  # per round: the template it plays


@dataclass(frozen=True)
class EventColumns:
    """Physical events in trace order: time, address and size per event."""

    time_ns: np.ndarray
    paddr: np.ndarray
    size: np.ndarray

    def __len__(self) -> int:
        return self.time_ns.size


@dataclass
class AccessTrace:
    events: EventColumns
    end_ns: int  # end of the last round


def _ranges(layout: MemoryLayout, region, layer, offset, count, by_column=False) -> tuple[np.ndarray, np.ndarray]:
    """Virtual [start, end) byte ranges of count elements from offset, in
    region SCRIPT_REGIONS[region] of layer, flattened in broadcast order
    (of the transposed broadcast with by_column)."""
    width = len(layout.spec.layers) + 1
    key = np.asarray(region * width + layer + 1)
    base, bits, limit = layout._script_region_table.take(key.ravel(), axis=1).reshape((3,) + key.shape)
    start = base + (offset * bits >> 3)  # floor and ceil of bits / 8
    end = base - (-(offset + count) * bits >> 3)
    bad = (offset < 0) | (count <= 0) | (end > limit)
    if bad.any():
        i = bad.argmax()
        key, offset, count = (np.broadcast_to(a, bad.shape).ravel()[i] for a in (key, offset, count))
        region, layer = divmod(int(key), width)
        raise ValueError(f"op [{offset}, {offset + count}) invalid or outside "
                         f"region {SCRIPT_REGIONS[region]}/{layer - 1}")
    if by_column:
        start, end = start.T, end.T
    return start.ravel(), end.ravel()


def _row_pieces(start: np.ndarray, end: np.ndarray, row_size: int) -> tuple[np.ndarray, ...]:
    """Cut every [start, end) range at row borders.

    Returns (pieces per range, piece start, piece size); piece k of a
    range covers its part of the k-th row the range touches.  May reuse
    start as the piece starts.
    """
    shift = row_size.bit_length() - 1  # the row size is a power of two
    first_row = start >> shift
    n_pieces = ((end - 1) >> shift) - first_row + 1
    if n_pieces.size == 0 or n_pieces.max() == 1:  # no range crosses a row
        return n_pieces, start, end - start
    row = np.arange(n_pieces.sum()) - (n_pieces.cumsum() - n_pieces - first_row).repeat(n_pieces)
    row <<= shift
    piece_start = np.maximum(row, start.repeat(n_pieces))
    row += row_size
    size = np.minimum(row, end.repeat(n_pieces))
    size -= piece_start
    return n_pieces, piece_start, size


_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1


def _translate(layout: MemoryLayout, addr: np.ndarray) -> None:
    """Turn virtual addresses into physical ones in place, through the page table."""
    frames = layout._frame_table
    page = addr >> _PAGE_SHIFT
    frame = frames[np.minimum(page, frames.size - 1)]
    unmapped = (page >= frames.size) | (frame < 0)
    if unmapped.any():
        raise ValueError(f"vaddr {addr[unmapped.nonzero()[0][0]]:#x} not mapped")
    frame -= page
    frame <<= _PAGE_SHIFT
    addr += frame


def _segments(runs: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rounds' events after their ingress writes, as segments of consecutive
    piece positions, in trace order.

    Round r is its runs[r] runs' ops: an accumulator read and write per
    run, then an accumulator read, writeback write and values write per
    run.  Run j touches three ranges, 3j (accumulator), 3j + 1 (writeback)
    and 3j + 2 (values), and first holds each range's first piece (then the
    end), so a round's writeback ops are one segment.  Returns per segment
    its start and length, each round's first segment (then the end), and
    each round's writeback segment.
    """
    round_seg = np.zeros(runs.size + 1, dtype=np.int64)
    (2 * runs + 1).cumsum(out=round_seg[1:])
    writeback = round_seg[1:] - 1
    start = np.empty(round_seg[-1], dtype=np.int64)
    length = np.empty_like(start)
    # run j of round r reads and writes its accumulator range 3j at
    # round_seg[r] + 2 * (j - runs before r); the round's ranges, run by
    # run, are its writeback ops
    round_runs = np.zeros(runs.size + 1, dtype=np.int64)
    runs.cumsum(out=round_runs[1:])
    message_op = 2 * np.arange(round_runs[-1]) + (round_seg[:-1] - 2 * round_runs[:-1]).repeat(runs)
    accumulator = first[:-1:3]
    start[message_op] = start[message_op + 1] = accumulator
    length[message_op] = length[message_op + 1] = first[1::3] - accumulator
    ends = first[3 * round_runs]
    start[writeback], length[writeback] = ends[:-1], ends[1:] - ends[:-1]
    return start, length, round_seg, writeback


def _gather_index(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source position of every event of the segments, and each segment's
    first event (then the end)."""
    bounds = np.zeros(start.size + 1, dtype=np.int64)
    length.cumsum(out=bounds[1:])
    return np.arange(bounds[-1]) + (start - bounds[:-1]).repeat(length), bounds


class PieceTemplates:
    """Time-free events of rounds, built once and played any number of times.

    Template s is one round's events after its ingress write, in trace
    order: an accumulator read and write per entry run (the message), then
    an accumulator read, writeback write and values write per run (the
    writeback).  It holds events[s] events of the paddr and size columns
    from start[s], the first message[s] of them in the message.  The
    columns grow by doubling; past the templates' events they stage a
    block's ingress pieces.
    """

    def __init__(self):
        self.paddr = np.zeros(0, dtype=np.int64)  # the first n_events are kept and dropped templates' events
        self.size = np.zeros(0, dtype=np.int64)
        self.n_events = 0
        self.start = np.zeros(0, dtype=np.int64)
        self.message = np.zeros(0, dtype=np.int64)
        self.events = np.zeros(0, dtype=np.int64)

    def add(self, layout: MemoryLayout, script: AccessScript) -> None:
        """Build one template per round of script, from its runs (its ingress
        columns are not read).

        Only each run's three byte ranges are cut at rows and translated."""
        start, end = _ranges(layout, np.arange(1, 4)[:, None], script.layer, script.offset, script.count,
                             by_column=True)
        n_pieces, paddr, size = _row_pieces(start, end, layout.mapping.row_size_bytes)
        _translate(layout, paddr)
        first = np.zeros(n_pieces.size + 1, dtype=np.int64)
        n_pieces.cumsum(out=first[1:])
        start, length, round_seg, writeback_seg = _segments(script.runs, first)
        src, bounds = _gather_index(start, length)
        at = self._reserve(src.size)
        np.take(paddr, src, out=self.paddr[at:at + src.size], mode="clip")  # clip: unbuffered
        np.take(size, src, out=self.size[at:at + src.size], mode="clip")
        self.n_events += src.size
        first = bounds[round_seg]  # each template's first event, then the end
        self.start = np.concatenate((self.start, at + first[:-1]))
        self.message = np.concatenate((self.message, bounds[writeback_seg] - first[:-1]))
        self.events = np.concatenate((self.events, first[1:] - first[:-1]))

    def keep(self, kept: np.ndarray) -> None:
        """Keep only the templates kept (ascending), numbered 0, 1, ... in
        that order, and drop the others.

        The kept templates' events stay where they are until the dropped
        events reach them in number; then one gather moves them to the front
        of the columns.  So the columns hold at most twice the kept events
        (and what was added since).
        """
        self.start, self.message, self.events = self.start[kept], self.message[kept], self.events[kept]
        live = int(self.events.sum())
        if self.n_events - live >= live:
            src, bounds = _gather_index(self.start, self.events)
            self.paddr[:src.size] = self.paddr.take(src)
            self.size[:src.size] = self.size.take(src)
            self.start, self.n_events = bounds[:-1], src.size

    def _reserve(self, n: int) -> int:
        """Room for n events right after the templates' ones, growing the
        columns as needed; returns where it starts.  Events written there
        stay templates' events only if n_events then grows over them."""
        used = self.n_events
        if used + n > self.paddr.size:
            capacity = max(2 * self.paddr.size, used + n)
            for name in ("paddr", "size"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:used] = getattr(self, name)[:used]
                setattr(self, name, grown)
        return used


def trace_update_processing(
    layout: MemoryLayout,
    script: AccessScript,
    bw: BandwidthModel,
    start_time_ns: int = 0,
    templates: PieceTemplates | None = None,
) -> AccessTrace:
    """Physical access trace of a block of consecutive aggregation rounds.

    Rounds play back to back from start_time_ns.  A round's message
    occupies size_bytes / bandwidth, its events at int(i * step + start);
    its writeback events land on the round's integer end.  Each event is
    one burst inside one DRAM row (the row size divides the huge page).
    A round is its ingress pieces, then its template's events: from
    templates for a script that plays templates, else from one built here
    out of the round's runs.
    """
    played = script.template
    if played is None:
        templates = PieceTemplates()
        templates.add(layout, script)
        played = np.arange(script.size_bytes.size)
    n_ingress, ingress_addr, ingress_size = _row_pieces(*_ranges(
        layout, 0, -1, script.ingress_offset, script.size_bytes), layout.mapping.row_size_bytes)
    _translate(layout, ingress_addr)

    # stage the ingress pieces after the templates' events, and build the
    # block with one gather: per round, its ingress pieces, then its template
    at, n = templates._reserve(ingress_addr.size), ingress_addr.size
    templates.paddr[at:at + n], templates.size[at:at + n] = ingress_addr, ingress_size
    start = np.empty(2 * played.size, dtype=np.int64)
    length = np.empty_like(start)
    start[0::2], length[0::2] = at + n_ingress.cumsum() - n_ingress, n_ingress
    start[1::2], length[1::2] = templates.start[played], templates.events[played]
    src, bounds = _gather_index(start, length)
    paddr, size = templates.paddr[src], templates.size[src]

    # times, per segment: a round's message, then its writeback (step 0)
    time_bounds = bounds.copy()
    time_bounds[1::2] += templates.message[played]
    seg_events = time_bounds[1:] - time_bounds[:-1]
    budget_ns = script.size_bytes * 1e9 / bw.bytes_per_second
    seg_t0, t = [], start_time_ns
    for budget in budget_ns.tolist():  # the only per-round recurrence
        seg_t0 += [t, int(t + budget)]
        t = seg_t0[-1]
    seg_step = np.zeros(seg_events.size)
    seg_step[::2] = budget_ns / seg_events[::2]
    time_ns = (np.arange(time_bounds[-1]) - time_bounds[:-1].repeat(seg_events)) * seg_step.repeat(seg_events)
    time_ns += np.array(seg_t0, dtype=np.float64).repeat(seg_events)
    return AccessTrace(EventColumns(time_ns.astype(np.int64), paddr, size), t)
