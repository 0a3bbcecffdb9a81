"""Server-side buffer layout and physical access-trace generation.

Aggregation state lives in pinned 2 MB huge pages: per-layer metadata and
value blocks, per-layer accumulator and writeback buffers, and one global
ingress queue.  A page table maps 2 MB-aligned virtual pages to physical
frames; a configurable DRAM address hash then splits physical addresses
into (bank, row, column).

An AccessScript is the logical access pattern of a block of consecutive
rounds, held as op columns: per round the update message's ops (ingress
write, accumulator read+write per entry run) and the round-end writeback
ops.  trace_update_processing turns it into time-stamped physical event
columns.  Each message occupies size_bytes / bandwidth seconds, its
events are spaced uniformly, and the writeback events land on the round
boundary.
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
        """Physical frame per virtual page, -1 where the page is not mapped."""
        frames = np.full(max(self.page_table, default=-1) + 1, -1, dtype=np.int64)
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


# Regions an access script touches; the script's region column indexes this.
SCRIPT_REGIONS = ("ingress", "accumulator", "writeback", "values")


@dataclass(frozen=True)
class AccessScript:
    """A block of consecutive rounds as op columns, in the order the ops run.

    Per round the update message's ops come first (ingress write, then an
    accumulator read and write per entry run), then its round-end
    writeback ops (accumulator read, writeback write, values write per
    run).  Offsets and counts are in elements of the op's region; the
    layout resolves them to physical byte ranges.
    """

    size_bytes: np.ndarray  # per round: update message bytes
    ingress_offset: np.ndarray  # per round: where the message lands in the ingress queue
    op_round: np.ndarray  # per op: index into the block's rounds
    writeback: np.ndarray  # per op: bool, a round-end writeback op
    region: np.ndarray  # per op: index into SCRIPT_REGIONS
    layer: np.ndarray  # per op: -1 for the global ingress queue
    offset: np.ndarray
    count: np.ndarray
    write: np.ndarray  # per op: bool, "W" where set, else "R"


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


def _op_byte_ranges(layout: MemoryLayout, script: AccessScript) -> tuple[np.ndarray, np.ndarray]:
    """Virtual [start, end) byte range of every op of the script."""
    key = script.region * (len(layout.spec.layers) + 1) + script.layer + 1
    base, bits, limit = (column[key] for column in layout._script_region_table)
    start = base + script.offset * bits // 8
    end = base - (-(script.offset + script.count) * bits // 8)
    bad = (script.offset < 0) | (script.count <= 0) | (end > limit)
    if bad.any():
        i = bad.nonzero()[0][0]
        raise ValueError(
            f"op [{script.offset[i]}, {script.offset[i] + script.count[i]}) invalid or outside "
            f"region {SCRIPT_REGIONS[script.region[i]]}/{script.layer[i]}"
        )
    return start, end


def _row_pieces(start: np.ndarray, end: np.ndarray, row_size: int) -> tuple[np.ndarray, ...]:
    """Cut every [start, end) range at row borders.

    Returns (pieces per range, piece start, piece size); piece k of a
    range covers its part of the k-th row the range touches.
    """
    first_row = start // row_size
    n_pieces = (end - 1) // row_size - first_row + 1
    row = np.arange(n_pieces.sum()) - (n_pieces.cumsum() - n_pieces - first_row).repeat(n_pieces)
    row *= row_size
    piece_start = np.maximum(row, start.repeat(n_pieces))
    row += row_size
    size = np.minimum(row, end.repeat(n_pieces))
    size -= piece_start
    return n_pieces, piece_start, size


def _translate(layout: MemoryLayout, addr: np.ndarray) -> None:
    """Turn virtual addresses into physical ones in place, through the page table."""
    frames = layout._frame_table
    page = addr // PAGE_BYTES
    frame = frames[np.minimum(page, frames.size - 1)]
    unmapped = (page >= frames.size) | (frame < 0)
    if unmapped.any():
        raise ValueError(f"vaddr {addr[unmapped.nonzero()[0][0]]:#x} not mapped")
    frame -= page
    frame *= PAGE_BYTES
    addr += frame


def _piece_times(
    script: AccessScript, n_pieces: np.ndarray, bw: BandwidthModel, start_time_ns: int
) -> tuple[np.ndarray, int]:
    """Time of every piece, and the end of the block's last round.

    Each round is a message segment of ops, then a writeback segment.
    Rounds start at the previous round's integer end (the only per-round
    recurrence); message piece i of a round is at int(start + i * step),
    and writeback pieces are at the round's end (step 0).
    """
    budget_ns = script.size_bytes * 1e9 / bw.bytes_per_second
    seg_t0 = []
    t = start_time_ns
    for budget in budget_ns.tolist():
        start = t
        t = int(t + budget)
        seg_t0 += (start, t)
    seg = 2 * script.op_round + script.writeback
    piece_bounds = np.zeros(seg.size + 1, dtype=np.int64)  # each op's first piece, then the end
    n_pieces.cumsum(out=piece_bounds[1:])
    seg_first_piece = piece_bounds[seg.searchsorted(np.arange(len(seg_t0)))]
    message_pieces = seg_first_piece[1::2] - seg_first_piece[::2]
    if not message_pieces.all():
        raise ValueError("update message with no operations")
    seg_step = np.zeros(len(seg_t0))
    seg_step[::2] = budget_ns / message_pieces
    i = np.arange(piece_bounds[-1]) - seg_first_piece[seg].repeat(n_pieces)
    time_ns = i * seg_step[seg].repeat(n_pieces)
    time_ns += np.array(seg_t0, dtype=np.float64)[seg].repeat(n_pieces)
    return time_ns.astype(np.int64), t


def trace_update_processing(
    layout: MemoryLayout,
    script: AccessScript,
    bw: BandwidthModel,
    start_time_ns: int = 0,
) -> AccessTrace:
    """Physical access trace of a block of consecutive aggregation rounds.

    Rounds play back to back from start_time_ns.  A round's message
    occupies size_bytes / bandwidth; its pieces are spaced uniformly over
    that budget, and its writeback pieces land on the round's end.  Each
    piece is one burst that stays inside one DRAM row; the row size divides
    the huge page, so no piece crosses a page either.
    """
    n_pieces, paddr, size = _row_pieces(*_op_byte_ranges(layout, script), layout.mapping.row_size_bytes)
    _translate(layout, paddr)
    time_ns, end_ns = _piece_times(script, n_pieces, bw, start_time_ns)
    return AccessTrace(EventColumns(time_ns, paddr, size), end_ns)
