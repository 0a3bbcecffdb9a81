"""Server-side buffer layout and physical address mapping.

Aggregation state lives in pinned 2 MB huge pages: per-layer metadata and
value blocks, per-layer accumulator and writeback buffers, and one global
ingress queue.  A page table maps 2 MB-aligned virtual pages to physical
frames; a configurable DRAM address hash then splits physical addresses
into (bank, row, column).

The address helpers work on columns: ranges gives the virtual byte
ranges of element runs of the regions an update touches, row_pieces cuts
ranges at row borders, and translate maps virtual addresses to physical
ones through the page table.  hammersim.replay builds its access traces
from them as EventColumns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .federation import PARAM_BITS, ModelSpec
from .seeding import generator

__all__ = [
    "PAGE_BYTES",
    "DramMapping",
    "Region",
    "MemoryLayout",
    "build_layout",
    "SCRIPT_REGIONS",
    "physical_to_dram",
    "dram_to_physical",
    "EventColumns",
    "ranges",
    "row_pieces",
    "translate",
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

    def flat_row(self, paddr: np.ndarray) -> np.ndarray:
        """bank * rows_per_bank + row per physical address: physical_to_dram's hash on arrays, unchecked."""
        g = paddr >> self.col_bits  # the block number, turned into the flat row in place
        row = g >> self.bank_bits
        if self.bank_xor:
            g ^= row
        g &= self.bank_count - 1
        g *= self.rows_per_bank
        g += row
        return g


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

    # Lookup tables for the address helpers, built on first use (a
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
        """Physical frame per virtual page, -1 where unmapped; never empty, so translate can index it."""
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


# Regions a round's events touch, in the order of the layout's region table.
SCRIPT_REGIONS = ("ingress", "accumulator", "writeback", "values")


@dataclass(frozen=True)
class EventColumns:
    """Physical events in trace order: time, address and size per event."""

    time_ns: np.ndarray
    paddr: np.ndarray
    size: np.ndarray

    def __len__(self) -> int:
        return self.time_ns.size


def ranges(layout: MemoryLayout, region, layer, offset, count, by_column=False) -> tuple[np.ndarray, np.ndarray]:
    """Virtual [start, end) byte ranges of count elements from offset, in
    region SCRIPT_REGIONS[region] of layer, flattened in broadcast order
    (column by column with by_column, for a 2-D broadcast)."""
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
    if by_column:  # stacking the rows as columns copies them faster than .T.ravel()
        start, end = np.stack(start, axis=-1), np.stack(end, axis=-1)
    return start.ravel(), end.ravel()


def row_pieces(start: np.ndarray, end: np.ndarray, row_size: int) -> tuple[np.ndarray, ...]:
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


def translate(layout: MemoryLayout, addr: np.ndarray) -> None:
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
