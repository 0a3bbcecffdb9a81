"""Server-side buffer layout and physical access-trace generation.

Aggregation state lives in pinned 2 MB huge pages: per-layer metadata and
value blocks, per-layer accumulator and writeback buffers, and one global
ingress queue.  A page table maps 2 MB-aligned virtual pages to physical
frames; a configurable DRAM address hash then splits physical addresses
into (bank, row, column).

An AccessScript is the logical access pattern of one round: the update
message's ops (ingress write, accumulator read+write per entry run) and
the round-end writeback ops.  trace_update_processing turns it into a
time-stamped physical event trace.  The message occupies size_bytes /
bandwidth seconds, its events are spaced uniformly, and the writeback
events land on the round boundary.
Contiguous element runs become single burst events, split at row and page
borders, which leaves the per-bank row-activation sequence identical to
per-element events while keeping traces tractable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .federation import ModelSpec
from .metrics import BandwidthModel
from .seeding import generator

__all__ = [
    "PAGE_BYTES",
    "DramMapping",
    "Region",
    "MemoryLayout",
    "build_layout",
    "ScriptOp",
    "AccessScript",
    "physical_to_dram",
    "dram_to_physical",
    "AccessEvent",
    "AccessTrace",
    "trace_update_processing",
    "write_trace",
    "read_trace",
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

    def byte_range_of_elems(self, offset: int, count: int) -> tuple[int, int]:
        """Virtual [start, end) byte range of an element run."""
        start_bit = offset * self.elem_bits
        end_bit = (offset + count) * self.elem_bits
        start = self.virtual_start + start_bit // 8
        end = self.virtual_start + -(-end_bit // 8)
        if end > self.virtual_end:
            raise ValueError(f"run [{offset}, {offset + count}) overflows region {self.name}/{self.layer}")
        return start, end


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

    def virtual_to_physical(self, vaddr: int) -> int:
        page, offset = divmod(vaddr, PAGE_BYTES)
        frame = self.page_table.get(page)
        if frame is None:
            raise ValueError(f"vaddr {vaddr:#x} not mapped")
        return frame * PAGE_BYTES + offset


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
        place("values", i, -(-(layer.element_count * layer.precision_bits) // 8), layer.precision_bits)
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


# Offsets and counts are in elements of the named region; the layout
# resolves them to physical byte ranges.
@dataclass(frozen=True)
class ScriptOp:
    region: str  # "ingress" | "accumulator" | "writeback" | "values"
    layer: int  # -1 for the global ingress queue
    offset: int
    count: int
    kind: str  # "R" | "W"

    def __post_init__(self) -> None:
        if self.region not in ("ingress", "accumulator", "writeback", "values"):
            raise ValueError(f"unknown region {self.region!r}")
        if self.kind not in ("R", "W"):
            raise ValueError(f"kind must be 'R' or 'W', got {self.kind!r}")
        if self.offset < 0 or self.count <= 0:
            raise ValueError("offset must be >= 0 and count positive")


@dataclass(frozen=True)
class AccessScript:
    """One round: the update message's ops plus round-end writeback ops."""

    round_number: int
    size_bytes: int
    ops: tuple[ScriptOp, ...]
    writeback_ops: tuple[ScriptOp, ...]


class AccessEvent(NamedTuple):
    time_ns: int
    paddr: int
    kind: str  # "R" | "W"
    size: int


@dataclass
class AccessTrace:
    events: list[AccessEvent]
    meta: dict[str, str] = field(default_factory=dict)


def _physical_pieces(layout: MemoryLayout, op: ScriptOp) -> list[tuple[int, int]]:
    """(paddr, size) pieces of one logical op.

    Bursts never cross a huge-page border (translation changes) nor a DRAM
    row border (each piece touches exactly one row).
    """
    region = layout.region(op.region, op.layer)
    start, end = region.byte_range_of_elems(op.offset, op.count)
    row_size = layout.mapping.row_size_bytes
    pieces = []
    v = start
    while v < end:
        page_end = (v // PAGE_BYTES + 1) * PAGE_BYTES
        p = layout.virtual_to_physical(v)
        row_end_p = (p // row_size + 1) * row_size
        piece = min(end - v, page_end - v, row_end_p - p)
        pieces.append((p, piece))
        v += piece
    return pieces


def trace_update_processing(
    layout: MemoryLayout,
    script: AccessScript,
    bw: BandwidthModel,
    start_time_ns: int = 0,
) -> AccessTrace:
    """Physical access trace of one aggregation round."""
    budget_ns = script.size_bytes * 1e9 / bw.bytes_per_second
    pieces: list[tuple[int, int, str]] = []
    for op in script.ops:
        pieces.extend((p, n, op.kind) for p, n in _physical_pieces(layout, op))
    if not pieces:
        raise ValueError("update message with no operations")
    t = float(start_time_ns)
    step = budget_ns / len(pieces)
    events = [AccessEvent(int(t + i * step), paddr, kind, size)
              for i, (paddr, size, kind) in enumerate(pieces)]
    round_end = int(t + budget_ns)
    for op in script.writeback_ops:
        for paddr, size in _physical_pieces(layout, op):
            events.append(AccessEvent(round_end, paddr, kind=op.kind, size=size))
    meta = {
        "round": str(script.round_number),
        "start_ns": str(start_time_ns),
        "end_ns": str(round_end),
    }
    return AccessTrace(events, meta)


def write_trace(path, trace: AccessTrace) -> None:
    """One event per line: time_ns,paddr_hex,kind,size."""
    with open(path, "w", encoding="ascii") as f:
        for key, value in trace.meta.items():
            f.write(f"# {key}={value}\n")
        for e in trace.events:
            f.write(f"{e.time_ns},{e.paddr:#x},{e.kind},{e.size}\n")


def read_trace(path) -> AccessTrace:
    events = []
    meta: dict[str, str] = {}
    last_t = None
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 fields")
            t = int(parts[0])
            paddr = int(parts[1], 16)
            kind = parts[2]
            size = int(parts[3])
            if kind not in ("R", "W") or size <= 0:
                raise ValueError(f"{path}:{line_no}: bad event")
            if last_t is not None and t < last_t:
                raise ValueError(f"{path}:{line_no}: time goes backwards")
            last_t = t
            events.append(AccessEvent(t, paddr, kind, size))
    return AccessTrace(events, meta)
