"""Unit tests for address mapping, region placement and trace building."""
import numpy as np
import pytest

from hammersim.federation import RoundRecord, make_mlp_spec
from hammersim.memlayout import (
    PAGE_BYTES,
    SCRIPT_REGIONS,
    AccessScript,
    DramMapping,
    build_layout,
    dram_to_physical,
    physical_to_dram,
    trace_update_processing,
)
from hammersim.metrics import BandwidthModel
from hammersim.replay import round_script
from hammersim.seeding import generator

from oracles import byte_range_of_elems, event_tuples, virtual_to_physical


TOY = DramMapping(bank_count=4, rows_per_bank=64, row_size_bytes=1024, bank_xor=True)
# big enough for the 2 MB huge-page allocator (8 MB module)
LAYOUT_MAP = DramMapping(bank_count=4, rows_per_bank=256, row_size_bytes=8192, bank_xor=True)


# -- address hash -----------------------------------------------------------

def test_mapping_bit_fields():
    assert TOY.col_bits == 10
    assert TOY.bank_bits == 2
    assert TOY.capacity_bytes == 4 * 64 * 1024


def test_physical_to_dram_known_values():
    assert physical_to_dram(0, TOY) == (0, 0, 0)
    assert physical_to_dram(1023, TOY) == (0, 0, 1023)
    # next kilobyte lands in the next bank, same row
    assert physical_to_dram(1024, TOY) == (1, 0, 0)
    # row 1 starts after bank_count * row_size bytes; xor folds row into bank
    bank, row, col = physical_to_dram(4096, TOY)
    assert (bank, row, col) == (0 ^ 1, 1, 0)


def test_mapping_roundtrip_exhaustive_toy():
    for paddr in range(0, TOY.capacity_bytes, 97):  # stride to keep it quick
        bank, row, col = physical_to_dram(paddr, TOY)
        assert 0 <= bank < 4 and 0 <= row < 64 and 0 <= col < 1024
        assert dram_to_physical(bank, row, col, TOY) == paddr


def test_mapping_xor_disabled_roundtrip():
    plain = DramMapping(bank_count=4, rows_per_bank=64, row_size_bytes=1024, bank_xor=False)
    for paddr in (0, 1024, 4096, 65535, plain.capacity_bytes - 1):
        assert dram_to_physical(*physical_to_dram(paddr, plain), plain) == paddr


def test_mapping_validation():
    with pytest.raises(ValueError):
        DramMapping(bank_count=3)
    with pytest.raises(ValueError):
        DramMapping(row_size_bytes=1000)
    with pytest.raises(ValueError):
        physical_to_dram(TOY.capacity_bytes, TOY)


# -- layout -----------------------------------------------------------------

def test_layout_regions_row_aligned_and_disjoint():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=1)
    ranges = []
    for region in layout.regions.values():
        assert region.virtual_start % LAYOUT_MAP.row_size_bytes == 0
        ranges.append((region.virtual_start, region.virtual_end))
    ranges.sort()
    for (s0, e0), (s1, e1) in zip(ranges[:-1], ranges[1:]):
        assert e0 <= s1  # no overlap


def test_layout_has_expected_regions():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=1)
    for i in range(len(spec.layers)):
        for name in ("metadata", "values", "accumulator", "writeback"):
            assert layout.region(name, i).size_bytes > 0
    assert layout.region("ingress").layer == -1
    with pytest.raises(KeyError):
        layout.region("values", 99)


def test_layout_deterministic_per_seed():
    spec = make_mlp_spec(20, 8, 3)
    big = DramMapping(bank_count=4, rows_per_bank=1024, row_size_bytes=8192)
    kw = dict(ingress_bytes=6 * PAGE_BYTES)  # force a multi-page table
    a = build_layout(spec, None, big, seed=5, **kw)
    b = build_layout(spec, None, big, seed=5, **kw)
    c = build_layout(spec, None, big, seed=6, **kw)
    assert len(a.page_table) >= 6
    assert a.page_table == b.page_table
    assert a.page_table != c.page_table


def test_layout_rejects_overcommit():
    spec = make_mlp_spec(256, 64, 8)
    tiny = DramMapping(bank_count=2, rows_per_bank=2, row_size_bytes=1024)
    with pytest.raises(ValueError):
        build_layout(spec, None, tiny, seed=1)


def test_virtual_to_physical_uses_page_table():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=2)
    frame = layout.page_table[0]
    assert virtual_to_physical(layout, 0) == frame * PAGE_BYTES
    assert virtual_to_physical(layout, 123) == frame * PAGE_BYTES + 123
    with pytest.raises(ValueError):
        virtual_to_physical(layout, 10**12)


# -- op columns --------------------------------------------------------------

def one_round_script(ops, writeback_ops=(), size_bytes=64):
    """AccessScript of one round from (region, layer, offset, count, kind) ops."""
    rows = list(ops) + list(writeback_ops)
    col = lambda i: np.array([row[i] for row in rows], dtype=np.int64)
    return AccessScript(
        size_bytes=np.array([size_bytes]),
        ingress_offset=np.array([0]),
        op_round=np.zeros(len(rows), dtype=np.int64),
        writeback=np.arange(len(rows)) >= len(ops),
        region=np.array([SCRIPT_REGIONS.index(row[0]) for row in rows]),
        layer=col(1),
        offset=col(2),
        count=col(3),
        write=np.array([row[4] == "W" for row in rows]),
    )


def physical_pieces(layout, op):
    """(paddr, size) pieces of one op, read off its trace."""
    trace = trace_update_processing(layout, one_round_script([op]), BandwidthModel())
    return [(paddr, size) for _, paddr, size in event_tuples(trace.events)]


def script_ops(script, writeback):
    """(region, layer, offset, count, kind) of the script's message or writeback ops."""
    return [(SCRIPT_REGIONS[r], l, o, c, "W" if w else "R")
            for r, l, o, c, w, wb in zip(script.region.tolist(), script.layer.tolist(),
                                          script.offset.tolist(), script.count.tolist(),
                                          script.write.tolist(), script.writeback.tolist())
            if wb == writeback]


# -- piece splitting --------------------------------------------------------

def test_pieces_never_cross_row_borders():
    spec = make_mlp_spec(64, 32, 4)
    mapping = DramMapping(bank_count=4, rows_per_bank=16384, row_size_bytes=256)
    layout = build_layout(spec, None, mapping, seed=3)
    # a long run through the accumulator spans several 256-byte rows
    pieces = physical_pieces(layout, ("accumulator", 0, 0, 300, "R"))
    assert sum(n for _, n in pieces) == 1200
    for paddr, size in pieces:
        assert paddr // 256 == (paddr + size - 1) // 256


def test_pieces_cover_exact_byte_range():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    region = layout.region("accumulator", 0)
    start, end = byte_range_of_elems(region, 5, 7)
    assert (start, end) == (region.virtual_start + 20, region.virtual_start + 48)
    pieces = physical_pieces(layout, ("accumulator", 0, 5, 7, "W"))
    assert sum(n for _, n in pieces) == end - start


def test_op_outside_region_rejected():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    n = layout.region("accumulator", 0).size_bytes // 4
    physical_pieces(layout, ("accumulator", 0, n - 1, 1, "R"))
    for op in (("accumulator", 0, n - 1, 2, "R"), ("accumulator", 0, -1, 1, "R"),
               ("accumulator", 0, 0, 0, "R")):
        with pytest.raises(ValueError, match="accumulator/0"):
            physical_pieces(layout, op)


# -- trace building ---------------------------------------------------------

def one_op_script():
    ops = (("ingress", -1, 0, 64, "W"),
           ("accumulator", 0, 0, 16, "R"),
           ("accumulator", 0, 0, 16, "W"))
    wb = (("accumulator", 0, 0, 16, "R"),
          ("writeback", 0, 0, 16, "W"),
          ("values", 0, 0, 16, "W"))
    return one_round_script(ops, wb, size_bytes=64)


def test_round_script_shape():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    script = round_script(layout, [RoundRecord(0, np.array([0, 1]))], metadata_bytes_per_entry=4)
    # 2 entries * 32 bits / 8 + 2 * 4 metadata bytes
    assert script.size_bytes.tolist() == [8 + 8]
    kinds = [(region, kind) for region, _, _, _, kind in script_ops(script, writeback=False)]
    assert kinds[0] == ("ingress", "W")
    assert ("accumulator", "R") in kinds and ("accumulator", "W") in kinds
    regions = {region for region, *_ in script_ops(script, writeback=True)}
    assert regions == {"accumulator", "writeback", "values"}


def test_trace_times_monotone_and_budgeted():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=5)
    bw = BandwidthModel()
    trace = trace_update_processing(layout, one_op_script(), bw, start_time_ns=1000)
    times = trace.events.time_ns.tolist()
    assert times == sorted(times)
    assert times[0] == 1000
    # budget: 64 bytes at 18.75 GiB/s is ~3 ns
    assert trace.end_ns == 1000 + int(64 * 1e9 / bw.bytes_per_second)


def test_trace_addresses_follow_page_table():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=6)
    trace = trace_update_processing(layout, one_op_script(), BandwidthModel())
    region = layout.region("ingress")
    expected = virtual_to_physical(layout, region.virtual_start)
    assert trace.events.paddr[0] == expected
