"""Unit tests for address mapping, region placement, address pieces and trace building."""
import numpy as np
import pytest

from hammersim import memlayout, replay
from hammersim.federation import RoundRecord, make_mlp_spec
from hammersim.memlayout import (
    PAGE_BYTES,
    DramMapping,
    MemoryLayout,
    build_layout,
    dram_to_physical,
    physical_to_dram,
)
from hammersim.metrics import BandwidthModel
from hammersim.replay import ReplayCache, round_script, trace_update_processing
from hammersim.seeding import generator

from oracles import byte_range_of_elems, event_tuples, reference_replay_events, virtual_to_physical


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


@pytest.mark.parametrize("xor", [True, False])
def test_flat_row_is_the_hash_on_arrays(xor):
    # the array form the engine and the replay use, against the scalar one
    m = DramMapping(bank_count=4, rows_per_bank=48, row_size_bytes=1024, bank_xor=xor)
    paddr = np.arange(0, m.capacity_bytes, 97)
    assert m.flat_row(paddr).tolist() == [bank * 48 + row for bank, row, _ in (physical_to_dram(int(a), m) for a in paddr)]


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


# -- round traces -------------------------------------------------------------

def one_block_trace(layout, records, meta=0, start_time_ns=0):
    """The replay trace of records, played as one block."""
    cache = ReplayCache(layout, records, meta)
    block = round_script(layout, records, cache, 0)
    assert block == slice(0, len(records))
    return trace_update_processing(layout, cache, block, BandwidthModel(), start_time_ns)


def trace_pieces(layout, records, meta=0):
    """(paddr, size) of every event of the records' trace, in trace order."""
    return [(paddr, size) for _, paddr, size in event_tuples(one_block_trace(layout, records, meta).events)]


def record(*indices):
    return RoundRecord(0, np.array(indices, dtype=np.int64))


def address_pieces(layout, region, layer, offset, count):
    """(paddr, size) pieces of count elements from offset of region code
    region (see SCRIPT_REGIONS) of layer, cut at rows and translated."""
    start, end = memlayout.ranges(layout, region, layer, np.array([offset]), np.array([count]))
    _, paddr, size = memlayout.row_pieces(start, end, layout.mapping.row_size_bytes)
    memlayout.translate(layout, paddr)
    return list(zip(paddr.tolist(), size.tolist()))


def range_start(layout, name, layer, offset):
    """Physical address of element offset of a region."""
    region = layout.region(name, layer)
    return virtual_to_physical(layout, byte_range_of_elems(region, offset, 1)[0])


# -- piece splitting --------------------------------------------------------

def test_pieces_never_cross_row_borders():
    spec = make_mlp_spec(64, 32, 4)
    mapping = DramMapping(bank_count=4, rows_per_bank=16384, row_size_bytes=256)
    layout = build_layout(spec, None, mapping, seed=3)
    # a long run spans several 256-byte rows of the ingress queue and of each
    # of its three buffers: every byte of the round's ops (ingress write,
    # accumulator read, write and read, writeback and values write)
    ops = [address_pieces(layout, 0, -1, 0, 1200)] + [address_pieces(layout, code, 0, 0, 300)
                                                      for code in (1, 1, 1, 2, 3)]
    assert all(len(op) > 1 for op in ops)
    assert [sum(n for _, n in op) for op in ops] == [1200] * 6
    for paddr, size in (piece for op in ops for piece in op):
        assert paddr // 256 == (paddr + size - 1) // 256
    # the trace holds the ingress pieces, then the others' row-opening ones
    pieces = trace_pieces(layout, [record(*range(300))])
    assert len(ops[0]) == 5 and pieces[:5] == ops[0]
    assert pieces == [(p, n) for _, p, n in reference_replay_events(
        layout, [record(*range(300))], BandwidthModel(), row_opening=True)]
    assert set(pieces) == {piece for op in ops for piece in op}


def test_pieces_cover_exact_byte_range():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    region = layout.region("accumulator", 0)
    start, end = byte_range_of_elems(region, 5, 7)
    assert (start, end) == (region.virtual_start + 20, region.virtual_start + 48)
    assert address_pieces(layout, 1, 0, 5, 7) == [(virtual_to_physical(layout, start), 28)]
    # each range sits in one row: ingress write, accumulator read and write,
    # then accumulator read, writeback write and values write; a 100-byte
    # update before it puts the message at ring offset 100
    acc, wb, values = (range_start(layout, name, 0, 5) for name in ("accumulator", "writeback", "values"))
    assert [address_pieces(layout, code, 0, 5, 7) for code in (2, 3)] == [[(wb, 28)], [(values, 28)]]
    ingress = virtual_to_physical(layout, layout.region("ingress").virtual_start + 100)
    assert address_pieces(layout, 0, -1, 100, 28) == [(ingress, 28)]
    records = [record(*range(100, 125)), RoundRecord(1, np.arange(5, 12))]
    # the accumulator's write and second read find its row open
    assert trace_pieces(layout, records)[-4:] == [(ingress, 28), (acc, 28), (wb, 28), (values, 28)]


def test_op_outside_region_rejected():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    n = layout.region("accumulator", 0).size_bytes // 4

    def accumulator_ranges(layer, offset, count):  # region code 1: the accumulator
        return memlayout.ranges(layout, 1, np.array([1, layer]), np.array([0, offset]), np.array([1, count]))

    accumulator_ranges(0, n - 1, 1)
    for run in ((0, n - 1, 2), (0, -1, 1), (0, 0, 0)):
        with pytest.raises(ValueError, match="accumulator/0"):
            accumulator_ranges(*run)
    ingress = layout.region("ingress").size_bytes
    address_pieces(layout, 0, -1, ingress - 64, 64)
    for size, at in ((64, ingress - 63), (64, -1), (0, 0)):  # past the queue, before it, empty message
        with pytest.raises(ValueError, match="ingress/-1"):
            address_pieces(layout, 0, -1, at, size)


def test_unmapped_page_rejected():
    spec = make_mlp_spec(20, 8, 3)
    full = build_layout(spec, None, LAYOUT_MAP, seed=4, ingress_bytes=PAGE_BYTES)
    # the ingress queue runs from page 0 into page 1, which is left unmapped
    layout = MemoryLayout(full.spec, full.mapping, full.regions, {0: full.page_table[0]}, full.seed)
    trace_pieces(layout, [record(0)])
    address_pieces(layout, 0, -1, 0, 64)
    with pytest.raises(ValueError, match="not mapped"):
        address_pieces(layout, 0, -1, PAGE_BYTES - 64, 64)


def test_empty_page_table_rejected():
    full = build_layout(make_mlp_spec(20, 8, 3), None, LAYOUT_MAP, seed=4)
    layout = MemoryLayout(full.spec, full.mapping, full.regions, {}, full.seed)
    with pytest.raises(ValueError, match="vaddr 0x[0-9a-f]+ not mapped"):
        trace_pieces(layout, [record(0)])


# -- trace building ---------------------------------------------------------

def test_round_script_shape():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    records = [RoundRecord(0, np.array([0, 1])), RoundRecord(1, np.array([3, 159, 160, 170]))]
    cache = ReplayCache(layout, records, 4)
    # k entries * 32 bits / 8 + k * 4 metadata bytes
    assert cache.size_bytes.tolist() == [16, 32]
    assert cache.ingress_offset.tolist() == [0, 16]
    # runs split at index gaps and at the layer borders 160 and 168
    runs, layer, offset, count = replay._entry_runs(layout, records)
    assert runs.tolist() == [1, 4]
    assert list(zip(layer.tolist(), offset.tolist(), count.tolist())) == [
        (0, 0, 2), (0, 3, 1), (0, 159, 1), (1, 0, 1), (2, 2, 1)]


def test_trace_times_monotone_and_budgeted():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=5)
    bw = BandwidthModel()
    trace = one_block_trace(layout, [record(*range(16))], start_time_ns=1000)
    times = trace.events.time_ns.tolist()
    assert times == sorted(times)
    assert times[0] == 1000
    # budget: 64 bytes at 18.75 GiB/s is ~3 ns
    assert trace.end_ns == 1000 + int(64 * 1e9 / bw.bytes_per_second)


def test_trace_addresses_follow_page_table():
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=6)
    trace = one_block_trace(layout, [record(*range(16))])
    region = layout.region("ingress")
    expected = virtual_to_physical(layout, region.virtual_start)
    assert trace.events.paddr[0] == expected


def test_script_of_runs_plays_as_its_templates():
    # rounds that play their arrays' templates in any order give the events
    # of their records' runs, round after round; each array is built once
    spec = make_mlp_spec(20, 8, 3)
    layout = build_layout(spec, None, LAYOUT_MAP, seed=4)
    arrays = [np.array(s) for s in ([0, 1, 2, 40], [3, 159, 160, 170], [191])]
    records = [RoundRecord(r, arrays[a]) for r, a in enumerate([2, 0, 2, 1])]
    cache = ReplayCache(layout, records, 4)
    block = round_script(layout, records, cache, 0)
    assert cache.owner.tolist() == [0, 1, 0, 2] and cache.built == 3
    trace = trace_update_processing(layout, cache, block, BandwidthModel(), 0)
    assert event_tuples(trace.events) == reference_replay_events(layout, records, BandwidthModel(), 4,
                                                                 row_opening=True)
