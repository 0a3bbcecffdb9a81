"""Unit tests for the open-row engine, refresh, TRR and flip rules."""
import numpy as np
import pytest

from hammersim import dram
from hammersim.dram import (
    BitFlip,
    DramConfig,
    RowContents,
    ThresholdEntry,
    ThresholdTable,
    TraceRateError,
    TrrConfig,
    VulnerabilityMap,
    builtin_thresholds,
    read_threshold_file,
    simulate_trace,
    _bit_positions,
)
from hammersim.memlayout import DramMapping, EventColumns, dram_to_physical
from hammersim.seeding import generator

import oracles
from oracles import AccessEvent


TOY = DramMapping(bank_count=4, rows_per_bank=64, row_size_bytes=1024, bank_xor=False)
# one tick per 8 ms, sweeping 8 of the 64 rows per bank each tick
TOY_CFG = DramConfig(refresh_period_s=0.064, ref_commands=8, trc_effective_s=49e-9)
LOW = ThresholdTable([ThresholdEntry(0x00, 0x00, 8, 6)])
NO_TRR = TrrConfig(capacity=0)


def ev(t, bank, row, size=8, kind="R"):
    return AccessEvent(t, dram_to_physical(bank, row, 0, TOY), kind, size)


def hammer(bank, row, n, start=0, step=100, other=50):
    """n activations of (bank, row), reopening via a far row in between."""
    events = []
    t = start
    for _ in range(n):
        events.append(ev(t, bank, row))
        events.append(ev(t + step // 2, bank, other))
        t += step
    return events


def run(events, trr=NO_TRR, vmap=None, contents=None, cfg=TOY_CFG, thresholds=LOW):
    vmap = vmap or oracles.all_vulnerable(TOY)
    contents = contents or RowContents()
    return simulate_trace(list(events), cfg, TOY, thresholds, trr, vmap, contents)


# -- threshold tables -------------------------------------------------------

def test_threshold_entry_validation():
    with pytest.raises(ValueError):
        ThresholdEntry(0x100, 0x00, 10, 5)
    with pytest.raises(ValueError):
        ThresholdEntry(0x00, 0x00, 5, 10)  # double above single
    with pytest.raises(ValueError):
        ThresholdTable([])
    with pytest.raises(ValueError, match="published_average"):
        ThresholdTable([ThresholdEntry(0, 0, 8, 6), ThresholdEntry(1, 1, 9, 7)], published_average=7)
    assert ThresholdTable([ThresholdEntry(0, 0, 8, 6)], published_average=8).reference_mean() == 8
    with pytest.raises(ValueError):
        ThresholdTable([ThresholdEntry(0, 0, 8, 6), ThresholdEntry(0, 0, 9, 7)])


def test_builtin_table_values():
    table = builtin_thresholds()
    assert table.min_single() == 185_000
    assert table.reference_mean() == 240_000  # stated module average
    assert table.mean_single() == pytest.approx((185 + 240 + 260 + 265) * 1000 / 4)
    assert [(e.victim_fill, e.aggressor_fill, e.single, e.double) for e in table.entries] == [
        (0xFF, 0x00, 185_000, 115_000),
        (0x00, 0xFF, 240_000, 140_000),
        (0x55, 0x55, 260_000, 160_000),
        (0xAA, 0xAA, 265_000, 165_000),
    ]  # every class of the packaged file, in file order
    cls = table.nearest_class(0xFF, 0x00)
    assert (cls.single, cls.double) == (185_000, 115_000)


def test_nearest_class_first_wins():
    table = builtin_thresholds()
    # 0x80 victim fill sits between 0x55 and 0xAA patterns; byte distance
    # decides, and exact matches win outright
    assert table.nearest_class(0x00, 0xFF).single == 240_000
    assert table.nearest_class(0x55, 0x55).single == 260_000


def test_reference_mean_fallback_rounds():
    table = ThresholdTable([ThresholdEntry(0, 0, 11, 5), ThresholdEntry(1, 1, 12, 6)])
    assert table.published_average is None
    assert table.reference_mean() == 12  # round(11.5) banker's-rounds to 12


def test_threshold_file_roundtrip(tmp_path):
    # the builtin table, written out as victim,aggressor,mode,count lines
    path = tmp_path / "thresholds.txt"
    lines = ["# published_average=240000"]
    for e in builtin_thresholds().entries:
        lines.append(f"{e.victim_fill:#04x},{e.aggressor_fill:#04x},single,{e.single}")
        lines.append(f"{e.victim_fill:#04x},{e.aggressor_fill:#04x},double,{e.double}")
    path.write_text("\n".join(lines) + "\n")
    back = read_threshold_file(path)
    assert back.published_average == 240_000
    assert back.entries == builtin_thresholds().entries


def test_threshold_file_rejects_incomplete(tmp_path):
    path = tmp_path / "thresholds.txt"
    path.write_text("0x00,0x00,single,100\n")
    with pytest.raises(ValueError):
        read_threshold_file(path)
    path.write_text("0x00,0x00,sideways,100\n")
    with pytest.raises(ValueError):
        read_threshold_file(path)


# -- support types ----------------------------------------------------------

def test_trr_config_validation():
    assert TrrConfig(capacity=0).capacity == 0
    with pytest.raises(ValueError):
        TrrConfig(capacity=-1)
    with pytest.raises(ValueError):
        TrrConfig(neighbor_radius=0)


def test_vulnerability_map_seeded():
    a = VulnerabilityMap.from_seed(TOY, 3, probability=0.5, multiplier_low=1.0, multiplier_high=2.0)
    b = VulnerabilityMap.from_seed(TOY, 3, probability=0.5, multiplier_low=1.0, multiplier_high=2.0)
    np.testing.assert_array_equal(a.vulnerable, b.vulnerable)
    np.testing.assert_array_equal(a.multiplier, b.multiplier)
    none = VulnerabilityMap.from_seed(TOY, 3, probability=0.0)
    assert not none.vulnerable.any()
    every = VulnerabilityMap.from_seed(TOY, 3, probability=1.0)
    assert every.vulnerable.all()
    assert (a.multiplier >= 1.0).all() and (a.multiplier <= 2.0).all()


def test_row_contents_is_one_fill():
    assert RowContents(0xFF).default_fill == 0xFF
    assert RowContents().default_fill == 0x00
    with pytest.raises(ValueError):
        RowContents(0x1FF)
    with pytest.raises(ValueError):
        RowContents(-1)


def test_bit_positions():
    assert _bit_positions(0xFF, 0x00) == tuple(range(8))
    assert _bit_positions(0b1010, 0b1000) == (1,)
    # identical patterns fall back to the victim's charged bits
    assert _bit_positions(0b101, 0b101) == (0, 2)


# -- activation accounting --------------------------------------------------

def test_open_row_absorbs_repeat_hits():
    res = run([ev(0, 0, 5), ev(10, 0, 5), ev(20, 0, 5)])
    assert res.total_acts == 1
    assert res.windows[0].row_acts == {(0, 5): 1}


@pytest.mark.parametrize("seed", range(4))
def test_row_activations_match_per_access_reference(seed):
    rng = generator(seed, "row-activations")
    rows = 64
    bank = rng.integers(0, 4, 300)  # bank 4 takes no access
    g = bank * rows + rng.integers(0, 3, bank.size)  # a few rows per bank, so many accesses hit
    # carried open rows: bank 0's is the row of its first access (a hit), the
    # others one of their rows or none
    open_rows = np.array([g[bank == 0][0], 1 * rows + 2, -1, 3 * rows, 4 * rows + 7])
    expected, expected_open = oracles.row_activations_reference(g.tolist(), bank.tolist(), open_rows.tolist())
    assert not expected[int(np.argmax(bank == 0))]
    carried = open_rows.copy()
    assert dram.row_activations(g, bank, carried).tolist() == expected
    assert carried.tolist() == expected_open and carried[4] == 4 * rows + 7
    # two calls that carry the open rows over equal one call on both parts
    cut = int(rng.integers(1, g.size))
    carried = open_rows.copy()
    parts = [dram.row_activations(g[a:b], bank[a:b], carried) for a, b in ((0, cut), (cut, g.size))]
    assert np.concatenate(parts).tolist() == expected and carried.tolist() == expected_open


def test_row_crossing_event_activates_each_row():
    big = AccessEvent(0, dram_to_physical(0, 8, 1000, TOY), "R", 2000)
    res = run([big])
    # bank bits sit below row bits, so the burst sweeps banks 0..2 of row 8
    assert res.total_acts == 3
    assert set(res.windows[0].row_acts) == {(0, 8), (1, 8), (2, 8)}


def test_bank_isolation():
    res = run([ev(0, 0, 5), ev(10, 1, 5), ev(20, 0, 5)])
    # bank 1's activation does not close bank 0's open row
    assert res.total_acts == 2
    assert res.windows[0].bank_acts[0] == 1
    assert res.windows[0].bank_acts[1] == 1


def test_windows_split_on_aligned_boundary():
    w = int(TOY_CFG.window_ns)
    res = run([ev(0, 0, 5), ev(w - 1, 0, 6), ev(w, 0, 7), ev(w + 10, 0, 8)])
    assert len(res.windows) == 2
    assert res.windows[0].bank_acts[0] == 2
    assert res.windows[1].bank_acts[0] == 2


def test_trace_rate_error():
    tight = DramConfig(refresh_period_s=0.064, ref_commands=8, trc_effective_s=0.008)
    events = hammer(0, 5, 5, step=100)  # 10 ACTs in bank 0, cap is 8
    with pytest.raises(TraceRateError):
        run(events, cfg=tight)


def test_negative_size_rejected_zero_size_counted(monkeypatch):
    # a negative size is rejected like an event outside the module, after
    # the events before it ran; a zero size is an event with no ACT
    with pytest.raises(ValueError, match="negative size -64"):
        run([(0, 4096, "R", -64), (10, 8192, "R", 0), (20, 0, "R", 64)])
    for simulate in (oracles.incremental_simulate, oracles.oracle_simulate):
        with pytest.raises(ValueError, match="negative size -64"):
            simulate([(0, 4096, "R", -64)], TOY_CFG, TOY, LOW, NO_TRR, oracles.all_vulnerable(TOY), RowContents())
    events = [(0, 4096, "R", 64), (10, 8192, "R", 0), (20, 0, "R", 64), (30, 0, "R", 0)]
    res = assert_engines_agree(events)
    assert (res.total_events, res.total_acts) == (4, 2)
    # a chunk of zero-size events only (no piece, no ACT) across a tick, between hammering chunks
    trefi = int(TOY_CFG.trefi_ns)
    events = hammer(0, 5, 2) + [ev(trefi + dt, 1, 3, size=0) for dt in (-1, 0, 1, 2)]
    events += hammer(0, 5, 2, start=trefi + 10)
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 4)
    res = assert_engines_agree(events, trr=TrrConfig(capacity=1))
    assert (res.total_events, res.total_acts) == (12, 8)


def test_time_must_not_go_backwards():
    with pytest.raises(ValueError):
        run([ev(100, 0, 5), ev(50, 0, 6)])


def test_generator_input_streams():
    res = simulate_trace(iter([ev(0, 0, 5), ev(10, 0, 6)]), TOY_CFG, TOY, LOW,
                         NO_TRR, oracles.all_vulnerable(TOY), RowContents())
    assert res.total_events == 2
    assert res.total_acts == 2


@pytest.mark.parametrize("bad", [(0, 0, 8), (0, 0, "R", 8, 1)])
@pytest.mark.parametrize("at", [1, 6])
def test_tuples_must_have_four_fields(monkeypatch, bad, at):
    # at 6 the bad tuple opens the second chunk, after a full first one ran
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 6)
    events = [tuple(e) for e in hammer(0, 5, 3)] + [tuple(ev(1000, 1, 3))]
    events.insert(at, (events[at - 1][0],) + bad[1:])
    with pytest.raises(ValueError, match="time_ns, paddr, kind, size"):
        run(events)


def test_tuple_forms_read_alike():
    events = hammer(0, 5, 8, step=1000) + hammer(1, 9, 3, start=8000, step=1000)
    expected = run(events)
    assert expected.flips
    assert run([tuple(e) for e in events]) == expected
    # float times truncate to the int64 times they stand for
    assert run([AccessEvent(e.time_ns + 0.75, *e[1:]) for e in events]) == expected


# -- flip rules -------------------------------------------------------------

def test_single_sided_flip_at_exact_threshold():
    res = run(hammer(0, 5, 8))
    rows = {(f.bank, f.row) for f in res.flips}
    assert (0, 4) in rows and (0, 6) in rows
    flip = next(f for f in res.flips if f.row == 4)
    assert flip.mode == "single"
    assert flip.effective_count == 8
    assert flip.threshold == 8.0


def test_no_flip_below_threshold():
    res = run(hammer(0, 5, 7))
    assert all(f.row in (49, 51) for f in res.flips)  # only the reopen row's wake


def test_flip_fires_once_until_refresh():
    # 20 hammers in one refresh-free stretch: one flip per victim
    res = run(hammer(0, 5, 20, step=10))
    per_victim = {}
    for f in res.flips:
        per_victim[(f.bank, f.row)] = per_victim.get((f.bank, f.row), 0) + 1
    assert per_victim[(0, 4)] == 1
    assert per_victim[(0, 6)] == 1


def test_double_sided_flip():
    events = []
    t = 0
    for _ in range(3):
        events.append(ev(t, 0, 4))
        events.append(ev(t + 50, 0, 6))
        t += 100
    res = run(events)
    flip = next(f for f in res.flips if f.row == 5)
    assert flip.mode == "double"
    assert flip.effective_count == 6  # both sides at td/2 = 3
    assert flip.threshold == 6.0


def test_refresh_resets_exposure():
    trefi = TOY_CFG.trefi_ns  # 8 ms; tick 1 refreshes rows 0..7
    first = hammer(0, 5, 6, start=0, step=10)
    second = hammer(0, 5, 6, start=int(trefi) + 1000, step=10)
    res = run(first + second)
    # 12 total hammers but never 8 within one refresh period of the victims
    assert not any(f.row in (4, 6) for f in res.flips)


def test_vulnerability_gates_flips():
    vmap = VulnerabilityMap.from_seed(TOY, 1, probability=0.0)
    res = run(hammer(0, 5, 20), vmap=vmap)
    assert res.flips == []


def test_multiplier_raises_threshold():
    n = TOY.bank_count * TOY.rows_per_bank
    vmap = VulnerabilityMap(np.ones(n, dtype=bool), np.full(n, 2.0))
    assert run(hammer(0, 5, 15), vmap=vmap).flips == []  # needs 16 now
    assert any(f.row == 4 for f in run(hammer(0, 5, 16), vmap=vmap).flips)


def test_pattern_class_selects_threshold():
    table = ThresholdTable([
        ThresholdEntry(0x00, 0x00, 8, 6),
        ThresholdEntry(0xFF, 0x00, 4, 2),
    ])
    # the module fill alone picks the class: 0xFF is nearer the weak
    # (0xFF, 0x00) one, so the neighbors of both hammered rows flip at 4
    events = hammer(0, 5, 4)
    weak = assert_engines_agree(events, contents=RowContents(0xFF), thresholds=table)
    assert {f.row for f in weak.flips} == {4, 6, 49, 51}
    for flip in weak.flips:
        assert flip.victim_fill == flip.aggressor_fill == 0xFF
        assert flip.threshold == 4.0 and flip.effective_count == 4
        assert flip.bit_positions == tuple(range(8))
    # fill 0x00 picks the (0x00, 0x00) class, which needs 8
    assert assert_engines_agree(events, contents=RowContents(0x00), thresholds=table).flips == []


def test_trr_protects_lone_aggressor_pair():
    # 4 hammers per tREFI stays under the threshold between sampler hits
    step = int(TOY_CFG.trefi_ns // 4)
    res_trr = run(hammer(0, 5, 40, step=step), trr=TrrConfig(capacity=2))
    assert not any(f.row in (4, 6) for f in res_trr.flips)
    # round-robin alone revisits the victims only every 8 ticks: too slow
    res_free = run(hammer(0, 5, 40, step=step))
    assert any(f.row in (4, 6) for f in res_free.flips)


def incremental_ledger(events):
    _, ledger = oracles.incremental_simulate(list(events), TOY_CFG, TOY, LOW, NO_TRR,
                                             oracles.all_vulnerable(TOY), RowContents())
    return ledger


def test_check_flip_query_matches_engine_state():
    ledger = incremental_ledger(hammer(0, 5, 8))
    # after the run the victims flipped and were disarmed, so a fresh
    # query of the final ledger reports nothing new for them
    again = oracles.check_flip(ledger, oracles.all_vulnerable(TOY), LOW, RowContents())
    assert not any(f.row in (4, 6) and f.bank == 0 for f in again)
    assert isinstance(again, list)


def test_check_flip_sees_armed_state():
    ledger = incremental_ledger(hammer(0, 5, 7))  # one short of the single-sided threshold
    flips = oracles.check_flip(ledger, oracles.all_vulnerable(TOY),
                               ThresholdTable([ThresholdEntry(0x00, 0x00, 7, 6)]), RowContents())
    assert any(f.bank == 0 and f.row == 4 for f in flips)


# -- oracle cross-check -----------------------------------------------------

def random_trace(rng, n_events=300, t_span=40_000_000):
    events = []
    t = 0
    for _ in range(n_events):
        t += int(rng.integers(1, t_span // n_events))
        bank = int(rng.integers(0, TOY.bank_count))
        row = int(rng.integers(0, TOY.rows_per_bank))
        col = int(rng.integers(0, TOY.row_size_bytes))
        size = int(rng.integers(1, 3000))
        paddr = dram_to_physical(bank, row, 0, TOY) + col
        size = min(size, TOY.capacity_bytes - paddr)
        events.append(AccessEvent(t, paddr, "R" if rng.random() < 0.7 else "W", size))
    return events


def test_engine_matches_recount_oracle_on_random_traces():
    rng = generator(21, "dram-oracle-unit")
    table = ThresholdTable([ThresholdEntry(0x00, 0x00, 12, 8)])
    for case in range(40):
        trr = TrrConfig(capacity=2) if case % 2 else NO_TRR
        vmap = VulnerabilityMap.from_seed(TOY, case, probability=0.8,
                                         multiplier_low=1.0, multiplier_high=1.5)
        events = random_trace(rng)
        res = simulate_trace(events, TOY_CFG, TOY, table, trr, vmap, RowContents())
        w_rows, w_banks, flips, total = oracles.oracle_simulate(
            events, TOY_CFG, TOY, table, trr, vmap, RowContents())
        assert res.total_acts == total
        assert len(res.windows) == len(w_rows)
        for win, rows, banks in zip(res.windows, w_rows, w_banks):
            assert win.row_acts == rows
            assert win.bank_acts == banks
        got = sorted((f.time_ns, f.bank, f.row, f.mode, f.effective_count, f.threshold)
                     for f in res.flips)
        assert got == flips


# -- columnar engine vs the incremental engine and the recount oracle ------

XOR = DramMapping(bank_count=4, rows_per_bank=64, row_size_bytes=1024, bank_xor=True)
TABLE_12_8 = ThresholdTable([ThresholdEntry(0x00, 0x00, 12, 8)])


def assert_engines_agree(events, trr=NO_TRR, vmap=None, contents=None, cfg=TOY_CFG,
                         mapping=TOY, thresholds=LOW):
    """simulate_trace must equal the incremental engine and the recount oracle."""
    vmap = vmap or oracles.all_vulnerable(mapping)
    contents = contents or RowContents()
    args = (cfg, mapping, thresholds, trr, vmap, contents)
    res = simulate_trace(list(events), *args)
    ref, _ = oracles.incremental_simulate(list(events), *args)
    w_rows, w_banks, flips, total = oracles.oracle_simulate(events, *args)
    assert res.total_acts == ref.total_acts == total
    assert res.total_events == ref.total_events == len(events)
    assert ([(w.index, w.start_ns, w.row_acts, w.bank_acts) for w in res.windows]
            == [(w.index, w.start_ns, w.row_acts, w.bank_acts) for w in ref.windows])
    assert [w.row_acts for w in res.windows] == w_rows
    assert [w.bank_acts for w in res.windows] == w_banks
    assert res.flips == ref.flips  # in order, with time, mode, count, threshold
    assert sorted((f.time_ns, f.bank, f.row, f.mode, f.effective_count, f.threshold)
                  for f in res.flips) == flips
    return res


def decoyed_and_protected(windows=2, step=64_000, protected_step=1_200_000):
    """Toy version of the hammer-trr trace.

    Bank 1 hammers rows 9 and 11 (victim 10) behind four decoys that stay
    ahead of the pair in every window's counts; bank 2 alternates rows 39
    and 41 (victim 40) slowly enough that a refresh per tick keeps the pair
    under the double-sided threshold.
    """
    decoys = [20, 23, 26, 29]
    window_ns = int(TOY_CFG.window_ns)
    events = []
    for w in range(windows):
        seq = decoys + (decoys + [9, 11]) * ((window_ns // step - 4) // 6)
        events += [ev(w * window_ns + i * step, 1, r) for i, r in enumerate(seq)]
        n = (window_ns - protected_step // 2) // protected_step
        events += [ev(w * window_ns + protected_step // 2 + i * protected_step, 2, (39, 41)[i % 2])
                   for i in range(n)]
    return sorted(events, key=lambda e: e.time_ns)


def test_decoyed_and_protected_pairs_match_references():
    events = decoyed_and_protected()
    with_trr = assert_engines_agree(events, trr=TrrConfig(capacity=4), thresholds=TABLE_12_8)
    assert any((f.bank, f.row, f.mode) == (1, 10, "double") for f in with_trr.flips)
    assert not any(f.bank == 2 for f in with_trr.flips)
    without = assert_engines_agree(events, trr=NO_TRR, thresholds=TABLE_12_8)
    assert any((f.bank, f.row) == (2, 40) for f in without.flips)


def test_decoyed_pairs_with_row_hits_match_references():
    # every access twice in a row, the second a row hit: the hits leave the
    # ACTs, the sampler's counts and the flips as they were
    events = decoyed_and_protected()
    doubled = [e for e in events for _ in range(2)]
    with_trr = assert_engines_agree(doubled, trr=TrrConfig(capacity=4), thresholds=TABLE_12_8)
    assert any((f.bank, f.row, f.mode) == (1, 10, "double") for f in with_trr.flips)
    assert not any(f.bank == 2 for f in with_trr.flips)
    single = run(events, trr=TrrConfig(capacity=4), thresholds=TABLE_12_8)
    assert (with_trr.windows, with_trr.flips, with_trr.total_acts) == (single.windows, single.flips, single.total_acts)


@pytest.mark.parametrize("chunk", [46, 1 << 16])
def test_trailing_row_hits_across_tick_and_window_match_references(monkeypatch, chunk):
    # the first chunk ends in hits on the open row that straddle the 7th
    # tick and the window boundary (the 8th tick), so its refresh ticks and
    # its window must run up to the last hit; the second chunk hammers again
    trefi = int(TOY_CFG.trefi_ns)
    window_ns = int(TOY_CFG.window_ns)
    first = hammer(0, 5, 20, step=100)  # flips rows 4, 6, 49 and 51, ends on row 50
    hits = [ev(t, 0, 50) for base in (7 * trefi, window_ns) for t in (base - 1, base, base + 1)]
    second = hammer(0, 5, 20, start=window_ns + 1000, step=100)
    assert len(first + hits) == 46
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    for trr in (NO_TRR, TrrConfig(capacity=1)):
        res = assert_engines_agree(first + hits + second, trr=trr)
        assert len(res.windows) == 2 and res.windows[0].row_acts[(0, 50)] == 20
        flips = sorted((f.time_ns // window_ns, f.row) for f in res.flips)
        assert flips == [(w, r) for w in (0, 1) for r in (4, 6, 49, 51)]
        only_hits = assert_engines_agree(first + hits, trr=trr)
        assert len(only_hits.windows) == 2 and only_hits.windows[1].row_acts == {}


def test_one_row_crossing_event_among_single_row_ones_matches_references():
    # one event spans three rows (banks 0..2 of row 8); all others stay in one row
    events = hammer(0, 5, 12, step=100)
    events.insert(7, AccessEvent(events[6].time_ns, dram_to_physical(0, 8, 1000, TOY), "R", 2000))
    events += hammer(1, 8, 10, start=2000, step=100)
    res = assert_engines_agree(events, trr=TrrConfig(capacity=2))
    assert {(0, 8), (1, 8), (2, 8)} <= set(res.windows[0].row_acts)
    assert res.total_acts == 24 + 3 + 19  # bank 1's first access finds row 8 open


def random_trace_on(mapping, rng, n_events=300, t_span=40_000_000, max_size=3000):
    events = []
    t = 0
    for _ in range(n_events):
        t += int(rng.integers(0, t_span // n_events))
        paddr = int(rng.integers(0, mapping.capacity_bytes))
        size = min(int(rng.integers(1, max_size)), mapping.capacity_bytes - paddr)
        events.append(AccessEvent(t, paddr, "R", size))
    return events


def test_row_spanning_events_on_xor_map_match_references():
    rng = generator(7, "dram-xor-spans")
    for case in range(12):
        events = random_trace_on(XOR, rng, max_size=5000)
        assert any(p // 1024 != (p + s - 1) // 1024 for _, p, _, s in events)
        vmap = VulnerabilityMap.from_seed(XOR, case, probability=0.8, multiplier_high=1.5)
        assert_engines_agree(events, trr=TrrConfig(capacity=case % 3), vmap=vmap,
                             mapping=XOR, thresholds=TABLE_12_8)


def test_ticks_on_window_boundaries_match_references():
    # 8 ticks per window: the 8th lands on the boundary and must rank the
    # ending window; events sit on, just before and just after ticks
    trefi = int(TOY_CFG.trefi_ns)
    window_ns = int(TOY_CFG.window_ns)
    events = []
    for k in range(1, 18):
        for dt in (-1, 0, 1):
            events += [ev(k * trefi + dt, 0, 5), ev(k * trefi + dt, 0, 7)]
    events += hammer(0, 5, 30, start=window_ns - 3000, step=100)
    events = sorted(events, key=lambda e: e.time_ns)
    for trr in (NO_TRR, TrrConfig(capacity=1), TrrConfig(capacity=2, neighbor_radius=2)):
        res = assert_engines_agree(events, trr=trr)
        assert len(res.windows) == 3
    # a period that is not a whole number of nanoseconds: float tick products
    odd = DramConfig(refresh_period_s=0.000064, ref_commands=8, trc_effective_s=49e-9)
    step = odd.trefi_ns
    times = sorted({int(k * step) + dt for k in range(1, 40) for dt in (-1, 0, 1)})
    events = [ev(t, 0, (3, 5, 7)[i % 3]) for i, t in enumerate(times)]
    for trr in (NO_TRR, TrrConfig(capacity=2)):
        assert_engines_agree(events, trr=trr, cfg=odd)


SORTED_TIMES = {
    "empty": [],
    "zero": [0],
    "one": [8_000_000],
    "tick multiples": [int(k * TOY_CFG.trefi_ns) + d for k in range(20) for d in (-1, 0, 0, 1) if k or d >= 0],
    "window multiples": [k * int(TOY_CFG.window_ns) + d for k in range(5) for d in (-1, 0, 1) if k or d >= 0],
    "sparse": [0, 1, 7, 10 ** 9, 10 ** 9 + 1, 3 * 10 ** 11, 10 ** 12],
    "far apart": [0, 10 ** 15],  # a grid over the span would hold about 10**11 products
}


def sorted_times(case, step):
    if case == "products":  # on and beside k * step, which may round
        k = np.arange(200) * step
        return np.sort(np.concatenate((np.floor(k) - 1, np.floor(k), np.ceil(k)))).astype(np.int64)
    return np.array(SORTED_TIMES[case], dtype=np.int64)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("step", [TOY_CFG.trefi_ns, TOY_CFG.window_ns, DramConfig().trefi_ns, 1e9 / 3])
@pytest.mark.parametrize("case", sorted(SORTED_TIMES) + ["products"])
def test_multiples_matches_elementwise_reference(case, step, strict):
    t = sorted_times(case, step)
    got = dram._multiples(t, step, strict)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracles.multiples_reference(t, step, strict))


def test_multiples_of_random_sorted_times():
    rng = generator(15, "dram-multiples")
    for step in (7.0, 1e9 / 3, TOY_CFG.trefi_ns):
        for span in (10, 10 ** 6, 10 ** 15):
            t = np.sort(rng.integers(-50, span, int(rng.integers(1, 500))))
            for strict in (False, True):
                assert np.array_equal(dram._multiples(t, step, strict),
                                      oracles.multiples_reference(t, step, strict))
            f = np.sort(rng.random(300)) * span  # refresh commands' times are floats
            assert np.array_equal(dram._multiples(f, step, True), oracles.multiples_reference(f, step, True))


def test_victim_flips_again_after_refresh():
    trefi = int(TOY_CFG.trefi_ns)  # tick 1 refreshes rows 0..7
    events = hammer(0, 5, 10, start=0, step=1000) + hammer(0, 5, 10, start=trefi + 1000, step=1000)
    res = assert_engines_agree(events)
    times = [f.time_ns for f in res.flips if (f.bank, f.row) == (0, 4)]
    assert len(times) == 2 and times[0] < trefi < times[1]


def hammered_pairs(mapping, banks, rounds=14, start=1_000, step=400):
    """Double-sided pairs (rows 4 and 6) in the given banks, interleaved in time."""
    return [AccessEvent(start + k * step + j * step // 2 + i, dram_to_physical(bank, row, 0, mapping), "W", 8)
            for k in range(rounds) for j, row in enumerate((4, 6)) for i, bank in enumerate(banks)]


@pytest.mark.parametrize("bank_count, banks", [
    (256, (0, 127, 128, 255)),      # bank numbers fill a uint8 sort key
    (512, (1, 255, 257, 511)),      # they need uint16: 257 and 1 share their low byte
])
def test_wide_bank_fields_match_references(bank_count, banks):
    mapping = DramMapping(bank_count=bank_count, rows_per_bank=16, row_size_bytes=64, bank_xor=True)
    rng = generator(bank_count, "dram-wide-banks")
    events = random_trace_on(mapping, rng, n_events=300, t_span=20_000_000, max_size=200)
    events = sorted(events + hammered_pairs(mapping, banks), key=lambda e: e.time_ns)
    for trr in (NO_TRR, TrrConfig(capacity=2)):
        res = assert_engines_agree(events, trr=trr, mapping=mapping, thresholds=TABLE_12_8)
        assert {f.bank for f in res.flips if f.row == 5} >= set(banks)


def test_one_chunk_over_several_windows_matches_references():
    # the sampler ranks each window's ACTs on their own: the chunk's ACTs in
    # (window, row, position) order, here over four windows in one chunk,
    # with a different pair leading bank 3 in each window
    window_ns = int(TOY_CFG.window_ns)
    rng = generator(3, "dram-multi-window")
    events = decoyed_and_protected(windows=4, step=256_000)
    for w in range(4):
        events += hammer(3, 10 + 8 * w, 30, start=w * window_ns + 1000, step=20_000, other=60)
    events = sorted(events + random_trace_on(TOY, rng, n_events=400, t_span=4 * window_ns),
                    key=lambda e: e.time_ns)
    assert len(events) <= dram.CHUNK_EVENTS
    for cap in (1, 2, 4):
        res = assert_engines_agree(events, trr=TrrConfig(capacity=cap), thresholds=TABLE_12_8)
        assert len(res.windows) == 4


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_small_chunks_carry_state(monkeypatch, chunk):
    rng = generator(chunk, "dram-chunks")
    traces = [decoyed_and_protected(windows=1, step=400_000)]
    traces += [random_trace_on(TOY, rng, n_events=120) for _ in range(4)]
    results = [
        [simulate_trace(events, TOY_CFG, TOY, TABLE_12_8, TrrConfig(capacity=c),
                        oracles.all_vulnerable(TOY), RowContents()) for c in (0, 2)]
        for events in traces
    ]
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    for events, whole in zip(traces, results):
        for c, expected in zip((0, 2), whole):
            trr = TrrConfig(capacity=c)
            res = assert_engines_agree(events, trr=trr, thresholds=TABLE_12_8)
            assert res == expected
            # event columns, whole or in blocks, read the same as tuples
            t, paddr, _, size = (np.array(c) for c in zip(*events))
            columns = (t, paddr, size)
            blocks = (EventColumns(*(c[a:a + 5] for c in columns)) for a in range(0, len(events), 5))
            for trace in (EventColumns(*columns), blocks):
                assert simulate_trace(trace, TOY_CFG, TOY, TABLE_12_8, trr,
                                      oracles.all_vulnerable(TOY), RowContents()) == expected


# -- the engine's packed (entity << sh) + position keys -----------------------

def ticked_chunks(chunk, ticks=16):
    """One chunk per tick interval: chunk - 1 ACTs of bank 1's decoyed pair
    pattern, then a row hit on the next tick, so the chunk's command lands
    after its last ACT, at position n = chunk - 1."""
    trefi = int(TOY_CFG.trefi_ns)
    decoys = [20, 23, 26, 29]
    per_window = TOY_CFG.ref_commands * (chunk - 1)
    seq = (decoys + (decoys + [9, 11]) * (per_window // 6))[:per_window]
    step = trefi // chunk
    events = []
    for k in range(ticks):
        rows = seq[k % TOY_CFG.ref_commands * (chunk - 1):][:chunk - 1]
        events += [ev(k * trefi + (i + 1) * step, 1, r) for i, r in enumerate(rows)]
        events.append(ev((k + 1) * trefi, 1, rows[-1]))
    return events


@pytest.mark.parametrize("chunk", [127, 128, 129])
def test_chunks_around_a_power_of_two_match_references(monkeypatch, chunk):
    # n = 126, 127 and 128 ACTs per chunk: positions 0..n take sh = 7, 7 and
    # 8 bits, and each chunk's refresh command sits at position n itself
    events = ticked_chunks(chunk)
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    for cap in (1, 4):
        res = assert_engines_agree(events, trr=TrrConfig(capacity=cap), thresholds=TABLE_12_8)
        assert len(res.windows) == 3 and res.total_acts == 16 * (chunk - 1)
        assert {(f.bank, f.row, f.time_ns // int(TOY_CFG.window_ns)) for f in res.flips} >= {(1, 10, 0), (1, 10, 1)}


def test_last_row_across_a_window_boundary_matches_references():
    # one chunk: bank 3's rows 61 and 63 (flat rows N - 3 and N - 1) alternate
    # across the window boundary and end on row 63, then a hit on it past the
    # next tick; the chunk's largest key is ((N + N - 1) << sh) + n - 1
    window_ns, trefi = int(TOY_CFG.window_ns), int(TOY_CFG.trefi_ns)
    start = window_ns - 2 * trefi
    events = [ev(start + 100_000 * i, 3, (61, 63)[i % 2]) for i in range(4 * trefi // 100_000)]
    events.append(ev(start + 4 * trefi + 1, 3, 63))
    assert len(events) <= dram.CHUNK_EVENTS
    for trr in (NO_TRR, TrrConfig(capacity=1), TrrConfig(capacity=2)):
        res = assert_engines_agree(events, trr=trr, thresholds=TABLE_12_8)
        assert [w.row_acts.get((3, 63)) for w in res.windows] == [80, 80]
        assert {f.time_ns // window_ns for f in res.flips if (f.bank, f.row) == (3, 62)} == {0, 1}


def test_trr_tie_goes_to_the_lower_row():
    # capacity 2 in bank 0: row 40 leads and rows 10 and 20 tie at the first
    # tick, so the sampler refreshes the neighbors of 40 and 10 only.  Rows
    # 19 and 21 then reach 12 single-sided ACTs before tick 2; 9 and 11 stay at 6
    trefi = int(TOY_CFG.trefi_ns)
    rows = [10, 40, 20] * 6 + [40]
    events = [ev(1000 * (i + 1), 0, r) for i, r in enumerate(rows)]
    events += [ev(trefi + 1000 * (i + 1), 0, r) for i, r in enumerate([10, 20] * 6)]
    res = assert_engines_agree(events, trr=TrrConfig(capacity=2), thresholds=TABLE_12_8)
    assert res.windows[0].row_acts == {(0, 10): 12, (0, 20): 12, (0, 40): 7}
    assert sorted((f.row, f.mode) for f in res.flips) == [(19, "single"), (21, "single")]


# -- error parity with the incremental engine -------------------------------

def first_error(simulate, events, cfg):
    with pytest.raises(ValueError) as info:
        simulate(list(events), cfg, TOY, LOW, NO_TRR,
                 oracles.all_vulnerable(TOY), RowContents())
    return type(info.value), str(info.value)


TIGHT = DramConfig(refresh_period_s=0.064, ref_commands=8, trc_effective_s=0.008)  # act_cap 8


def error_cases():
    """Case name -> (events, exception type the first bad event raises)."""
    base = hammer(0, 5, 3, step=100)  # 6 ACTs in bank 0
    over_cap = hammer(0, 5, 5, start=1000, step=100)  # takes bank 0 past 8
    backwards = [ev(10, 1, 3)]
    outside = [AccessEvent(2000, TOY.capacity_bytes - 4, "R", 8)]
    negative = [AccessEvent(2000, -8, "R", 8)]
    negative_size = [AccessEvent(2000, dram_to_physical(0, 4, 0, TOY), "R", -64)]
    return {
        "backwards": (base + backwards, ValueError),
        "outside": (base + outside, ValueError),
        "negative": (base + negative, ValueError),
        "over cap": (base + over_cap, TraceRateError),
        "one past cap": (base + over_cap[:3], TraceRateError),
        "backwards before cap": (base + backwards + over_cap, ValueError),
        "cap before outside": (base + over_cap + [AccessEvent(5000, TOY.capacity_bytes, "R", 1)],
                               TraceRateError),
        "outside before backwards": (base + outside + backwards, ValueError),
        "negative size": (base + negative_size, ValueError),
        "cap before negative size": (base + over_cap + negative_size, TraceRateError),
        # bank 1 passes the cap first, bank 0 later in the same window
        "two banks over cap": (base + hammer(1, 5, 5, start=1000) + hammer(0, 5, 5, start=3000), TraceRateError),
    }


@pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
@pytest.mark.parametrize("case", sorted(error_cases()))
def test_errors_match_incremental_engine(monkeypatch, case, chunk):
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    events, kind = error_cases()[case]
    expected = first_error(oracles.incremental_simulate, events, TIGHT)
    assert expected[0] is kind
    assert first_error(simulate_trace, events, TIGHT) == expected


def test_rate_error_in_second_window_of_a_chunk(monkeypatch):
    # chunk 1 (24 events) leaves window 0 open; chunk 2 finishes window 0
    # and runs into window 1, where bank 1 passes act_cap (8).  Bank 0, at
    # 6 ACTs in window 0 and 8 in window 1, never does, but would first if
    # the carried window's ACTs counted toward window 1.
    W = int(TIGHT.window_ns)
    first = hammer(0, 5, 2) + hammer(2, 5, 4, start=200) + hammer(3, 5, 4, start=1000) + hammer(1, 5, 2, start=2000)
    second = hammer(0, 5, 1, start=3000) + hammer(1, 7, 2, start=4000)
    second += hammer(0, 9, 2, start=W) + hammer(1, 9, 5, start=W + 1000)[:9] + hammer(0, 9, 2, start=W + 2000)
    assert len(first) == 24 and len(second) == 23
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 24)
    message = "bank 1 exceeds 8 activations in window 1: the trace outruns the row-cycle budget"
    assert first_error(oracles.incremental_simulate, first + second, TIGHT) == (TraceRateError, message)
    assert first_error(simulate_trace, first + second, TIGHT) == (TraceRateError, message)
