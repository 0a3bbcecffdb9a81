"""Columnar replay trace generation against the one-op-at-a-time reference."""
import dataclasses

import numpy as np
import pytest

import oracles
from oracles import iter_replay_events
from hammersim import dram, replay
from hammersim.dram import DramConfig, ThresholdEntry, ThresholdTable, TrrConfig
from hammersim.federation import LayerSpec, ModelSpec, RoundRecord, make_mlp_spec, read_round_records
from hammersim.memlayout import PAGE_BYTES, DramMapping, EventColumns, build_layout
from hammersim.metrics import BandwidthModel
from hammersim.replay import RecordError, ReplayCache

BW = BandwidthModel()
LAYOUT_MAP = DramMapping(bank_count=4, rows_per_bank=256, row_size_bytes=8192, bank_xor=True)


def learned_like(seed, n_rounds, total_params, hot=(3000, 3120)):
    """Rounds that keep ~70% of a base index set, add a hot run and fresh indices."""
    rng = np.random.default_rng(seed)
    base = rng.choice(total_params, 220, replace=False)
    hot_run = np.arange(*hot)
    records = []
    for r in range(n_rounds):
        parts = [base[rng.random(base.size) < 0.7],
                 hot_run[rng.random(hot_run.size) < 0.8],
                 rng.choice(total_params, 40, replace=False)]
        records.append(RoundRecord(r, np.unique(np.concatenate(parts))))
    return records


POOL_BLOCK_EVENTS = 1 << 8


def pool_case(meta):
    spec = make_mlp_spec(100, 96, 3)
    layout = build_layout(spec, None, DramMapping(), seed=3)
    records = learned_like(11, 61, spec.total_params)
    # with POOL_BLOCK_EVENTS blocks the last block is partial, and one round
    # (4,900 single-entry runs: over 24,500 events, over 320 of them
    # row-opening) is a block of its own
    records.append(RoundRecord(61, np.arange(100, 9900, 2)))
    records += learned_like(12, 5, spec.total_params)
    records = [RoundRecord(r, rec.indices) for r, rec in enumerate(records)]
    return layout, records, meta


def layer_border_case():
    spec = make_mlp_spec(20, 8, 3)  # borders at 160, 168, 192; 195 parameters
    layout = build_layout(spec, None, LAYOUT_MAP, seed=2)
    # [10, 11] then [12, 13]: a run that carries on across a round change
    index_sets = [np.arange(150, 195), [158, 159, 160, 161], np.arange(166, 170),
                  np.arange(spec.total_params), [159, 167, 191], [0, spec.total_params - 1],
                  [10, 11], [12, 13]]
    records = [RoundRecord(r, np.array(s)) for r, s in enumerate(index_sets * 3)]
    return layout, records, 4


def small_row_page_case():
    # 256 B rows on 4 banks; the first layer's buffers span several huge pages
    spec = make_mlp_spec(1024, 600, 4)
    mapping = DramMapping(bank_count=4, rows_per_bank=16384, row_size_bytes=256)
    layout = build_layout(spec, None, mapping, seed=5)
    runs = []
    for name in ("values", "accumulator", "writeback"):
        region = layout.region(name, 0)
        border = -(-region.virtual_start // PAGE_BYTES) * PAGE_BYTES
        assert border < region.virtual_end
        at = (border - region.virtual_start) // 4  # first element on the next page
        runs.append(np.arange(at - 700, at + 700))
    first_layer = spec.layer_offsets[1]
    runs.append(np.arange(first_layer - 300, first_layer + 300))  # into b1
    # each round leaves one of the four runs out, in turn
    records = [RoundRecord(r, np.unique(np.concatenate([run for k, run in enumerate(runs) if k != r % 4])))
               for r in range(6)]
    return layout, records, 0


def ingress_wrap_case():
    spec = make_mlp_spec(100, 96, 3)
    layout = build_layout(spec, None, DramMapping(), seed=7, ingress_bytes=16384)
    records = learned_like(5, 30, spec.total_params)
    return layout, records, 4


CASES = {
    "pool-meta0": lambda: pool_case(0),
    "pool-meta4": lambda: pool_case(4),
    "layer-borders": layer_border_case,
    "small-rows-pages": small_row_page_case,
    "ingress-wrap": ingress_wrap_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_events_match_reference(monkeypatch, case):
    monkeypatch.setattr(dram, "CHUNK_EVENTS", POOL_BLOCK_EVENTS)
    layout, records, meta = CASES[case]()
    expected = oracles.reference_replay_events(layout, records, BW, meta, row_opening=True)
    assert list(iter_replay_events(layout, records, BW, meta)) == expected


def test_ingress_ring_wraps():
    layout, records, meta = ingress_wrap_case()
    cache = ReplayCache(layout, records, meta)
    ring = cache.ingress_offset.tolist()
    assert ring[0] == 0 and 0 in ring[1:]
    assert (cache.ingress_offset + cache.size_bytes).max() <= layout.region("ingress").size_bytes


def test_ingress_ring_fills_exactly_before_wrapping():
    spec = make_mlp_spec(100, 96, 3)
    layout = build_layout(spec, None, DramMapping(), seed=7, ingress_bytes=4096)
    # 256 entries of 4 value bytes and 4 metadata bytes: two updates fill the ring
    records = [RoundRecord(r, np.arange(256) + 300 * r) for r in range(5)]
    cache = ReplayCache(layout, records, 4)
    assert cache.size_bytes.tolist() == [2048] * 5
    assert cache.ingress_offset.tolist() == [0, 2048, 0, 2048, 0]


def counting_blocks(monkeypatch):
    """(events, rounds) of every block replay builds, in order."""
    blocks = []
    real = replay.trace_update_processing

    def counting(layout, cache, block, *args):
        trace = real(layout, cache, block, *args)
        blocks.append((len(trace.events), block.stop - block.start))
        return trace

    monkeypatch.setattr(replay, "trace_update_processing", counting)
    return blocks


def test_events_stream_block_by_block(monkeypatch):
    monkeypatch.setattr(dram, "CHUNK_EVENTS", POOL_BLOCK_EVENTS)
    layout, records, meta = pool_case(0)
    blocks = counting_blocks(monkeypatch)
    events = iter_replay_events(layout, records, BW, meta)
    next(events)
    assert len(blocks) == 1
    n = 1 + sum(1 for _ in events)
    assert sum(e for e, _ in blocks) == n and sum(r for _, r in blocks) == len(records)
    assert len(blocks) > 2
    # every block stays under the bound unless it is one oversized round
    assert all(e <= POOL_BLOCK_EVENTS or r == 1 for e, r in blocks)
    assert any(e > POOL_BLOCK_EVENTS for e, _ in blocks)
    assert blocks[-1][0] < POOL_BLOCK_EVENTS


# -- record checks ------------------------------------------------------------

THRESHOLDS = ThresholdTable([ThresholdEntry(0, 0, 30, 20)])


def small_layout():
    return build_layout(make_mlp_spec(20, 8, 3), None, LAYOUT_MAP, seed=1)


def test_indices_at_both_ends_of_the_model_accepted():
    layout = small_layout()
    last = layout.spec.total_params - 1
    records = [RoundRecord(0, np.array([0])), RoundRecord(1, np.array([last]))]
    runs, layer, offset, count = replay._entry_runs(layout, records)
    assert runs.tolist() == [1, 1] and count.tolist() == [1, 1]
    assert layer.tolist() == [0, len(layout.spec.layers) - 1]
    assert offset.tolist() == [0, last - layout.spec.layer_offsets[-2]]
    # per round its ingress piece, then the accumulator (read, write, read:
    # one row opening), writeback and values pieces
    events = list(iter_replay_events(layout, records, BW))
    assert events == oracles.reference_replay_events(layout, records, BW, row_opening=True)
    assert len(events) == 2 * 4


@pytest.mark.parametrize("bad", [[-1, 0], [-5], [190, 195], [196]])
def test_indices_outside_the_model_rejected(bad):
    layout = small_layout()  # 195 parameters
    records = [RoundRecord(6, np.array([1])), RoundRecord(7, np.array(bad))]
    message = rf"^round 7: index {bad[0] if bad[0] < 0 else bad[-1]} outside the model \[0, 195\)$"
    with pytest.raises(RecordError, match=message):
        ReplayCache(layout, records, 0)
    with pytest.raises(RecordError, match=message):
        list(iter_replay_events(layout, records, BW))


def test_empty_record_rejected():
    layout = small_layout()
    records = [RoundRecord(2, np.array([1])), RoundRecord(3, np.array([], dtype=np.int64))]
    with pytest.raises(RecordError, match="^round 3: empty record$"):
        ReplayCache(layout, records, 0)
    with pytest.raises(RecordError, match="^round 3: empty record$"):
        list(iter_replay_events(layout, records, BW))


def test_no_rounds_rejected():
    with pytest.raises(RecordError, match="^no rounds to replay$"):
        replay.replay_records([], small_layout(), DramConfig(), BW, THRESHOLDS)


def test_read_records_are_checked_by_replay(tmp_path):
    # the reader sorts each line and checks only its syntax and round numbers
    layout = small_layout()
    path = tmp_path / "records.txt"
    for text, message in (("0 3 5\n1 -1 3 5\n", r"^round 1: index -1 outside the model \[0, 195\)$"),
                          ("0 3 5\n7\n", "^round 7: empty record$")):
        path.write_text("# total_params=195\n" + text)
        records, _ = read_round_records(path)
        with pytest.raises(RecordError, match=message):
            ReplayCache(layout, records, 0)


def cycled_records(bad):
    """Rounds 100-159 cycling a pool of two arrays, with bad first playing at round 132."""
    pool = [np.array([1, 2]), np.array([7, 8, 9])]
    cycle = [pool[r % 2] if r < 30 else (pool + [bad])[r % 3] for r in range(60)]
    return [RoundRecord(100 + r, a) for r, a in enumerate(cycle)]


CHECKED_BEFORE_THE_ENGINE = {
    "empty": ([], "empty record"),
    "negative": ([-1, 0, 3], r"index -1 outside the model \[0, 195\)"),
    "past the model": ([5, 195], r"index 195 outside the model \[0, 195\)"),
    "larger than the queue": (range(20), "an update of 80 bytes does not fit the 64-byte ingress queue"),
}


@pytest.mark.parametrize("case", list(CHECKED_BEFORE_THE_ENGINE))
def test_record_rules_checked_before_the_engine(monkeypatch, case):
    bad, message = CHECKED_BEFORE_THE_ENGINE[case]
    layout = build_layout(make_mlp_spec(20, 8, 3), None, LAYOUT_MAP, seed=1, ingress_bytes=64)
    calls = []
    monkeypatch.setattr(replay, "round_script", lambda *args: calls.append("round_script"))
    monkeypatch.setattr(dram._ColumnEngine, "feed", lambda *args: calls.append("feed"))
    with pytest.raises(RecordError, match=f"^round 132: {message}$"):
        replay.replay_records(cycled_records(np.array(bad, dtype=np.int64)), layout, DramConfig(), BW, THRESHOLDS)
    assert calls == []


@pytest.mark.parametrize("bad", [[5, 3], [4, 4], [1, 9, 8]])
def test_unsorted_or_repeating_array_rejected(monkeypatch, bad):
    # records take any array; replay checks that each distinct array is
    # sorted once, before its events are built, and names the first round
    # that plays it
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 24)  # 4 row-opening events a round
    monkeypatch.setattr(replay, "BATCH_INDICES", 4)  # a window of one or two rounds
    layout = small_layout()
    bad, pool = np.array(bad), [np.array([1, 2]), np.array([7, 8, 9])]
    assert RoundRecord(0, bad).indices is bad  # construction checks nothing
    blocks = counting_blocks(monkeypatch)
    records = [RoundRecord(100 + r, a) for r, a in enumerate([bad] + pool * 3)]
    with pytest.raises(RecordError, match=r"^round 100: record indices must be sorted and unique$"):
        list(iter_replay_events(layout, records, BW))
    assert blocks == []
    # cycled from round 100 on, the bad array first playing at round 132
    with pytest.raises(RecordError, match=r"^round 132: record indices must be sorted and unique$"):
        list(iter_replay_events(layout, cycled_records(bad), BW))
    assert len(blocks) > 2 and sum(r for _, r in blocks) <= 32


# -- blocks into the engine -----------------------------------------------------

def flipping_replay():
    """replay_records on the pool case with low thresholds, TRR and 3 us
    refresh windows, so that flips, refreshes, sampler state and windows
    all cross block borders."""
    layout, records, meta = pool_case(4)
    cfg = DramConfig(refresh_period_s=3e-6, ref_commands=64, trc_effective_s=1e-9)
    return replay.replay_records(
        records, layout, cfg, BW, ThresholdTable([ThresholdEntry(0, 0, 30, 20)]),
        trr=TrrConfig(capacity=1), vmap=oracles.all_vulnerable(layout.mapping), metadata_bytes_per_entry=meta,
    ).result


def engine_chunks(monkeypatch):
    """Event counts of the chunks the engine is fed, and of the replay's blocks."""
    chunks, blocks = [], []
    feed, event_blocks = dram._ColumnEngine.feed, replay._event_blocks

    def counting_feed(self, t, paddr, size):
        chunks.append(t.size)
        return feed(self, t, paddr, size)

    def counting_blocks(*args):
        for columns in event_blocks(*args):
            blocks.append(len(columns))
            yield columns

    monkeypatch.setattr(dram._ColumnEngine, "feed", counting_feed)
    monkeypatch.setattr(replay, "_event_blocks", counting_blocks)
    return chunks, blocks


def cut_at(blocks, chunk):
    """The chunks the engine cuts blocks of these event counts into."""
    return [min(chunk, e - a) for e in blocks for a in range(0, e, chunk)]


def test_engine_joins_consecutive_small_blocks(monkeypatch):
    # rounds are joined into blocks of up to CHUNK_EVENTS events, and each
    # block goes to the engine as one chunk (a longer round, a block of its
    # own, as several); the result does not depend on where the blocks end
    expected = flipping_replay()
    assert expected.flips and len(expected.windows) > 1
    cut = []
    for block_events in (64, 1000, 5000, dram.CHUNK_EVENTS):
        monkeypatch.setattr(dram, "CHUNK_EVENTS", block_events)
        chunks, blocks = engine_chunks(monkeypatch)
        shapes = counting_blocks(monkeypatch)
        assert flipping_replay() == expected
        assert blocks == [e for e, _ in shapes] and chunks == cut_at(blocks, block_events)
        assert all(e <= block_events or r == 1 for e, r in shapes)
        cut.append(len(chunks) > len(blocks))
    assert cut[0] and not cut[-1]  # the pool's oversized round is cut at 64 events, and whole at the default


def assert_blocks_fill_on_saturating_rounds(monkeypatch, records):
    # criterion 10's record shape: one 2048-index run per round, 6 events,
    # 4 of them row-opening; the engine must not take them a few at a time
    spec = ModelSpec((LayerSpec("block", 20480),))
    mapping = DramMapping(bank_count=1, rows_per_bank=512, row_size_bytes=8192, bank_xor=False)
    layout = build_layout(spec, None, mapping, seed=3)
    per_round = len(oracles.reference_replay_events(layout, records[:1], BW, row_opening=True))
    assert per_round == 4
    chunk = 1 << 15  # so that the 48,000 row-opening events fill more than one block
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    chunks, blocks = engine_chunks(monkeypatch)
    summary = replay.replay_records(records, layout, DramConfig(), BW, dram.builtin_thresholds(),
                                    trr=TrrConfig(capacity=0), vmap=oracles.all_vulnerable(mapping))
    assert sum(blocks) == per_round * len(records) and chunks == blocks
    assert summary.result.total_events == 6 * len(records)
    assert len(blocks) > 1 and all(chunk - per_round < n <= chunk for n in blocks[:-1])
    # no looser than the 8,192-event join of 6-event rounds this replaced
    assert len(chunks) <= -(-sum(chunks) // (chunk - per_round)) + 1 <= -(-sum(chunks) // (8192 - 24)) + 1


def test_engine_chunks_on_saturating_rounds(monkeypatch):
    idx = np.arange(2048)
    records = [RoundRecord(r, idx) for r in range(12000)]  # all sharing one array: one template
    assert_blocks_fill_on_saturating_rounds(monkeypatch, records)


def test_engine_chunks_on_saturating_rounds_with_own_arrays(monkeypatch):
    # each round with its own array object, as records read from a file
    # have; views keep the memory small, and the key is the object
    idx = np.arange(2048)
    records = [RoundRecord(r, idx[:]) for r in range(12000)]
    assert len({id(r.indices) for r in records}) == len(records)
    assert_blocks_fill_on_saturating_rounds(monkeypatch, records)


def test_engine_cuts_blocks_longer_than_a_chunk(monkeypatch):
    # a round longer than a chunk is a block of its own, which the engine cuts
    expected = flipping_replay()
    layout, records, meta = pool_case(4)
    cache = built_cache(monkeypatch, layout, records, meta)
    chunk = int((cache.events[cache.owner] + cache.ingress_pieces).max()) // 3
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    chunks, blocks = engine_chunks(monkeypatch)
    assert flipping_replay() == expected
    assert sum(chunks) == sum(blocks) and len(chunks) > len(blocks) and max(chunks) == chunk


def test_stage_seconds_stay_out_of_equality():
    layout, records, meta = ingress_wrap_case()
    summary = replay.replay_records(records, layout, DramConfig(), BW, dram.builtin_thresholds(),
                                    metadata_bytes_per_entry=meta)
    assert summary.trace_seconds > 0 and summary.engine_seconds > 0
    assert dataclasses.replace(summary, trace_seconds=1e9, engine_seconds=-1.0) == summary


# -- record templates ---------------------------------------------------------

FLIP_CFG = DramConfig(refresh_period_s=3e-6, ref_commands=64, trc_effective_s=1e-9)
FLIP_TABLE = ThresholdTable([ThresholdEntry(0, 0, 30, 20)])


def record_builds(monkeypatch):
    """Round numbers of the records each template build makes, and the cache
    of every replay, in order."""
    builds, caches = [], []
    real_runs, real_round = replay._entry_runs, replay.round_script

    def counting_runs(layout, records):
        builds.append([r.round_number for r in records])
        return real_runs(layout, records)

    def counting_round(layout, records, cache, first):
        if not any(c is cache for c in caches):
            caches.append(cache)
        return real_round(layout, records, cache, first)

    monkeypatch.setattr(replay, "_entry_runs", counting_runs)
    monkeypatch.setattr(replay, "round_script", counting_round)
    return builds, caches


def store_per_block(monkeypatch):
    """Per block, as it is built: its first round, its template events, the
    store's events, the events of the templates the store keeps and their
    arrays' last rounds.

    After every block the store keeps, in ascending order, exactly the
    built arrays that a round from the block's first on plays, and their
    templates are disjoint ranges of the columns' first n_events."""
    blocks = []
    real = replay.round_script

    def recording(layout, records, cache, first):
        block = real(layout, records, cache, first)
        kept = cache.kept
        assert (kept[1:] > kept[:-1]).all()
        assert kept.tolist() == (cache.last[:cache.built] >= first).nonzero()[0].tolist()
        order = cache.start[kept].argsort()
        start, end = cache.start[kept][order], (cache.start + cache.events)[kept][order]
        assert (start >= 0).all() and (end[:-1] <= start[1:]).all() and (end <= cache.n_events).all()
        blocks.append(dict(first=first, events=int(cache.events[cache.owner[block]].sum()),
                           store=cache.n_events, live=int(cache.events[kept].sum()),
                           last=cache.last[kept].tolist()))
        return block

    monkeypatch.setattr(replay, "round_script", recording)
    return blocks


def built_cache(monkeypatch, layout, records, meta=4):
    """A ReplayCache of records with every array's template built, in one window."""
    with monkeypatch.context() as m:
        m.setattr(replay, "BATCH_INDICES", sum(r.indices.size for r in records))
        cache = ReplayCache(layout, records, meta)
        cache.build(layout, records, 0)
    assert cache.built == cache.length.size
    return cache


def assert_replay_matches_reference(layout, records, meta=4):
    """Events equal to the one-op reference's row-opening events, and the
    replay's result equal to the engine's on all the reference events."""
    expected = oracles.reference_replay_events(layout, records, BW, meta, row_opening=True)
    assert list(iter_replay_events(layout, records, BW, meta)) == expected
    full = oracles.reference_replay_events(layout, records, BW, meta)
    t, paddr, size = (np.array(c, dtype=np.int64) for c in zip(*full))
    kw = dict(trr=TrrConfig(capacity=1), vmap=oracles.all_vulnerable(layout.mapping))
    result = replay.replay_records(records, layout, FLIP_CFG, BW, FLIP_TABLE, metadata_bytes_per_entry=meta,
                                   **kw).result
    assert result == dram.simulate_trace(EventColumns(t, paddr, size), FLIP_CFG, layout.mapping, FLIP_TABLE, **kw)
    return result


def template_layout():
    return build_layout(make_mlp_spec(100, 96, 3), None, DramMapping(), seed=3)


def test_records_sharing_one_array(monkeypatch):
    layout = template_layout()
    idx = learned_like(3, 1, layout.spec.total_params)[0].indices
    records = [RoundRecord(r, idx) for r in range(300)]
    builds, _ = record_builds(monkeypatch)
    assert assert_replay_matches_reference(layout, records).flips
    assert builds == [[0], [0]]  # once per replay: the events, then the result


def test_equal_content_copies_in_distinct_arrays(monkeypatch):
    layout = template_layout()
    idx = learned_like(3, 1, layout.spec.total_params)[0].indices
    records = [RoundRecord(r, idx.copy()) for r in range(40)]
    builds, caches = record_builds(monkeypatch)
    assert_replay_matches_reference(layout, records)
    # the key is the array, not its content: each copy gets its own
    # template, built once per replay
    assert sorted(r for b in builds for r in b) == sorted(list(range(40)) * 2)
    assert len(caches) == 2 and all(len(c.last) == 40 for c in caches)


def test_interleaved_repeats(monkeypatch):
    layout = template_layout()
    pool = [r.indices for r in learned_like(5, 7, layout.spec.total_params)]
    order = [0, 1, 0, 2, 2, 1, 3, 0, 4, 5, 6, 5, 4, 3, 2, 1, 0] * 12
    records = [RoundRecord(r, pool[i]) for r, i in enumerate(order)]
    builds, _ = record_builds(monkeypatch)
    assert_replay_matches_reference(layout, records)
    assert sum(map(len, builds)) == 2 * len(pool)


def test_templates_dropped_after_their_last_round(monkeypatch):
    # 12 arrays cycled for 60 rounds, then only the first 3 of them: the
    # other 9 templates go once their last round has passed, and no array
    # is built twice
    layout = template_layout()
    pool = [r.indices for r in learned_like(6, 12, layout.spec.total_params)]
    records = [RoundRecord(r, pool[r % (12 if r < 60 else 3)]) for r in range(120)]
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 300)
    monkeypatch.setattr(replay, "BATCH_INDICES", 600)  # about 2 records
    builds, _ = record_builds(monkeypatch)
    blocks = store_per_block(monkeypatch)
    assert_replay_matches_reference(layout, records)
    assert sum(map(len, builds)) == 2 * len(pool)
    late = [b for b in blocks if b["first"] >= 60]
    assert len(late) > 2
    for block in blocks:
        assert min(block["last"]) >= block["first"]
    for block in late:  # every array still to play was built before round 60
        assert len(block["last"]) == len({id(r.indices) for r in records[block["first"]:]})


def test_each_record_built_once_per_replay(monkeypatch):
    # templates are built in windows that end anywhere in a block; none is
    # built twice, and every block stays in bounds
    layout = template_layout()
    records = learned_like(8, 150, layout.spec.total_params)
    shared = records[3].indices
    records += [RoundRecord(150 + r, shared) for r in range(4)]  # one array played 5 times
    cache = built_cache(monkeypatch, layout, records)
    largest = int((cache.events[cache.owner] + cache.ingress_pieces).max())
    block_events = 300
    monkeypatch.setattr(dram, "CHUNK_EVENTS", block_events)
    monkeypatch.setattr(replay, "BATCH_INDICES", 5000)
    builds, _ = record_builds(monkeypatch)
    shapes = counting_blocks(monkeypatch)
    store_per_block(monkeypatch)
    assert_replay_matches_reference(layout, records)
    assert sorted(r for b in builds for r in b) == sorted([3] * 2 + [r for r in range(150) if r != 3] * 2)
    assert 4 < len(builds) < len(shapes)  # several windows, most played in several blocks
    # each replay's blocks: all in bounds, and only its last one short
    replays = [shapes[:len(shapes) // 2], shapes[len(shapes) // 2:]]
    assert replays[0] == replays[1]
    assert all(block_events - largest < e <= block_events for e, _ in replays[0][:-1])


def test_consecutive_replays_build_their_own_templates(monkeypatch):
    layout, records, meta = pool_case(4)
    records = records + records[:20]  # 20 arrays played twice
    builds, caches = record_builds(monkeypatch)
    first = replay.replay_records(records, layout, FLIP_CFG, BW, FLIP_TABLE, metadata_bytes_per_entry=meta)
    n = sum(map(len, builds))
    second = replay.replay_records(records, layout, FLIP_CFG, BW, FLIP_TABLE, metadata_bytes_per_entry=meta)
    assert first == second
    assert n == sum(map(len, builds)) - n == len({id(r.indices) for r in records})
    assert len(caches) == 2 and caches[0].paddr is not caches[1].paddr


def test_store_bounded_by_live_templates_not_records(monkeypatch):
    # a records file: every round has its own array, played once; the store
    # holds one window's templates besides the live ones, never every record
    layout = template_layout()
    rng = np.random.default_rng(4)
    records = [RoundRecord(r, np.unique(rng.choice(layout.spec.total_params, 30))) for r in range(1200)]
    alone = built_cache(monkeypatch, layout, records)
    monkeypatch.setattr(dram, "CHUNK_EVENTS", 400)
    monkeypatch.setattr(replay, "BATCH_INDICES", 600)  # about 20 records
    # the most template events one window of records can build: the records
    # from any on with at most 600 indices between them (at least one)
    def window_events(i):
        n, end = records[i].indices.size, i + 1
        while end < len(records) and n + records[end].indices.size <= 600:
            n, end = n + records[end].indices.size, end + 1
        return alone.events[alone.owner[i:end]].sum()

    window = max(window_events(i) for i in range(len(records)))
    builds, _ = record_builds(monkeypatch)
    blocks = store_per_block(monkeypatch)
    n_events = sum(1 for _ in iter_replay_events(layout, records, BW, 4))
    assert sorted(r for b in builds for r in b) == list(range(1200))
    assert len(blocks) > 50
    for block in blocks:
        # the store keeps only templates still to play: the block's and the
        # rest of the last window built
        assert min(block["last"]) >= block["first"]
        assert block["live"] <= block["events"] + window
        assert block["store"] <= min(2 * block["live"], block["live"] + window)
    assert max(b["store"] for b in blocks) < n_events / 10


def test_bench_bindings_called_once_per_block(monkeypatch):
    # the benchmark times these two stages by replacing the module globals
    # replay calls them through, and reports a binding it cannot find as
    # absent, not as an error; so a rename has to fail here
    calls = {"round_script": 0, "trace_update_processing": 0}
    for name in calls:
        def counting(*args, real=getattr(replay, name), name=name, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(replay, name, counting)
    monkeypatch.setattr(dram, "CHUNK_EVENTS", POOL_BLOCK_EVENTS)
    chunks, blocks = engine_chunks(monkeypatch)
    layout, records, meta = pool_case(4)
    replay.replay_records(records, layout, FLIP_CFG, BW, FLIP_TABLE, metadata_bytes_per_entry=meta)
    assert len(blocks) > 2
    assert calls == {"round_script": len(blocks), "trace_update_processing": len(blocks)}


@pytest.mark.parametrize("capacity", [0, 1])
@pytest.mark.parametrize("chunk_events", [dram.CHUNK_EVENTS, 64])
def test_replay_equals_engine_on_every_reference_event(monkeypatch, capacity, chunk_events):
    # the engine is handed only each template's row-opening events; on every
    # event of the trace, row hits included, it gives the same windows, flips
    # and ACTs, and replay_records counts every event.  A 64-event chunk is
    # shorter than the pool's oversized round, a block the engine cuts
    layout, records, meta = pool_case(4)
    kw = dict(trr=TrrConfig(capacity=capacity), vmap=oracles.all_vulnerable(layout.mapping))
    full = oracles.reference_replay_events(layout, records, BW, meta)
    t, paddr, size = (np.array(c, dtype=np.int64) for c in zip(*full))
    expected = dram.simulate_trace(EventColumns(t, paddr, size), FLIP_CFG, layout.mapping, FLIP_TABLE, **kw)
    assert expected.flips and len(expected.windows) > 1 and expected.total_events == len(full)
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk_events)
    chunks, blocks = engine_chunks(monkeypatch)
    result = replay.replay_records(records, layout, FLIP_CFG, BW, FLIP_TABLE, metadata_bytes_per_entry=meta,
                                   **kw).result
    assert sum(chunks) < len(full) / 10 and max(chunks) <= chunk_events
    assert (len(chunks) > len(blocks)) == (chunk_events == 64)
    assert result.windows == expected.windows  # every window's row and bank counts
    assert result.flips == expected.flips  # every flip, with its time
    assert (result.total_acts, result.total_events) == (expected.total_acts, expected.total_events)
