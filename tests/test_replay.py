"""Columnar replay trace generation against the one-op-at-a-time reference."""
import dataclasses

import numpy as np
import pytest

import oracles
from oracles import iter_replay_events
from hammersim import dram, replay
from hammersim.dram import DramConfig, ThresholdEntry, ThresholdTable, TrrConfig
from hammersim.federation import LayerSpec, ModelSpec, RoundRecord, make_mlp_spec
from hammersim.memlayout import PAGE_BYTES, DramMapping, build_layout
from hammersim.metrics import BandwidthModel
from hammersim.replay import BLOCK_INDICES, round_script

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


def pool_case(meta):
    spec = make_mlp_spec(100, 96, 3)
    layout = build_layout(spec, None, DramMapping(), seed=3)
    records = learned_like(11, 61, spec.total_params)
    # the last block is partial, and one round is a block of its own
    records.append(RoundRecord(61, np.arange(100, 100 + BLOCK_INDICES + 500)))
    records += learned_like(12, 5, spec.total_params)
    records = [RoundRecord(r, rec.indices) for r, rec in enumerate(records)]
    assert sum(r.indices.size for r in records) % BLOCK_INDICES
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
def test_events_match_reference(case):
    layout, records, meta = CASES[case]()
    expected = oracles.reference_replay_events(layout, records, BW, meta)
    assert list(iter_replay_events(layout, records, BW, meta)) == expected


def test_ingress_ring_wraps():
    layout, records, meta = ingress_wrap_case()
    script = round_script(layout, records, meta)
    ring = script.ingress_offset.tolist()
    assert ring[0] == 0 and 0 in ring[1:]
    assert (script.ingress_offset + script.size_bytes).max() <= layout.region("ingress").size_bytes


def test_ingress_ring_fills_exactly_before_wrapping():
    spec = make_mlp_spec(100, 96, 3)
    layout = build_layout(spec, None, DramMapping(), seed=7, ingress_bytes=4096)
    # 256 entries of 4 value bytes and 4 metadata bytes: two updates fill the ring
    records = [RoundRecord(r, np.arange(256) + 300 * r) for r in range(5)]
    script = round_script(layout, records, 4, ingress_offset=2048)
    assert script.size_bytes.tolist() == [2048] * 5
    assert script.ingress_offset.tolist() == [2048, 0, 2048, 0, 2048]


def test_events_stream_block_by_block(monkeypatch):
    layout, records, meta = pool_case(0)
    blocks = []
    real = replay.round_script

    def counting(layout, block, *args):
        blocks.append(sum(r.indices.size for r in block))
        return real(layout, block, *args)

    monkeypatch.setattr(replay, "round_script", counting)
    events = iter_replay_events(layout, records, BW, meta)
    next(events)
    assert len(blocks) == 1
    for _ in events:
        pass
    assert sum(blocks) == sum(r.indices.size for r in records)
    assert len(blocks) > 2
    # every block stays under the cap unless it is one oversized round
    assert all(n <= BLOCK_INDICES or n == BLOCK_INDICES + 500 for n in blocks)


# -- record checks ------------------------------------------------------------

def small_layout():
    return build_layout(make_mlp_spec(20, 8, 3), None, LAYOUT_MAP, seed=1)


def test_indices_at_both_ends_of_the_model_accepted():
    layout = small_layout()
    last = layout.spec.total_params - 1
    script = round_script(layout, [RoundRecord(0, np.array([0])), RoundRecord(1, np.array([last]))])
    assert script.size_bytes.size == 2


@pytest.mark.parametrize("bad", [[-1, 0], [-5], [190, 195], [196]])
def test_indices_outside_the_model_rejected(bad):
    layout = small_layout()  # 195 parameters
    records = [RoundRecord(6, np.array([1])), RoundRecord(7, np.array(bad))]
    with pytest.raises(ValueError, match=r"round 7: index -?\d+ outside the model \[0, 195\)"):
        round_script(layout, records)
    with pytest.raises(ValueError, match="round 7"):
        list(iter_replay_events(layout, records, BW))


def test_empty_record_rejected():
    layout = small_layout()
    records = [RoundRecord(2, np.array([1])), RoundRecord(3, np.array([], dtype=np.int64))]
    with pytest.raises(ValueError, match="round 3: empty record"):
        round_script(layout, records)
    with pytest.raises(ValueError, match="round 3: empty record"):
        list(iter_replay_events(layout, records, BW))


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


def test_engine_joins_consecutive_small_blocks(monkeypatch):
    expected = flipping_replay()
    assert expected.flips and len(expected.windows) > 1
    for block_indices in (64, 1000, BLOCK_INDICES):
        monkeypatch.setattr(replay, "BLOCK_INDICES", block_indices)
        chunks, blocks = engine_chunks(monkeypatch)
        assert flipping_replay() == expected
        # each chunk is whole consecutive blocks: one block longer than
        # JOIN_EVENTS, or as many blocks as fit in JOIN_EVENTS
        block_ends = np.cumsum(blocks).tolist()
        first = 0
        for end in np.cumsum(chunks).tolist():
            last = block_ends.index(end)
            n = end - (block_ends[first - 1] if first else 0)
            assert n <= dram.JOIN_EVENTS or first == last
            assert last + 1 == len(blocks) or n + blocks[last + 1] > dram.JOIN_EVENTS
            first = last + 1
        assert first == len(blocks)
        if block_indices < BLOCK_INDICES:
            assert len(chunks) < len(blocks)
        else:
            assert max(blocks) > dram.JOIN_EVENTS


def test_engine_chunks_on_saturating_rounds(monkeypatch):
    # criterion 10's record shape: one 2048-index run per round, so a block
    # is 4 rounds and 24 events; the engine must not take them one by one
    spec = ModelSpec((LayerSpec("block", 20480),))
    mapping = DramMapping(bank_count=1, rows_per_bank=512, row_size_bytes=8192, bank_xor=False)
    layout = build_layout(spec, None, mapping, seed=3)
    records = [RoundRecord(r, np.arange(2048)) for r in range(4000)]
    chunks, blocks = engine_chunks(monkeypatch)
    replay.replay_records(records, layout, DramConfig(), BW, dram.builtin_thresholds(),
                          trr=TrrConfig(capacity=0), vmap=oracles.all_vulnerable(mapping))
    assert set(blocks) == {24} and sum(chunks) == sum(blocks)
    assert len(chunks) <= -(-sum(chunks) // (dram.JOIN_EVENTS - 24)) + 1


def test_engine_cuts_blocks_longer_than_a_chunk(monkeypatch):
    expected = flipping_replay()
    chunks, blocks = engine_chunks(monkeypatch)
    flipping_replay()
    chunk = max(blocks) // 3
    del chunks[:], blocks[:]
    monkeypatch.setattr(dram, "CHUNK_EVENTS", chunk)
    assert flipping_replay() == expected
    assert sum(chunks) == sum(blocks) and len(chunks) > len(blocks) and max(chunks) == chunk


def test_stage_seconds_stay_out_of_equality():
    layout, records, meta = ingress_wrap_case()
    summary = replay.replay_records(records, layout, DramConfig(), BW, dram.builtin_thresholds(),
                                    metadata_bytes_per_entry=meta)
    assert summary.trace_seconds > 0 and summary.engine_seconds > 0
    assert dataclasses.replace(summary, trace_seconds=1e9, engine_seconds=-1.0) == summary
