"""Tests of the benchmark's own parts: span arithmetic, recorder, generators.

    python3 -m pytest bench -q
"""
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hammersim import config, dram  # noqa: E402
from spans import Span  # noqa: E402


# -- span self-time arithmetic ----------------------------------------------

def test_covered_merges_overlaps_and_clips_to_parent():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (5, 6)]) == 3
    assert spans.covered(0, 10, [(1, 4), (2, 6), (8, 12)]) == 5 + 2
    assert spans.covered(2, 4, [(0, 10)]) == 2
    assert spans.covered(0, 10, [(3, 3), (11, 12)]) == 0


def test_self_time_is_duration_minus_children():
    tree = [
        Span(1, 0, "child", 1.0, 3.0),
        Span(2, 1, "grandchild", 1.5, 2.0),
        Span(3, 0, "child", 4.0, 5.0),
        Span(0, spans.ROOT, "root", 0.0, 10.0),
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({"root": 7.0, "child": 2.5, "grandchild": 0.5})
    # self times of a tree add up to the root's duration
    assert sum(st.values()) == pytest.approx(10.0)
    assert spans.call_counts(tree) == {"child": 2, "grandchild": 1, "root": 1}
    assert spans.median_durations(tree)["child"] == pytest.approx(1.5)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_recorder_links_parents_and_times_with_its_clock():
    rec = spans.Recorder(clock=FakeClock())

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("inner", inner)
    traced_outer = rec.wrap("outer", lambda x: traced_inner(x) * 2)
    with rec.span("op"):
        assert traced_outer(1) == 4
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["op"].id
    assert by_name["op"].parent == spans.ROOT
    # clock ticks: op 1, outer 2, inner 3..4, outer ends 5, op ends 6
    assert spans.self_times(rec.spans) == {"inner": 1.0, "outer": 2.0, "op": 2.0}


def test_recorder_records_span_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert [s.name for s in rec.spans] == ["boom"]
    assert rec._stack == [spans.ROOT]


class Holder:
    @classmethod
    def make(cls, x):
        return (cls, x)

    @staticmethod
    def plain(x):
        return x * 3


def test_install_wraps_and_uninstall_restores():
    rec = spans.Recorder()
    raw_make, raw_plain = vars(Holder)["make"], vars(Holder)["plain"]
    assert rec.install("holder.make", f"{__name__}:Holder", "make")
    assert rec.install("holder.plain", f"{__name__}:Holder", "plain")
    assert Holder.make(2) == (Holder, 2)
    assert Holder.plain(2) == 6
    assert spans.call_counts(rec.spans) == {"holder.make": 1, "holder.plain": 1}
    rec.uninstall()
    assert vars(Holder)["make"] is raw_make and vars(Holder)["plain"] is raw_plain


def test_missing_bindings_are_absent_not_errors():
    rec = spans.Recorder()
    assert not rec.install("gone.fn", "hammersim.dram", "no_such_function")
    assert not rec.install("gone.module", "hammersim.no_such_module", "f")
    assert not rec.install("gone.class", "hammersim.dram:NoSuchClass", "f")
    assert rec.install("dram.check_flip", "hammersim.dram", "check_flip")
    rec.uninstall()
    assert rec.absent == ["gone.fn", "gone.module", "gone.class"]


def test_broken_counter_hook_does_not_fail_the_call():
    rec = spans.Recorder()

    def hook(r, result):
        r.add("n", result.missing_attribute)

    assert rec.wrap("f", lambda: 5, hook)() == 5
    assert rec.broken_counters == {"f"}


def test_reference_clock_counts_units_and_cleans_up():
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    with refclock.ReferenceClock() as ref:
        proc = ref._proc
        t0 = time.monotonic()
        time.sleep(0.3)
        t1 = time.monotonic()
    assert proc.poll() == 0
    assert ref.units(t0, t1) > 0
    assert ref.units(t1 + 10, t1 + 20) == 0
    if before is not None:
        assert os.sched_getaffinity(0) == before


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- generators --------------------------------------------------------------

TOTAL_PARAMS = 100 * 96 + 96 + 96 * 3 + 3


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_replay_pool_meets_calibration(seed):
    pool = inputs.replay_pool(seed, 100, 96, 3)
    stats = inputs.check_pool(pool, TOTAL_PARAMS)
    assert len(pool) == inputs.POOL_SIZE
    assert abs(stats["union"] - inputs.TARGET_UNION) < 0.05 * inputs.TARGET_UNION
    assert abs(stats["overlap"] - inputs.TARGET_OVERLAP) < 0.03


def test_replay_pool_is_a_function_of_the_seed():
    a = inputs.replay_pool(5, 100, 96, 3)
    b = inputs.replay_pool(5, 100, 96, 3)
    c = inputs.replay_pool(6, 100, 96, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_check_pool_rejects_uncalibrated_pools():
    rng = np.random.default_rng(0)
    uniform = [np.sort(rng.choice(TOTAL_PARAMS, 300, replace=False)) for _ in range(100)]
    with pytest.raises(inputs.InputError, match="overlap"):
        inputs.check_pool(uniform, TOTAL_PARAMS)
    pool = inputs.replay_pool(1, 100, 96, 3)
    with pytest.raises(inputs.InputError, match="distinct"):
        inputs.check_pool(pool[:50] + pool[:50], TOTAL_PARAMS)
    with pytest.raises(inputs.InputError, match="inside the model"):
        inputs.check_pool(pool[:-1] + [np.array([TOTAL_PARAMS])], TOTAL_PARAMS)


@pytest.fixture(scope="module")
def module():
    exp = config.load_config()
    mapping = exp.dram_mapping()
    return exp, mapping, exp.dram_config(), dram.VulnerabilityMap.from_seed(mapping, 3)


@pytest.mark.parametrize("seed", [0, 3])
def test_hammer_trace_passes_its_pacing_check(module, seed):
    exp, mapping, cfg, vmap = module
    inp = inputs.hammer_trace(seed, mapping, cfg, vmap.vulnerable)
    inputs.check_hammer(inp, mapping, cfg, exp.threshold_table(), 0)
    assert inp.decoyed_bank != inp.protected_bank
    assert vmap.vulnerable[inp.decoyed_bank * mapping.rows_per_bank + inp.decoyed_victim]
    events = inp.events()
    assert len(events) == inp.time_ns.size
    assert events[0] == (int(inp.time_ns[0]), int(inp.paddr[0]), "R", 64)


def test_hammer_check_rejects_trc_violation_and_lost_decoy_lead(module):
    exp, mapping, cfg, vmap = module
    inp = inputs.hammer_trace(0, mapping, cfg, vmap.vulnerable)
    squeezed = inputs.HammerInput(inp.time_ns // 4, inp.paddr, inp.decoyed_bank, inp.decoyed_victim,
                                  inp.protected_bank, inp.protected_victim, inp.rows)
    with pytest.raises(inputs.InputError, match="tRC"):
        inputs.check_hammer(squeezed, mapping, cfg, exp.threshold_table(), 0)
    # claim the pair's own rows as decoys: a "decoy" no longer leads the pair
    v = inp.decoyed_victim
    decoys = inp.rows["decoyed"][:inputs.DECOYS]
    rows = {**inp.rows, "decoyed": [v - 1, v + 1] + decoys[:2] + [v - 1, v + 1]}
    no_lead = inputs.HammerInput(inp.time_ns, inp.paddr, inp.decoyed_bank, v,
                                 inp.protected_bank, inp.protected_victim, rows)
    with pytest.raises(inputs.InputError, match="lead"):
        inputs.check_hammer(no_lead, mapping, cfg, exp.threshold_table(), 0)
