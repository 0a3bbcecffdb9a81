"""Unit tests for the trace metrics and the feasibility arithmetic."""
import math
from fractions import Fraction

import numpy as np
import pytest

from hammersim import metrics
from hammersim.dram import builtin_thresholds
from hammersim.metrics import (
    BandwidthModel,
    REFERENCE_MODELS,
    REFERENCE_RUR,
    SPARSITY_LEVELS,
    compute_cd,
    compute_rur,
    expected_activations,
    feasibility_rows,
    feasibility_verdict,
    h_max,
    index_array,
    to_kilo,
    topk_count,
    update_bytes,
)
from hammersim.seeding import generator

import oracles


# -- top-k count ------------------------------------------------------------

def test_topk_count_reference_models():
    assert topk_count("0.001", 8_700_000) == 8_700
    assert topk_count("0.0005", 8_700_000) == 4_350
    assert topk_count("0.001", 6_700_000) == 6_700
    assert topk_count("0.0005", 2_900_000) == 1_450


def test_topk_count_ceils():
    # 0.1% of 1001 parameters is 1.001 entries; the count must round up
    assert topk_count("0.001", 1001) == 2
    assert topk_count("0.001", 1000) == 1
    assert topk_count("1", 17) == 17
    assert topk_count(0.001, 1001) == 2  # float literal means the decimal


def test_topk_count_rejects_bad_input():
    with pytest.raises(ValueError):
        topk_count("0", 100)
    with pytest.raises(ValueError):
        topk_count("1.5", 100)
    with pytest.raises(ValueError):
        topk_count("0.5", 0)


# -- repeated-update ratio --------------------------------------------------

def test_rur_hand_case():
    sets = [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}]
    # two repeats after round 1, two after round 2, out of 4 + 4 slots
    assert compute_rur(sets) == 0.5


def test_rur_extremes():
    same = [{1, 5, 9}] * 4
    assert compute_rur(same) == 1.0
    disjoint = [{0, 1}, {2, 3}, {4, 5}]
    assert compute_rur(disjoint) == 0.0


def test_rur_matches_reference_on_random_traces():
    rng = generator(7, "rur-test")
    for _ in range(20):
        sets = [frozenset(rng.choice(500, size=30, replace=False).tolist())
                for _ in range(12)]
        assert compute_rur(sets) == pytest.approx(oracles.rur_reference(sets), abs=1e-12)


def test_rur_rejects_degenerate_traces():
    with pytest.raises(ValueError):
        compute_rur([{1, 2}])
    with pytest.raises(ValueError):
        compute_rur([{1, 2}, set()])
    for fn in (compute_rur, oracles.rur_reference):
        with pytest.raises(ValueError, match="round 1"):
            fn([[4], [], [4]])
        with pytest.raises(ValueError, match="round 0"):
            fn([np.array([], dtype=np.int64), np.array([1])])


def test_index_array_forms():
    want = np.array([2, 5, 9])
    for form in ([9, 2, 5, 2], {5, 9, 2}, frozenset({2, 5, 9}), np.array([5, 9, 2, 9]),
                 np.array([2, 5, 9], dtype=np.int32), range(2, 10, 7), (i for i in (9, 5, 2))):
        got = index_array(form)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [2, 9] if isinstance(form, range) else want)
    assert index_array([]).size == 0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint16])
def test_sorted_unique_matches_np_unique(dtype):
    rng = generator(5, "sorted-unique")
    cases = {
        "empty": [],
        "one": [7],
        "sorted": [1, 2, 2, 3, 9, 9, 9, 40],
        "reversed": [40, 9, 9, 3, 2, 2, 1],
        "all equal": [5] * 6,
        "2-D": [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]],
        "random": rng.integers(0, 50, 300),
    }
    for name, values in cases.items():
        a = np.array(values, dtype=dtype)
        want = np.unique(a)
        got = metrics.sorted_unique(a)
        assert got.dtype == want.dtype == dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
        if name != "2-D":
            s = np.sort(a)
            got = metrics.sorted_unique(s, presorted=True)
            assert got.dtype == dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
    # presorted takes a 2-D array whose flattened values are sorted
    got = metrics.sorted_unique(np.array([[1, 1, 2], [2, 3, 3]], dtype=dtype), presorted=True)
    np.testing.assert_array_equal(got, [1, 2, 3])


def test_rur_matches_frozenset_reference_exactly_on_every_input_form():
    rng = generator(71, "rur-forms")
    for _ in range(15):
        sorted_sets = [np.sort(rng.choice(300, size=int(rng.integers(1, 60)), replace=False))
                       for _ in range(8)]
        want = oracles.rur_reference(sorted_sets)
        forms = [
            sorted_sets,
            [set(a.tolist()) for a in sorted_sets],
            [rng.permutation(a).tolist() * 2 for a in sorted_sets],
            [np.concatenate([rng.permutation(a), a[:3]]) for a in sorted_sets],
        ]
        for sets in forms:
            assert compute_rur(sets) == want


# -- cluster diameter -------------------------------------------------------

def test_cd_hand_cases():
    # ten consecutive indices: the densest 9-subset spans 9 slots
    assert compute_cd(range(10, 20), 1000) == 9 / 1000
    assert compute_cd([42], 1000) == 1 / 1000
    # an outlier is dropped by the 90% coverage rule
    assert compute_cd([0, 1, 2, 3, 4, 5, 6, 7, 8, 900], 1000) == 9 / 1000


def test_cd_matches_exhaustive_reference():
    rng = generator(11, "cd-test")
    for k in (5, 8, 11, 12, 20):
        for _ in range(5):
            idx = rng.choice(400, size=k, replace=False).tolist()
            assert compute_cd(idx, 400) == pytest.approx(
                oracles.cd_reference(idx, 400), abs=1e-12)


def test_cd_coverage_count_is_exact_at_k20():
    # ceil(0.9 * 20) must be 18; naive float ceil gives 19
    idx = list(range(20))
    assert compute_cd(idx, 100) == 18 / 100


def test_cd_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_cd([], 100)
    with pytest.raises(ValueError):
        compute_cd([100], 100)


# -- bandwidth and update size ----------------------------------------------

def test_bandwidth_model_exact_bytes():
    bw = BandwidthModel(2400, 64)
    assert bw.bytes_per_second == 2400 * (1 << 20) * 8
    assert bw.window_bytes("0.064") == Fraction(2400 * (1 << 20) * 8) * Fraction(8, 125)
    # 1.2 GiB-scale window budget, exactly representable as a rational
    assert bw.window_bytes("0.064") == Fraction(6442450944, 5)


def test_bandwidth_model_validation():
    with pytest.raises(ValueError):
        BandwidthModel(0, 64)
    with pytest.raises(ValueError):
        BandwidthModel(2400, 60)


def test_update_size_values_only():
    assert update_bytes(8700, 4) == 8700 * 4 // 8
    assert update_bytes(3350, 8) == 3350
    assert update_bytes(3, 4) == 2  # 12 bits round up to whole bytes
    assert update_bytes(1, 32) == 4


def test_update_size_with_metadata():
    base = update_bytes(8700, 4)
    with_meta = update_bytes(8700, 4, metadata_bytes_per_entry=2)
    assert with_meta - base == 8700 * 2
    assert update_bytes(3, 4, metadata_bytes_per_entry=1) == 2 + 3


def test_update_size_rejects_unknown_precision():
    with pytest.raises(ValueError):
        update_bytes(10, 16)
    with pytest.raises(ValueError):
        update_bytes(10, 8, metadata_bytes_per_entry=-1)


# -- H_max and expected activations -----------------------------------------

def test_h_max_floor_division():
    bw = BandwidthModel(2400, 64)
    assert h_max(bw, update_bytes(topk_count("0.001", 8_700_000), 4)) == 296_204
    assert h_max(bw, Fraction(1, 2)) == int(bw.window_bytes("0.064") * 2)


def test_expected_activations_floor():
    assert expected_activations("0.695", 296_204) == 205_861
    assert expected_activations("0.5", 7) == 3
    assert expected_activations("1", 10) == 10
    with pytest.raises(ValueError):
        expected_activations("1.01", 10)


def test_feasibility_verdict_boundaries():
    assert feasibility_verdict(184_999, 185_000, 240_000) == "infeasible"
    assert feasibility_verdict(185_000, 185_000, 240_000) == "marginal"
    assert feasibility_verdict(239_999, 185_000, 240_000) == "marginal"
    assert feasibility_verdict(240_000, 185_000, 240_000) == "feasible"
    with pytest.raises(ValueError):
        feasibility_verdict(1, 10, 5)


def test_to_kilo_truncates():
    assert to_kilo(296_204) == 296
    assert to_kilo(999) == 0
    assert to_kilo(206_000) == 206


# -- assembled rows ---------------------------------------------------------

def test_feasibility_rows_chain_consistency():
    bw = BandwidthModel()
    table = builtin_thresholds()
    rows = feasibility_rows(bw, table)
    assert len(rows) == len(REFERENCE_MODELS) * len(SPARSITY_LEVELS)
    window = bw.window_bytes("0.064")
    for row in rows:
        assert row.k == topk_count(row.sparsity, row.total_params)
        assert row.update_bytes == update_bytes(row.k, row.precision_bits)
        assert row.update_bytes * 8 == row.k * row.precision_bits  # whole bytes for every preset
        assert row.hmax == int(window / row.update_bytes)
        rur = REFERENCE_RUR[(row.model, row.sparsity)]
        assert row.rur == rur
        assert row.e_act == int(Fraction(rur) * row.hmax)
        assert row.verdict == feasibility_verdict(row.e_act, table.min_single(), table.reference_mean())
        assert row.pattern_verdicts == {
            f"{e.victim_fill:02x}/{e.aggressor_fill:02x}": row.e_act >= e.single for e in table.entries}


def test_feasibility_rows_metadata_shrinks_budget():
    bw = BandwidthModel()
    plain = feasibility_rows(bw, builtin_thresholds())
    meta = feasibility_rows(bw, builtin_thresholds(), metadata_bytes_per_entry=4)
    for a, b in zip(plain, meta):
        assert b.hmax < a.hmax
