"""Unit tests for the federated round loop and sparse aggregation."""
import numpy as np
import pytest

from hammersim import federation
from hammersim.channel import ChannelConfig, audio_channel
from hammersim.federation import (
    RoundRecord,
    aggregate,
    init_federation,
    local_train,
    make_mlp_spec,
    read_round_records,
    run_round,
    sparsify_topk,
    write_round_records,
)
from hammersim.memlayout import DramMapping, build_layout
from hammersim.metrics import topk_count
from hammersim.replay import _entry_runs
from hammersim.seeding import generator

from oracles import (
    reference_aggregate,
    emulate_audio_channel,
    layer_of,
    local_train_client,
    model_loss,
    record_mask,
    reference_round,
    sparsify_client,
)


def small_fed(seed=1, n_clients=3, in_dim=20, hidden=8, out=3, sparsity="0.05"):
    return init_federation(n_clients, seed, in_dim=in_dim, hidden_dim=hidden,
                           out_dim=out, shard_size=8, sparsity=sparsity)


# -- model spec -------------------------------------------------------------

def test_mlp_spec_layout():
    spec = make_mlp_spec(20, 8, 3)
    assert spec.total_params == 20 * 8 + 8 + 8 * 3 + 3
    assert spec.layer_offsets == (0, 160, 168, 192, 195)
    assert layer_of(spec, 0) == 0
    assert layer_of(spec, 159) == 0
    assert layer_of(spec, 160) == 1
    assert layer_of(spec, 194) == 3


# -- initialization ---------------------------------------------------------

def test_init_is_deterministic_per_seed():
    a = small_fed(seed=5)
    b = small_fed(seed=5)
    c = small_fed(seed=6)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_shards_are_distinct_across_clients():
    fed = small_fed()
    assert fed.x.shape == (3, 8, 20) and fed.y.shape == (3, 8)
    assert not np.array_equal(fed.x[0], fed.x[1])


def test_topk_count_is_fixed_at_init():
    fed = small_fed(sparsity="0.05")
    assert fed.k == topk_count("0.05", fed.spec.total_params) == 10
    assert fed.spec == make_mlp_spec(20, 8, 3)
    assert fed.theta.shape == (fed.spec.total_params,)


# -- local training ---------------------------------------------------------

def test_local_train_matches_finite_difference_gradient():
    fed = small_fed(seed=9)
    x, y = fed.x[0], fed.y[0]
    delta = local_train(fed, fed.x, fed.y)[0]
    grad = -delta / fed.learning_rate
    theta = fed.theta
    rng = generator(9, "fd-pick")
    eps = 1e-6
    for i in rng.choice(theta.size, size=15, replace=False):
        up = theta.copy()
        dn = theta.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (model_loss(fed, up, x, y) - model_loss(fed, dn, x, y)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_local_train_descends():
    fed = small_fed(seed=2)
    x, y = fed.x[1], fed.y[1]
    before = model_loss(fed, fed.theta, x, y)
    delta = local_train(fed, fed.x, fed.y)[1]
    after = model_loss(fed, fed.theta + delta, x, y)
    assert after < before


# -- top-k sparsification ---------------------------------------------------

def stable_topk(delta, k):
    # descending magnitude, ties to lower index, then sorted ascending
    order = np.argsort(-np.abs(delta), kind="stable")
    return np.sort(order[:k])


def test_sparsify_matches_stable_sort():
    rng = generator(4, "topk")
    d = rng.standard_normal((20, 200))
    indices, values = sparsify_topk(d, 10)
    assert indices.shape == values.shape == (20, 10)
    for c in range(20):
        np.testing.assert_array_equal(indices[c], stable_topk(d[c], 10))
        np.testing.assert_array_equal(values[c], d[c, indices[c]])


def test_sparsify_tie_handling():
    # heavy ties at the cut magnitude must resolve to the lowest indices
    d = np.array([1.0, -2.0, 2.0, 2.0, -2.0, 0.5, 2.0, 3.0])
    (indices,), _ = sparsify_topk(d[None, :], 4)
    np.testing.assert_array_equal(indices, stable_topk(d, 4))
    np.testing.assert_array_equal(indices, [1, 2, 3, 7])


def test_sparsify_full_density():
    d = np.arange(1.0, 16.0).reshape(3, 5)
    indices, values = sparsify_topk(d, 5)
    np.testing.assert_array_equal(indices, np.tile(np.arange(5), (3, 1)))
    np.testing.assert_array_equal(values, d)


def test_sparsify_ties_straddle_cut_in_one_client_only():
    # row 0: four entries tie at the cut and two of them fit; row 1: the
    # same magnitudes with the tie broken, so no row-wide tie rule applies
    d = np.array([
        [0.5, -2.0, 3.0, 2.0, 0.1, -2.0, 2.0, 0.0, 4.0, 1.0],
        [0.5, -2.0, 3.0, 2.5, 0.1, -2.2, 1.5, 0.0, 4.0, 1.0],
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
    ])
    indices, values = sparsify_topk(d, 4)
    np.testing.assert_array_equal(indices, [[1, 2, 3, 8], [2, 3, 5, 8], [0, 1, 2, 3]])
    for c in range(3):
        want_idx, want_val = sparsify_client(d[c], 4)
        np.testing.assert_array_equal(indices[c], want_idx)
        np.testing.assert_array_equal(values[c], want_val)


def test_sparsify_matches_per_client_reference_on_quantised_deltas():
    # coarse values make ties at the cut common, in some rows and not others
    rng = generator(21, "topk-ties")
    for k in (1, 7, 30, 59, 60):
        d = rng.integers(-6, 7, size=(6, 60)) / 4.0
        indices, values = sparsify_topk(d, k)
        for c in range(6):
            want_idx, want_val = sparsify_client(d[c], k)
            np.testing.assert_array_equal(indices[c], want_idx)
            np.testing.assert_array_equal(values[c], want_val)


def test_sparsify_rejects_bad_input():
    with pytest.raises(ValueError):
        sparsify_topk(np.ones(5), 2)  # one client still needs a (1, M) stack
    with pytest.raises(ValueError, match="out of range"):
        sparsify_topk(np.ones((2, 5)), 0)
    with pytest.raises(ValueError, match="out of range"):
        sparsify_topk(np.ones((2, 5)), 6)


def test_local_train_matches_per_client_reference_exactly():
    fed = small_fed(seed=10, n_clients=4)
    dense = local_train(fed, fed.x, fed.y)
    assert dense.shape == (4, fed.spec.total_params)
    for c in range(4):
        want = local_train_client(fed, fed.theta, fed.x[c], fed.y[c])
        np.testing.assert_array_equal(dense[c], want)


def test_local_train_rejects_bad_batches():
    fed = small_fed()
    with pytest.raises(ValueError):
        local_train(fed, fed.x[0], fed.y[0])  # 2-D shard, not a stack
    with pytest.raises(ValueError):
        local_train(fed, fed.x, fed.y[:, :-1])
    x = fed.x.copy()
    x[1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="client 1"):
        local_train(fed, x, fed.y)
    # every gradient is finite, but a huge step size overflows some of them
    fed.learning_rate = np.finfo(np.float64).max
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="client 0: non-finite"):
        local_train(fed, 1e3 * fed.x, fed.y)


# -- run splitting of record indices (replay script) ------------------------

def record_runs(spec, indices):
    """(layer, offset within layer, count) of the runs replay makes of one record."""
    mapping = DramMapping(bank_count=4, rows_per_bank=256, row_size_bytes=8192)
    layout = build_layout(spec, None, mapping, seed=1)
    _, layer, offset, count = _entry_runs(layout, [RoundRecord(0, np.array(indices))])
    return list(zip(layer.tolist(), offset.tolist(), count.tolist()))


def test_runs_grouping():
    spec = make_mlp_spec(20, 8, 3)  # first layer holds indices 0..159
    assert [(o, c) for _, o, c in record_runs(spec, [4])] == [(4, 1)]
    runs = record_runs(spec, [1, 2, 3, 7, 9, 10])
    assert [(o, c) for _, o, c in runs] == [(1, 3), (7, 1), (9, 2)]


def test_per_layer_runs_split_at_borders():
    spec = make_mlp_spec(20, 8, 3)  # borders at 160, 168, 192
    runs = record_runs(spec, [158, 159, 160, 161])
    assert runs == [(0, 158, 2), (1, 0, 2)]
    runs2 = record_runs(spec, np.arange(166, 170))
    assert runs2 == [(1, 6, 2), (2, 0, 2)]


# -- aggregation ------------------------------------------------------------

def test_aggregate_mean_of_contributions():
    fed = small_fed()
    m = fed.spec.total_params
    eye = np.eye(m)
    indices, values = sparsify_topk(np.stack([eye[3] * 4.0 + eye[10] * 2.0, eye[3] * 2.0 + eye[50] * 6.0]), 3)
    before = fed.theta.copy()
    after = aggregate(fed.theta, indices, values)
    np.testing.assert_array_equal(fed.theta, before)  # a new vector; theta is left alone
    diff = after - before
    assert diff[3] == pytest.approx(3.0)  # both touched index 3: mean of 4 and 2
    assert diff[10] == pytest.approx(2.0)
    assert diff[50] == pytest.approx(6.0)
    assert np.count_nonzero(diff) == 3


def test_aggregate_matches_client_list_reference():
    fed = small_fed()
    rng = generator(12, "agg-order")
    # quantised deltas: many clients share an index, so the sums run long
    indices, values = sparsify_topk(rng.integers(-9, 10, size=(7, fed.spec.total_params)) / 7.0, 40)
    got = aggregate(fed.theta, indices, values)
    want = reference_aggregate(fed.theta, list(zip(indices, values)))
    np.testing.assert_array_equal(got, want)


def test_aggregate_rejects_non_finite_parameters():
    fed = small_fed()
    big = np.finfo(np.float64).max
    indices = np.array([[0, 5], [5, 9]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        aggregate(fed.theta, indices, np.array([[1.0, big], [big, 1.0]]))  # the sum at 5 overflows
    theta = fed.theta.copy()
    theta[9] = big
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        aggregate(theta, indices, np.array([[1.0, 1.0], [1.0, big]]))


def test_run_round_raises_in_the_round_that_overflows():
    # identical clients send identical updates, each finite, whose sum is not
    fed = small_fed(seed=6, n_clients=2)
    fed.x[0] *= 1e3
    fed.x[1], fed.y[1] = fed.x[0], fed.y[0]
    grad = np.abs(local_train(fed, fed.x, fed.y)[0]).max() / fed.learning_rate
    assert grad > 1.0
    fed.learning_rate = 0.75 * (np.finfo(np.float64).max / grad)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite parameter"):
        run_round(fed, fed.x)
    assert fed.round_number == 0


# -- full rounds ------------------------------------------------------------

def round_input(fed, delta=None, cfg=None):
    """The client stack of fed's next round: fed.x, plus delta, through the channel cfg.

    delta is one (in_dim,) row for every client or one row per client.
    The channel noise is drawn afresh from generator(seed, "channel", t, c).
    """
    if cfg is None:
        return fed.x if delta is None else fed.x + np.asarray(delta)[..., None, :]
    d = np.broadcast_to(np.zeros(fed.in_dim) if delta is None else delta, (fed.n_clients, fed.in_dim))
    noise = None
    if cfg.noise_std > 0:
        noise = np.stack([
            generator(fed.seed, "channel", fed.round_number, c).normal(0.0, cfg.noise_std, size=fed.x.shape[1:])
            for c in range(fed.n_clients)
        ])
    return audio_channel(fed.x, d, cfg, noise)


def round_with_updates(monkeypatch, fed, delta=None, cfg=None):
    """run_round's record on round_input, plus the (indices, values) its sparsify stage made."""
    seen = []

    def spy(delta, k):
        seen.append(sparsify_topk(delta, k))
        return seen[-1]

    x = round_input(fed, delta, cfg)
    with monkeypatch.context() as m:
        m.setattr(federation, "sparsify_topk", spy)
        record = run_round(fed, x)
    (updates,) = seen
    return record, *updates


def test_run_round_advances_state():
    fed = small_fed()
    theta0 = fed.theta.copy()
    indices, values = sparsify_topk(local_train(fed, fed.x, fed.y), fed.k)
    record = run_round(fed, fed.x)
    assert fed.round_number == 1
    assert record.round_number == 0
    np.testing.assert_array_equal(fed.theta, aggregate(theta0, indices, values))
    assert set(record.indices.tolist()) == set(indices.ravel().tolist())


def test_run_round_perturbation_changes_updates():
    base = small_fed(seed=3)
    pert = small_fed(seed=3)
    r0 = run_round(base, base.x)
    delta = np.full(pert.in_dim, 2.0)
    r1 = run_round(pert, round_input(pert, delta))
    assert set(r0.indices.tolist()) != set(r1.indices.tolist())


def test_run_round_per_client_perturbation_rows():
    # one row per client equals the shared delta when the rows agree, and
    # a zero row leaves that client's shard as it is
    shared, rows, mixed = small_fed(seed=4), small_fed(seed=4), small_fed(seed=4)
    delta = np.linspace(-1.0, 1.0, shared.in_dim)
    want_shared = reference_round(shared, delta)
    a = run_round(shared, round_input(shared, delta))
    b = run_round(rows, round_input(rows, np.tile(delta, (rows.n_clients, 1))))
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(shared.theta, rows.theta)
    per_client = np.zeros((mixed.n_clients, mixed.in_dim))
    per_client[1] = delta
    want_clean = reference_round(mixed)
    theta = mixed.theta.copy()
    run_round(mixed, round_input(mixed, per_client))
    want = [want_clean[0], want_shared[1], want_clean[2]]
    np.testing.assert_array_equal(mixed.theta, reference_aggregate(theta, want))


def test_run_round_channel_matches_per_row_path(monkeypatch):
    """The batched channel on a round's stack equals row-by-row emulation."""
    cfg = ChannelConfig(noise_std=0.08, source_rate_hz=16_000, target_rate_hz=16_000)
    fed = small_fed(seed=7)
    mirror = small_fed(seed=7)
    delta = 0.1 * np.ones(fed.in_dim)
    record, indices, values = round_with_updates(monkeypatch, fed, delta, cfg)

    t = 0
    for c in range(mirror.n_clients):
        x, y = mirror.x[c], mirror.y[c]
        rng = generator(mirror.seed, "channel", t, c)
        x_in = np.stack([emulate_audio_channel(row, delta, cfg, rng) for row in x])
        dense = local_train_client(mirror, mirror.theta, x_in, y)
        want_indices, want_values = sparsify_client(dense, mirror.k)
        np.testing.assert_array_equal(indices[c], want_indices)
        np.testing.assert_allclose(values[c], want_values, atol=1e-12)
    np.testing.assert_array_equal(record.indices, np.unique(indices))


ROUND_CASES = {
    "clean": (None, None, "0.05"),
    "perturbed": (0.3, None, "0.05"),
    "noise": (0.1, ChannelConfig(noise_std=0.08), "0.05"),
    "noise, length-keeping resample": (
        0.1, ChannelConfig(noise_std=0.05, source_rate_hz=16_000, target_rate_hz=16_100), "0.05"),
    "k = M": (0.2, ChannelConfig(noise_std=0.05), "1"),
}


@pytest.mark.parametrize("case", list(ROUND_CASES))
def test_run_round_matches_per_client_reference_exactly(case, monkeypatch):
    scale, cfg, sparsity = ROUND_CASES[case]
    fed = small_fed(seed=11, sparsity=sparsity)
    delta = None if scale is None else scale * np.sin(np.arange(fed.in_dim))
    for t in range(3):
        want = reference_round(fed, delta, cfg)
        theta = fed.theta.copy()
        record, indices, values = round_with_updates(monkeypatch, fed, delta, cfg)
        for c, (want_indices, want_values) in enumerate(want):
            np.testing.assert_array_equal(indices[c], want_indices)
            np.testing.assert_array_equal(values[c], want_values)
        assert record.round_number == t and fed.round_number == t + 1
        np.testing.assert_array_equal(
            record.indices, np.unique(np.concatenate([i for i, _ in want])))
        np.testing.assert_array_equal(fed.theta, reference_aggregate(theta, want))
        assert not np.array_equal(fed.theta, theta)


def test_run_round_is_deterministic():
    a = small_fed(seed=8)
    b = small_fed(seed=8)
    cfg = ChannelConfig(noise_std=0.05)
    for _ in range(3):
        ra = run_round(a, round_input(a, cfg=cfg))
        rb = run_round(b, round_input(b, cfg=cfg))
        np.testing.assert_array_equal(ra.indices, rb.indices)
    np.testing.assert_array_equal(a.theta, b.theta)


# -- record files -----------------------------------------------------------

def test_round_records_roundtrip(tmp_path):
    path = tmp_path / "records.txt"
    records = [RoundRecord(0, np.array([3, 5, 9])), RoundRecord(1, np.array([2, 5]))]
    write_round_records(path, records, header={"config_hash": "abc123"})
    back, header = read_round_records(path)
    assert header == {"config_hash": "abc123"}
    assert len(back) == 2
    for orig, rt in zip(records, back):
        assert rt.round_number == orig.round_number
        np.testing.assert_array_equal(rt.indices, orig.indices)


def test_round_records_read_sorts_and_dedups(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("0 9 3 3 5\n")
    (rec,), _ = read_round_records(path)
    np.testing.assert_array_equal(rec.indices, [3, 5, 9])


def test_round_records_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 x 3\n")
    with pytest.raises(ValueError):
        read_round_records(path)
    # a sign on its own, and numbers int64 cannot hold, are not numbers
    for line in ("0 - 3", "0 99999999999999999999", "-99999999999999999999 3"):
        path.write_text(f"# total_params=283\n{line}\n")
        with pytest.raises(ValueError, match=f"{path}:2: bad record line"):
            read_round_records(path)
    # a round without indices, or with one outside the model, is replay's
    # check (tests/test_replay.py::test_read_records_are_checked_by_replay)


def test_record_mask():
    rec = RoundRecord(0, np.array([1, 4]))
    np.testing.assert_array_equal(record_mask(rec, 6), [0, 1, 0, 0, 1, 0])
