"""Federated learning core: model state, sparse updates, aggregation.

The server holds a flat parameter vector theta.  Each round, every client
runs local gradient descent on its (possibly perturbed) shard, keeps the
top-k entries of its delta by magnitude, and sends them up.  The server
accumulates contributions per index, averages, and writes the result back
into theta.  The round's record (the union of client index sets) is what
replay later turns into the server's buffer accesses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channel as channel_mod
from . import metrics
from .seeding import generator

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "make_mlp_spec",
    "ParameterStore",
    "SparseUpdate",
    "RoundRecord",
    "FederationState",
    "init_federation",
    "local_train",
    "sparsify_topk",
    "aggregate",
    "run_round",
    "RoundResult",
    "write_round_records",
    "read_round_records",
]

VALID_PRECISIONS = (4, 8, 32)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    element_count: int
    precision_bits: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be nonempty")
        if self.element_count <= 0:
            raise ValueError(f"layer {self.name}: element_count must be positive")
        if self.precision_bits not in VALID_PRECISIONS:
            raise ValueError(f"layer {self.name}: precision {self.precision_bits} not in {VALID_PRECISIONS}")


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer list; the flat parameter space concatenates them."""

    layers: tuple[LayerSpec, ...]
    tensor_count: int | None = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in {names}")

    @cached_property
    def total_params(self) -> int:
        return sum(l.element_count for l in self.layers)

    @cached_property
    def layer_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for l in self.layers:
            offsets.append(offsets[-1] + l.element_count)
        return tuple(offsets)

    @property
    def uniform_precision_bits(self) -> int:
        bits = {l.precision_bits for l in self.layers}
        if len(bits) != 1:
            raise ValueError(f"mixed layer precisions {sorted(bits)}")
        return bits.pop()


def make_mlp_spec(in_dim: int, hidden_dim: int, out_dim: int) -> ModelSpec:
    """Two-layer perceptron laid out as w1, b1, w2, b2 (row-major w's)."""
    if min(in_dim, hidden_dim, out_dim) <= 0:
        raise ValueError("all dimensions must be positive")
    return ModelSpec(
        layers=(
            LayerSpec("w1", in_dim * hidden_dim, 32),
            LayerSpec("b1", hidden_dim, 32),
            LayerSpec("w2", hidden_dim * out_dim, 32),
            LayerSpec("b2", out_dim, 32),
        ),
        tensor_count=4,
    )


class ParameterStore:
    """Flat float64 parameter vector bound to a ModelSpec."""

    def __init__(self, spec: ModelSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (spec.total_params,):
            raise ValueError(f"values shape {values.shape} != ({spec.total_params},)")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite parameter values")
        self.spec = spec
        self.values = values


@dataclass(frozen=True)
class SparseUpdate:
    """Top-k slice of one client's round delta. Indices sorted ascending."""

    round_number: int
    client_id: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be matching 1-D arrays")
        if idx.size == 0:
            raise ValueError("empty sparse update")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise ValueError("non-finite update values")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)


@dataclass(frozen=True)
class RoundRecord:
    """Union of the round's client index sets, sorted ascending."""

    round_number: int
    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or (idx.size > 1 and np.any(np.diff(idx) <= 0)):
            raise ValueError("record indices must be sorted and unique")
        object.__setattr__(self, "indices", idx)

    def mask(self, total_params: int) -> np.ndarray:
        m = np.zeros(total_params, dtype=np.float64)
        m[self.indices] = 1.0
        return m


@dataclass
class FederationState:
    """Server parameters plus the client stack.

    Client c's shard is (x[c], y[c]); k is the per-client top-k count.
    """

    spec: ModelSpec
    params: ParameterStore
    x: np.ndarray  # (n_clients, shard_size, in_dim)
    y: np.ndarray  # (n_clients, shard_size)
    k: int
    learning_rate: float
    seed: int
    round_number: int = 0
    hidden_dim: int = 0
    in_dim: int = 0
    out_dim: int = 0

    @property
    def n_clients(self) -> int:
        return self.x.shape[0]


def init_federation(
    model_spec: ModelSpec,
    n_clients: int,
    seed: int,
    *,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    shard_size: int = 32,
    sparsity: str = "0.01",
    learning_rate: float = 0.05,
) -> FederationState:
    """Server state plus per-client synthetic shards.

    Shard features are standard normal; labels come from a shared teacher
    projection so clients learn a common task.  Every client's shard uses
    its own named sub-seed, so shards are pairwise distinct by
    construction.
    """
    if n_clients <= 0:
        raise ValueError(f"n_clients must be positive, got {n_clients}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    expected = make_mlp_spec(in_dim, hidden_dim, out_dim)
    if tuple(l.element_count for l in model_spec.layers) != tuple(
        l.element_count for l in expected.layers
    ):
        raise ValueError("model_spec does not match the given mlp dimensions")

    init_rng = generator(seed, "model-init")
    scale = 1.0 / np.sqrt(in_dim)
    w1 = init_rng.normal(0.0, scale, size=in_dim * hidden_dim)
    b1 = np.zeros(hidden_dim)
    w2 = init_rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=hidden_dim * out_dim)
    b2 = np.zeros(out_dim)
    params = ParameterStore(model_spec, np.concatenate([w1, b1, w2, b2]))

    teacher_rng = generator(seed, "teacher")
    teacher = teacher_rng.normal(0.0, 1.0, size=(in_dim, out_dim))
    x = np.empty((n_clients, shard_size, in_dim))
    y = np.empty((n_clients, shard_size), dtype=np.int64)
    for c in range(n_clients):
        rng = generator(seed, "shard", c)
        x[c] = rng.normal(0.0, 1.0, size=(shard_size, in_dim))
        logits = x[c] @ teacher + rng.normal(0.0, 0.5, size=(shard_size, out_dim))
        y[c] = np.argmax(logits, axis=1)

    return FederationState(
        spec=model_spec,
        params=params,
        x=x,
        y=y,
        k=metrics.topk_count(sparsity, model_spec.total_params),
        learning_rate=float(learning_rate),
        seed=int(seed),
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        out_dim=out_dim,
    )


def _unpack(fed: FederationState, theta: np.ndarray):
    offsets = fed.spec.layer_offsets
    w1 = theta[offsets[0]: offsets[1]].reshape(fed.in_dim, fed.hidden_dim)
    b1 = theta[offsets[1]: offsets[2]]
    w2 = theta[offsets[2]: offsets[3]].reshape(fed.hidden_dim, fed.out_dim)
    b2 = theta[offsets[3]: offsets[4]]
    return w1, b1, w2, b2


def local_train(
    fed: FederationState,
    global_params: ParameterStore,
    input_batch: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """One full-batch gradient step for every client at once.

    input_batch is the client stack (x, y) of shapes (C, n, in_dim) and
    (C, n).  Returns the (C, M) dense deltas (-lr * grad), row c for
    client c.  Each client's arithmetic is the same as a pass over its
    own shard alone: the products are per-client matrix products and the
    sums run over that client's samples only.
    """
    x, y = input_batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 3 or x.shape[2] != fed.in_dim or y.shape != x.shape[:2]:
        raise ValueError(f"bad batch shapes {x.shape}, {y.shape}")
    w1, b1, w2, b2 = _unpack(fed, global_params.values)
    clients, n, _ = x.shape

    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    logits = h @ w2 + b2
    logits -= logits.max(axis=2, keepdims=True)
    exp = np.exp(logits)
    d_logits = exp / exp.sum(axis=2, keepdims=True)
    d_logits[np.arange(clients)[:, None], np.arange(n), y] -= 1.0
    d_logits /= n
    g_w2 = h.transpose(0, 2, 1) @ d_logits
    g_b2 = d_logits.sum(axis=1)
    d_h = (d_logits @ w2.T) * (pre > 0.0)
    g_w1 = x.transpose(0, 2, 1) @ d_h
    g_b1 = d_h.sum(axis=1)

    grad = np.concatenate(
        [g_w1.reshape(clients, -1), g_b1, g_w2.reshape(clients, -1), g_b2], axis=1
    )
    finite = np.isfinite(grad).all(axis=1)
    if not finite.all():
        raise ValueError(f"client {int(np.argmin(finite))}: non-finite gradient")
    return -fed.learning_rate * grad


def sparsify_topk(delta: np.ndarray, k: int, round_number: int) -> list[SparseUpdate]:
    """Keep the k largest-magnitude entries of every row of a (C, M) delta.

    Row c becomes client c's update.  Ties in magnitude resolve to the
    lower index, as in a stable descending sort; each update's indices
    are sorted ascending.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.size == 0:
        raise ValueError("delta must be a nonempty (clients, params) array")
    clients, m = delta.shape
    if not 0 < k <= m:
        raise ValueError(f"k = {k} out of range for {m} parameters")
    av = np.abs(delta)
    # partition instead of a full sort: the cut is each row's k-th largest
    # magnitude, and a row keeps more than k entries only when several tie
    # at the cut; its highest-indexed ties then go
    cut = np.partition(av, m - k, axis=1)[:, m - k: m - k + 1]
    keep = av >= cut
    surplus = np.count_nonzero(keep, axis=1) - k
    for c in np.flatnonzero(surplus):
        ties = np.flatnonzero(av[c] == cut[c])
        keep[c, ties[ties.size - surplus[c]:]] = False
    chosen = np.flatnonzero(keep).reshape(clients, k) % m
    values = np.take_along_axis(delta, chosen, axis=1)
    return [SparseUpdate(round_number, c, chosen[c], values[c]) for c in range(clients)]


def aggregate(store: ParameterStore, updates: list[SparseUpdate]) -> ParameterStore:
    """Mean-of-contributions aggregation; returns the new params.

    Updates are consumed in ascending client_id order regardless of input
    order.  Per touched index: accumulated sum / contribution count is
    added to theta.
    """
    if not updates:
        raise ValueError("aggregate needs at least one update")
    rounds = {u.round_number for u in updates}
    if len(rounds) != 1:
        raise ValueError(f"updates span rounds {sorted(rounds)}")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client_id in round updates")
    m = store.spec.total_params

    sums = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    for u in sorted(updates, key=lambda u: u.client_id):
        if u.indices[-1] >= m:
            raise ValueError(f"client {u.client_id}: index out of range")
        sums[u.indices] += u.values
        counts[u.indices] += 1

    touched = np.flatnonzero(counts)
    new_values = store.values.copy()
    new_values[touched] += sums[touched] / counts[touched]
    return ParameterStore(store.spec, new_values)


@dataclass
class RoundResult:
    record: RoundRecord
    updates: list[SparseUpdate] = field(repr=False, default_factory=list)


def run_round(
    fed: FederationState,
    perturbation: np.ndarray | None = None,
    channel_cfg: channel_mod.ChannelConfig | None = None,
) -> RoundResult:
    """One communication round; advances fed.round_number and theta.

    perturbation is an input-space delta added to every sample of a
    client's shard through the channel model: shape (in_dim,) for all
    clients alike, or (n_clients, in_dim) for one row per client.  All
    clients train in one batched pass.
    """
    t = fed.round_number
    x = fed.x
    if perturbation is not None or channel_cfg is not None:
        d = np.zeros(fed.in_dim) if perturbation is None else np.asarray(perturbation, dtype=np.float64)
        d = np.broadcast_to(d, (fed.n_clients, fed.in_dim))
        if channel_cfg is None:
            x = x + d[:, None, :]
        else:
            rngs = [generator(fed.seed, "channel", t, c) for c in range(fed.n_clients)]
            x = channel_mod.audio_channel(x, d, channel_cfg, rngs)
    dense = local_train(fed, fed.params, (x, fed.y))
    updates = sparsify_topk(dense, fed.k, t)

    fed.params = aggregate(fed.params, updates)
    fed.round_number = t + 1

    union = np.unique(np.concatenate([u.indices for u in updates]))
    record = RoundRecord(t, union)
    return RoundResult(record, updates)


def write_round_records(path, records: list[RoundRecord], header: dict[str, str] | None = None) -> None:
    """One record per line: round number then the sorted index list."""
    with open(path, "w", encoding="ascii") as f:
        for key, value in (header or {}).items():
            f.write(f"# {key}={value}\n")
        for r in records:
            f.write(str(r.round_number))
            f.write(" ")
            f.write(" ".join(str(int(i)) for i in r.indices))
            f.write("\n")


def read_round_records(path) -> tuple[list[RoundRecord], dict[str, str]]:
    records = []
    header: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key.strip()] = value.strip()
                continue
            parts = line.split()
            try:
                numbers = [int(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad record line") from exc
            if len(numbers) < 2:
                raise ValueError(f"{path}:{line_no}: record needs a round and at least one index")
            records.append(RoundRecord(numbers[0], np.array(sorted(set(numbers[1:])), dtype=np.int64)))
    return records, header
