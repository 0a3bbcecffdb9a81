"""Federated learning core: model state, sparse updates, aggregation.

The server holds a flat parameter vector theta.  Each round, every client
runs local gradient descent on its (possibly perturbed) shard, keeps the
top-k entries of its delta by magnitude, and sends them up as one row of
a (clients, k) pair of index and value arrays.  The server accumulates
contributions per index, averages, and writes the result back into theta.
The round's record (the union of client index sets) is what replay later
turns into the server's buffer accesses.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics
from .seeding import generator

__all__ = [
    "PARAM_BITS",
    "LayerSpec",
    "ModelSpec",
    "make_mlp_spec",
    "RoundRecord",
    "FederationState",
    "init_federation",
    "local_train",
    "sparsify_topk",
    "aggregate",
    "run_round",
    "write_round_records",
    "read_round_records",
]

PARAM_BITS = 32  # every model parameter is a 32-bit float


@dataclass(frozen=True)
class LayerSpec:
    name: str
    element_count: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be nonempty")
        if self.element_count <= 0:
            raise ValueError(f"layer {self.name}: element_count must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer list; the flat parameter space concatenates them."""

    layers: tuple[LayerSpec, ...]

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


def make_mlp_spec(in_dim: int, hidden_dim: int, out_dim: int) -> ModelSpec:
    """Two-layer perceptron laid out as w1, b1, w2, b2 (row-major w's)."""
    return ModelSpec(
        layers=(
            LayerSpec("w1", in_dim * hidden_dim),
            LayerSpec("b1", hidden_dim),
            LayerSpec("w2", hidden_dim * out_dim),
            LayerSpec("b2", out_dim),
        ),
    )


@dataclass(frozen=True)
class RoundRecord:
    """Union of the round's client index sets, a sorted int64 array without
    repeats; replay checks each distinct array once, construction nothing."""

    round_number: int
    indices: np.ndarray


@dataclass
class FederationState:
    """Server parameters plus the client stack.

    theta is the flat parameter vector; client c's shard is (x[c], y[c]);
    k is the per-client top-k count.
    """

    spec: ModelSpec
    theta: np.ndarray
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
    spec = make_mlp_spec(in_dim, hidden_dim, out_dim)

    init_rng = generator(seed, "model-init")
    scale = 1.0 / np.sqrt(in_dim)
    w1 = init_rng.normal(0.0, scale, size=in_dim * hidden_dim)
    b1 = np.zeros(hidden_dim)
    w2 = init_rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=hidden_dim * out_dim)
    b2 = np.zeros(out_dim)
    theta = np.concatenate([w1, b1, w2, b2])

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
        spec=spec,
        theta=theta,
        x=x,
        y=y,
        k=metrics.topk_count(sparsity, spec.total_params),
        learning_rate=float(learning_rate),
        seed=int(seed),
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        out_dim=out_dim,
    )


def _unpack(fed: FederationState, theta: np.ndarray):
    """Views of the layers in theta's last axis: (w1, b1, w2, b2) of one
    parameter vector, or of every row of a (C, M) stack."""
    offsets, lead = fed.spec.layer_offsets, theta.shape[:-1]
    w1 = theta[..., offsets[0]: offsets[1]].reshape(*lead, fed.in_dim, fed.hidden_dim)
    b1 = theta[..., offsets[1]: offsets[2]]
    w2 = theta[..., offsets[2]: offsets[3]].reshape(*lead, fed.hidden_dim, fed.out_dim)
    b2 = theta[..., offsets[3]: offsets[4]]
    return w1, b1, w2, b2


def local_train(fed: FederationState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One full-batch gradient step from fed.theta for every client at once.

    x and y are the client stack, of shapes (C, n, in_dim) and (C, n).
    Returns the (C, M) dense deltas (-lr * grad), row c for client c.
    Each client's arithmetic is the same as a pass over its own shard
    alone: the products are per-client matrix products and the sums run
    over that client's samples only.
    """
    if x.ndim != 3 or x.shape[2] != fed.in_dim or y.shape != x.shape[:2]:
        raise ValueError(f"bad batch shapes {x.shape}, {y.shape}")
    w1, b1, w2, b2 = _unpack(fed, fed.theta)
    clients, n, _ = x.shape
    # the gradient blocks are written straight into their columns of delta
    delta = np.empty((clients, fed.spec.total_params))
    g_w1, g_b1, g_w2, g_b2 = _unpack(fed, delta)

    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    logits = h @ w2 + b2
    logits -= logits.max(axis=2, keepdims=True)
    exp = np.exp(logits)
    d_logits = exp / exp.sum(axis=2, keepdims=True)
    d_logits.reshape(-1)[np.arange(y.size) * fed.out_dim + y.reshape(-1)] -= 1.0
    d_logits /= n
    np.matmul(h.transpose(0, 2, 1), d_logits, out=g_w2)
    d_logits.sum(axis=1, out=g_b2)
    d_h = (d_logits @ w2.T) * (pre > 0.0)
    np.matmul(x.transpose(0, 2, 1), d_h, out=g_w1)
    d_h.sum(axis=1, out=g_b1)
    delta *= -fed.learning_rate
    # catches a non-finite gradient and a learning rate that overflows it
    finite = np.isfinite(delta).all(axis=1)
    if not finite.all():
        raise ValueError(f"client {int(np.argmin(finite))}: non-finite update")
    return delta


def sparsify_topk(delta: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the k largest-magnitude entries of every row of a (C, M) delta.

    Returns (indices, values), both (C, k): row c is client c's update,
    its indices ascending.  Ties in magnitude resolve to the lower index,
    as in a stable descending sort.
    """
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
    flat = np.flatnonzero(keep)
    # every row keeps at least k entries, so C * k in all means k in each
    if flat.size != clients * k:
        surplus = np.count_nonzero(keep, axis=1) - k
        for c in np.flatnonzero(surplus):
            ties = np.flatnonzero(av[c] == cut[c])
            keep[c, ties[ties.size - surplus[c]:]] = False
        flat = np.flatnonzero(keep)
    flat = flat.reshape(clients, k)
    return flat - np.arange(0, clients * m, m)[:, None], delta.reshape(-1)[flat]


def aggregate(
    theta: np.ndarray, indices: np.ndarray, values: np.ndarray, union: np.ndarray | None = None
) -> np.ndarray:
    """Mean-of-contributions aggregation; returns the new parameter vector.

    indices and values are (C, k), row c client c's update with no index
    twice.  Per touched index, the sum of the contributions (added in
    client order) over their count is added to theta.  union is the
    touched indices, metrics.sorted_unique(indices), when the caller has
    them already.
    """
    if union is None:
        union = metrics.sorted_unique(indices)
    slots = np.searchsorted(union, indices).ravel()
    # bincount adds each slot's weights in input order: client order
    sums = np.bincount(slots, weights=values.ravel(), minlength=union.size)
    counts = np.bincount(slots, minlength=union.size)
    new_theta = theta.copy()
    new_theta[union] += sums / counts
    if not np.isfinite(new_theta[union]).all():
        raise ValueError("aggregation left non-finite parameter values")
    return new_theta


def run_round(fed: FederationState, x: np.ndarray, seconds: dict[str, float] | None = None) -> RoundRecord:
    """One communication round; advances fed.round_number and fed.theta.

    x is the (C, n, in_dim) client stack the round trains on: fed.x as
    the clients received it, perturbed or not.  All clients train in one
    batched pass.  Returns the round's record.  seconds, if given, gains
    the wall seconds of the round's stages under local_train_seconds,
    sparsify_seconds and aggregate_seconds (the index union included).
    """
    t = fed.round_number
    started = time.perf_counter()
    deltas = local_train(fed, x, fed.y)
    trained = time.perf_counter()
    indices, values = sparsify_topk(deltas, fed.k)
    sparsified = time.perf_counter()
    union = metrics.sorted_unique(indices)
    fed.theta = aggregate(fed.theta, indices, values, union)
    fed.round_number = t + 1
    if seconds is not None:
        stages = {"local_train_seconds": trained - started, "sparsify_seconds": sparsified - trained,
                  "aggregate_seconds": time.perf_counter() - sparsified}
        for key, value in stages.items():
            seconds[key] = seconds.get(key, 0.0) + value
    return RoundRecord(t, union)


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
    """Records and header of a records file; round numbers must be unique and >= 0.

    Indices come back sorted and deduplicated; replay checks them against the model."""
    records = []
    rounds: set[int] = set()
    header: dict[str, str] = {}
    limit = np.iinfo(np.int64).max
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key.strip()] = value.strip()
                continue
            try:
                numbers = np.fromstring(line, dtype=np.int64, sep=" ")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad record line") from exc
            # fromstring stops at a token it cannot read and saturates past int64
            if numbers.size != len(line.split()) or numbers.min() <= -limit or numbers.max() >= limit:
                raise ValueError(f"{path}:{line_no}: bad record line")
            round_number = int(numbers[0])
            if round_number < 0:
                raise ValueError(f"{path}:{line_no}: negative round {round_number}")
            if round_number in rounds:
                raise ValueError(f"{path}:{line_no}: repeated round {round_number}")
            rounds.add(round_number)
            records.append(RoundRecord(round_number, metrics.sorted_unique(numbers[1:])))
    return records, header
