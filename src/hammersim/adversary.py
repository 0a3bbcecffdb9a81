"""Black-box perturbation agent: reward shaping and PPO policy updates.

The agent observes the clean input summary and the previous round's
updated-index mask, carried as the observation's nonzero entries, emits
a low-dimensional latent action, and is rewarded for making consecutive
update index sets stable (low earth mover's distance), concentrated
inside a frozen target window, and physically inconspicuous (a
perceptibility penalty).

The policy is a two-hidden-layer tanh network with Gaussian action
heads (mean and log-std) and a scalar value head.  Updates use the
clipped surrogate objective with an entropy bonus and a clipped-ratio
advantage estimate smoothed by discounted temporal differences.  All
gradients are computed by hand in numpy and are finite-difference
checked in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channel import stft
from .metrics import index_array, sorted_unique
from .seeding import generator

__all__ = [
    "compute_emd",
    "target_focus",
    "TargetWindow",
    "select_target_window",
    "perceptibility_audio",
    "perceptibility_image",
    "RewardConfig",
    "RewardBreakdown",
    "compute_reward",
    "PolicyConfig",
    "AgentState",
    "init_policy",
    "sample_action",
    "gaussian_log_prob",
    "Trajectory",
    "compute_gae",
    "ppo_loss_and_grads",
    "ppo_update",
    "save_checkpoint",
]

LOG_2PI = float(np.log(2.0 * np.pi))


def compute_emd(u_prev: Iterable[int], u_curr: Iterable[int], total_params: int) -> float:
    """Earth mover's distance between two index sets on [0, 1).

    Each set is treated as a uniform distribution over its indices scaled
    by total_params; the distance is the integral of the absolute CDF
    difference.  For equal-size sets this equals the mean absolute
    difference of the sorted matched indices over total_params.
    """
    a = index_array(u_prev)
    b = index_array(u_curr)
    if a.size == 0 or b.size == 0:
        raise ValueError("EMD needs two nonempty index sets")
    if total_params <= 0 or a[-1] >= total_params or b[-1] >= total_params:
        raise ValueError("indices out of range for total_params")
    a = a / total_params
    b = b / total_params
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


@dataclass(frozen=True)
class TargetWindow:
    """Half-open index interval [start, end) inside the parameter space."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad window [{self.start}, {self.end})")


def target_focus(u_curr: Iterable[int], window: TargetWindow) -> float:
    """Fraction of the round's indices inside the window; 0 on empty set."""
    u = index_array(u_curr)
    if u.size == 0:
        return 0.0
    inside = np.searchsorted(u, window.end) - np.searchsorted(u, window.start)
    return int(inside) / u.size


def select_target_window(
    index_sets: list[Iterable[int]],
    total_params: int,
    window_len: int,
    warmup_rounds: int = 10,
) -> TargetWindow:
    """Densest window of given length over the warmup rounds' indices.

    Counts how often every index appears in the first warmup_rounds sets
    and returns the window with the maximal total count, ties resolved to
    the smallest start.  Callers freeze the result for the rest of the
    run.
    """
    if window_len <= 0 or window_len > total_params:
        raise ValueError(f"window_len {window_len} out of range for M={total_params}")
    if len(index_sets) < warmup_rounds:
        raise ValueError(f"need {warmup_rounds} warmup rounds, have {len(index_sets)}")
    warm = [index_array(u) for u in index_sets[:warmup_rounds]]
    warm = np.concatenate([np.empty(0, np.int64)] + warm)
    outside = warm[(warm < 0) | (warm >= total_params)]
    if outside.size:
        raise ValueError(f"index {outside[0]} out of range")
    counts = np.bincount(warm, minlength=total_params)
    # zero-prefixed cumsum: sums[s] covers counts[s .. s+window_len-1]
    cumulative = np.concatenate(([0], np.cumsum(counts)))
    sums = cumulative[window_len:] - cumulative[:-window_len]
    start = int(np.argmax(sums))
    return TargetWindow(start, start + window_len)


def perceptibility_audio(
    delta: np.ndarray,
    x_clean: np.ndarray,
    lambda1: float,
    lambda2: float,
    frame_len: int = 256,
    hop: int = 128,
    *,
    clean_spectrum: np.ndarray | None = None,
) -> float:
    """Spectral distortion plus RMS energy of an audio perturbation.

    clean_spectrum, if given, is stft(x_clean, frame_len, hop) computed
    once by a caller that scores many perturbations of one signal.
    """
    delta = np.asarray(delta, dtype=np.float64)
    x_clean = np.asarray(x_clean, dtype=np.float64)
    if delta.shape != x_clean.shape:
        raise ValueError("delta and x_clean shapes differ")
    spec_term = 0.0
    if lambda1 != 0.0:
        if clean_spectrum is None:
            clean_spectrum = stft(x_clean, frame_len, hop)
        diff = stft(x_clean + delta, frame_len, hop) - clean_spectrum
        spec_term = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    rms = float(np.sqrt(np.mean(delta**2)))
    return lambda1 * spec_term + lambda2 * rms


def perceptibility_image(delta: np.ndarray, lambda_image: float) -> float:
    """Squared-energy penalty for an image perturbation."""
    delta = np.asarray(delta, dtype=np.float64)
    return lambda_image * float(np.sum(delta**2))


@dataclass(frozen=True)
class RewardConfig:
    alpha: float = 1.0
    beta: float = 0.8
    gamma: float = 0.6
    lambda1: float = 0.5
    lambda2: float = 0.5
    lambda_image: float = 0.8
    stft_frame: int = 256
    stft_hop: int = 128


@dataclass(frozen=True)
class RewardBreakdown:
    stability: float
    focus: float
    stealth: float
    total: float


def compute_reward(
    u_prev: Iterable[int] | None,
    u_curr: Iterable[int],
    window: TargetWindow | None,
    delta: np.ndarray,
    x_clean: np.ndarray,
    cfg: RewardConfig,
    modality: str,
    total_params: int,
    *,
    clean_spectrum: np.ndarray | None = None,
) -> RewardBreakdown:
    """total = alpha * stability + beta * focus - gamma * stealth.

    stability is 1 - EMD of consecutive index sets (0 when there is no
    previous round), focus is the window hit fraction (0 without a frozen
    window yet), stealth is the modality's perceptibility measure.
    clean_spectrum is passed on to perceptibility_audio.
    """
    if modality not in ("audio", "image"):
        raise ValueError(f"unknown modality {modality!r}")
    stability = 0.0
    if u_prev is not None:
        stability = 1.0 - compute_emd(u_prev, u_curr, total_params)
    focus = 0.0 if window is None else target_focus(u_curr, window)
    if modality == "audio":
        stealth = perceptibility_audio(
            delta, x_clean, cfg.lambda1, cfg.lambda2, cfg.stft_frame, cfg.stft_hop,
            clean_spectrum=clean_spectrum,
        )
    else:
        stealth = perceptibility_image(delta, cfg.lambda_image)
    total = cfg.alpha * stability + cfg.beta * focus - cfg.gamma * stealth
    return RewardBreakdown(stability, focus, stealth, total)


# ---------------------------------------------------------------------------
# Policy network and PPO update
# ---------------------------------------------------------------------------

WEIGHT_KEYS = ("w1", "b1", "w2", "b2", "wm", "bm", "ws", "bs", "wv", "bv")
# the action log-std is clipped to this range, where its gradient is zero
# outside; a bounded std keeps sampled actions and their densities finite
LOG_STD_RANGE = (-10.0, 10.0)
# ppo_update's in-place Adam step runs over row blocks of about this many
# elements, so that a block's five arrays stay in cache across its 14 passes
ADAM_BLOCK = 16_384


@dataclass(frozen=True)
class PolicyConfig:
    obs_dim: int
    action_dim: int
    hidden1: int = 64
    hidden2: int = 64
    learning_rate: float = 3e-3
    clip_ratio: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 4
    minibatch_size: int = 25
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    log_std_init: float = -0.5
    max_grad_norm: float = 0.5  # <= 0 disables clipping

    def __post_init__(self) -> None:
        if self.obs_dim <= 0:
            raise ValueError(f"obs_dim must be positive, got {self.obs_dim}")
        if self.action_dim <= 0:  # set from the config key latent_dim
            raise ValueError(f"latent_dim (action_dim) must be positive, got {self.action_dim}")
        for key in ("hidden1", "hidden2", "epochs", "minibatch_size"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if not 0 < self.clip_ratio < 1:
            raise ValueError("clip_ratio must be in (0, 1)")
        if not 0 <= self.discount <= 1 or not 0 <= self.gae_lambda <= 1:
            raise ValueError("discount and gae_lambda must be in [0, 1]")


@dataclass
class AgentState:
    """The policy's weights and Adam state, which ppo_update steps in
    place.  Adam's w1 moments are held only for the ascending rows
    moment_rows: adam_m["w1"] and adam_v["w1"] have one row per entry of
    moment_rows, and every other row's moments are +0.0."""

    cfg: PolicyConfig
    weights: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_step: int = 0
    moment_rows: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


def init_policy(cfg: PolicyConfig, seed: int) -> AgentState:
    """Scaled-normal weight init; log-std bias starts at log_std_init."""
    rng = generator(seed, "policy-init")

    def dense(n_in: int, n_out: int, scale: float = 1.0) -> np.ndarray:
        return rng.normal(0.0, scale / np.sqrt(n_in), size=(n_in, n_out))

    weights = {
        "w1": dense(cfg.obs_dim, cfg.hidden1),
        "b1": np.zeros(cfg.hidden1),
        "w2": dense(cfg.hidden1, cfg.hidden2),
        "b2": np.zeros(cfg.hidden2),
        "wm": dense(cfg.hidden2, cfg.action_dim, scale=0.1),
        "bm": np.zeros(cfg.action_dim),
        "ws": np.zeros((cfg.hidden2, cfg.action_dim)),
        "bs": np.full(cfg.action_dim, cfg.log_std_init),
        "wv": dense(cfg.hidden2, 1, scale=0.1),
        "bv": np.zeros(1),
    }

    def zero_moments() -> dict[str, np.ndarray]:  # w1's for no row yet
        return {k: np.zeros((0, cfg.hidden1)) if k == "w1" else np.zeros_like(v) for k, v in weights.items()}

    return AgentState(cfg, weights, zero_moments(), zero_moments())


def _forward(weights: dict[str, np.ndarray], obs: np.ndarray):
    """Batched forward pass; weights["w1"] has one row per column of obs."""
    z1 = obs @ weights["w1"] + weights["b1"]
    h1 = np.tanh(z1)
    z2 = h1 @ weights["w2"] + weights["b2"]
    h2 = np.tanh(z2)
    mean = h2 @ weights["wm"] + weights["bm"]
    log_std = np.clip(h2 @ weights["ws"] + weights["bs"], *LOG_STD_RANGE)
    value = (h2 @ weights["wv"] + weights["bv"])[:, 0]
    return mean, log_std, value, (obs, h1, h2)


def gaussian_log_prob(action: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal Gaussian log density, batched over the first axis."""
    var = np.exp(2.0 * log_std)
    return -0.5 * np.sum((action - mean) ** 2 / var + 2.0 * log_std + LOG_2PI, axis=-1)


def sample_action(
    state: AgentState, obs: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, float, float]:
    """Draw an action; returns (action, log_prob, value).

    obs = (columns, values) holds the observation's nonzero entries, columns
    ascending; the first layer reads only those rows of w1.
    """
    columns, values = obs
    weights = dict(state.weights, w1=state.weights["w1"][columns])
    mean, log_std, value, _ = _forward(weights, values[None, :])
    mean, log_std = mean[0], log_std[0]
    action = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    logp = float(gaussian_log_prob(action[None, :], mean[None, :], log_std[None, :])[0])
    return action, logp, float(value[0])


@dataclass
class Trajectory:
    """One episode.  Step t's observation is row t of a CSR matrix: its
    nonzero entries are data[indptr[t]: indptr[t + 1]], at the ascending
    columns[indptr[t]: indptr[t + 1]]; every other entry is zero."""

    indptr: np.ndarray  # (T + 1,)
    columns: np.ndarray  # (nnz,)
    data: np.ndarray  # (nnz,)
    actions: np.ndarray  # (T, action_dim)
    log_probs: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    values: np.ndarray  # (T,)

    def __post_init__(self) -> None:
        t = self.actions.shape[0]
        if not (self.indptr.shape[0] - 1 == self.log_probs.shape[0] == self.rewards.shape[0] == self.values.shape[0] == t):
            raise ValueError("trajectory field lengths differ")
        if t == 0:
            raise ValueError("empty trajectory")
        if self.indptr[0] != 0 or not self.indptr[-1] == self.columns.shape[0] == self.data.shape[0]:
            raise ValueError("trajectory observation arrays disagree")

    @classmethod
    def from_observations(
        cls, observations: list[tuple[np.ndarray, np.ndarray]], actions: np.ndarray,
        log_probs: np.ndarray, rewards: np.ndarray, values: np.ndarray,
    ) -> "Trajectory":
        """The trajectory of one (columns, values) observation per step."""
        indptr = np.zeros(len(observations) + 1, dtype=np.int64)
        np.cumsum([columns.size for columns, _ in observations], out=indptr[1:])
        columns = np.concatenate([np.empty(0, np.int64)] + [columns for columns, _ in observations])
        data = np.concatenate([np.empty(0)] + [values for _, values in observations])
        return cls(indptr, columns, data, actions, log_probs, rewards, values)


def _dense_rows(trajectory: Trajectory, columns: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """The observations of steps rows as a dense (len(rows), width) matrix,
    entry j of the trajectory going to column columns[j]."""
    starts = trajectory.indptr[rows]
    counts = trajectory.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    entries = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
    out = np.zeros((rows.size, width))
    out[np.repeat(np.arange(rows.size), counts), columns[entries]] = trajectory.data[entries]
    return out


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, discount: float, gae_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advantages via discounted TD smoothing; episode bootstraps to zero."""
    t_len = rewards.shape[0]
    adv = np.zeros(t_len)
    running = 0.0
    for t in range(t_len - 1, -1, -1):
        next_value = values[t + 1] if t + 1 < t_len else 0.0
        delta = rewards[t] + discount * next_value - values[t]
        running = delta + discount * gae_lambda * running
        adv[t] = running
    return adv, adv + values


def ppo_loss_and_grads(
    weights: dict[str, np.ndarray],
    cfg: PolicyConfig,
    obs: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Clipped-surrogate PPO objective (to minimize), the approximate KL
    divergence mean(old_log_probs - log_probs), and the objective's analytic
    gradient with respect to every weight array (w1's rows match obs's
    columns, as in _forward)."""
    batch = obs.shape[0]
    mean, log_std, value, (obs_c, h1, h2) = _forward(weights, obs)
    var = np.exp(2.0 * log_std)
    diff = actions - mean
    logp = gaussian_log_prob(actions, mean, log_std)
    ratio = np.exp(logp - old_log_probs)
    surr1 = ratio * advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    surr2 = clipped * advantages
    surrogate = np.minimum(surr1, surr2)
    entropy = np.sum(log_std, axis=-1) + 0.5 * actions.shape[1] * (1.0 + LOG_2PI)
    value_err = value - returns
    loss = float(np.mean(-surrogate - cfg.entropy_coef * entropy + cfg.value_coef * value_err**2))
    approx_kl = float(np.mean(old_log_probs - logp))

    # d loss / d ratio through min(surr1, surr2); at ties the unclipped
    # branch is taken, matching np.minimum's first argument.
    take_first = surr1 <= surr2
    in_band = (ratio > 1.0 - cfg.clip_ratio) & (ratio < 1.0 + cfg.clip_ratio)
    d_surr_d_ratio = np.where(take_first, advantages, advantages * in_band)
    d_ratio = -d_surr_d_ratio / batch
    d_logp = d_ratio * ratio

    d_mean = d_logp[:, None] * (diff / var)
    d_log_std = d_logp[:, None] * (diff**2 / var - 1.0)
    d_log_std -= cfg.entropy_coef / batch  # entropy bonus, d entropy / d log_std = 1
    d_log_std *= (log_std > LOG_STD_RANGE[0]) & (log_std < LOG_STD_RANGE[1])
    d_value = 2.0 * cfg.value_coef * value_err / batch

    grads: dict[str, np.ndarray] = {}
    grads["wm"] = h2.T @ d_mean
    grads["bm"] = d_mean.sum(axis=0)
    grads["ws"] = h2.T @ d_log_std
    grads["bs"] = d_log_std.sum(axis=0)
    grads["wv"] = h2.T @ d_value[:, None]
    grads["bv"] = d_value.sum(axis=0, keepdims=True).reshape(1)
    d_h2 = d_mean @ weights["wm"].T + d_log_std @ weights["ws"].T + d_value[:, None] @ weights["wv"].T
    d_z2 = d_h2 * (1.0 - h2**2)
    grads["w2"] = h1.T @ d_z2
    grads["b2"] = d_z2.sum(axis=0)
    d_h1 = d_z2 @ weights["w2"].T
    d_z1 = d_h1 * (1.0 - h1**2)
    grads["w1"] = obs_c.T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    return loss, approx_kl, grads


def ppo_update(trajectory: Trajectory, state: AgentState, update_seed: int = 0) -> dict[str, float]:
    """One PPO iteration over a single-episode trajectory, stepping state
    in place.

    Runs cfg.epochs passes of shuffled minibatches with Adam, clipping
    each minibatch gradient to max_grad_norm.  With all advantages zero
    and entropy_coef zero the weights are unchanged.  Raises ValueError
    naming the first weight array that the update left non-finite; state
    is then part-stepped.  Returns the update's stats: the mean minibatch
    loss and approximate KL, the advantage spread and the mean return.
    """
    cfg = state.cfg
    adv, returns = compute_gae(trajectory.rewards, trajectory.values, cfg.discount, cfg.gae_lambda)
    std = adv.std()
    if std > 1e-8:
        adv = (adv - adv.mean()) / std
    rng = generator(update_seed, "ppo-minibatch")
    t_len = trajectory.actions.shape[0]
    mb = min(cfg.minibatch_size, t_len)

    # The first layer reads and steps only the live rows of w1: the
    # columns some observation sets and the held rows with nonzero
    # moments.  Any other row gets no gradient, and its Adam step would
    # keep m = v = +0.0 and subtract +0.0 from w, so it keeps every bit.
    # Moments are tested by their bits because a step may turn a -0.0
    # moment into +0.0.  The live set is formed exactly, never a superset:
    # its size is the inner dimension of the first layer's products, and
    # BLAS blocks that dimension.  Each minibatch's observations are
    # written straight from the trajectory's entries onto the live columns.
    held = state.adam_m["w1"].view(np.int64).any(axis=1) | state.adam_v["w1"].view(np.int64).any(axis=1)
    live = sorted_unique(np.concatenate((state.moment_rows[held], trajectory.columns)))
    columns = np.searchsorted(live, trajectory.columns)
    kept = np.searchsorted(live, state.moment_rows[held])

    def live_moments(held_moments: np.ndarray) -> np.ndarray:
        out = np.zeros((live.size, cfg.hidden1))
        out[kept] = held_moments[held]
        return out

    weights = dict(state.weights, w1=state.weights["w1"][live])
    adam_m = dict(state.adam_m, w1=live_moments(state.adam_m["w1"]))
    adam_v = dict(state.adam_v, w1=live_moments(state.adam_v["w1"]))
    scratch = {k: np.empty_like(v) for k, v in weights.items()}
    step = state.adam_step
    losses, kls = [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(t_len)
        for lo in range(0, t_len, mb):
            sel = perm[lo: lo + mb]
            loss, kl, grads = ppo_loss_and_grads(
                weights, cfg, _dense_rows(trajectory, columns, sel, live.size), trajectory.actions[sel],
                trajectory.log_probs[sel], adv[sel], returns[sel],
            )
            losses.append(loss)
            kls.append(kl)
            if cfg.max_grad_norm > 0:
                norm = np.sqrt(sum(
                    float(np.sum(np.multiply(g, g, out=scratch[k]))) for k, g in grads.items()
                ))
                if norm > cfg.max_grad_norm:
                    for g in grads.values():
                        g *= cfg.max_grad_norm / norm
            step += 1
            m_bias = 1.0 - 0.9**step
            v_bias = 1.0 - 0.999**step
            for key in WEIGHT_KEYS:
                # w -= (lr * m_hat) / (sqrt(v_hat) + 1e-8), in place on the
                # arrays above with the same operations in the same order,
                # one row block at a time; the gradient's own array is
                # spent as the second buffer
                arrays = grads[key], weights[key], adam_m[key], adam_v[key], scratch[key]
                rows = max(1, ADAM_BLOCK // int(np.prod(arrays[0].shape[1:])))
                for lo in range(0, arrays[0].shape[0], rows):
                    g, w, m, v, tmp = (a[lo: lo + rows] for a in arrays)
                    m *= 0.9
                    m += np.multiply(g, 0.1, out=tmp)
                    v *= 0.999
                    g *= g
                    g *= 0.001
                    v += g
                    np.divide(m, m_bias, out=tmp)
                    tmp *= cfg.learning_rate
                    np.divide(v, v_bias, out=g)
                    np.sqrt(g, out=g)
                    g += 1e-8
                    tmp /= g
                    w -= tmp
    for key in WEIGHT_KEYS:
        if not np.isfinite(weights[key]).all():
            raise ValueError(f"PPO update left non-finite values in {key}")
    state.weights["w1"][live] = weights["w1"]
    state.adam_m["w1"], state.adam_v["w1"] = adam_m["w1"], adam_v["w1"]
    state.adam_step, state.moment_rows = step, live
    return {
        "loss": float(np.mean(losses)),
        "kl": float(np.mean(kls)),
        "adv_std": float(std),
        "return_mean": float(returns.mean()),
    }


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"HSCK"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, state: AgentState, config_hash: bytes) -> None:
    """Binary blob: magic (4 bytes), version (4, little-endian), config hash
    (32), weight count (8, little-endian), then the weights as little-endian
    float32 in WEIGHT_KEYS order, each array flattened row-major."""
    if len(config_hash) != 32:
        raise ValueError("config_hash must be 32 bytes")
    flat = np.concatenate([state.weights[k].ravel() for k in WEIGHT_KEYS]).astype("<f4")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
        f.write(config_hash)
        f.write(len(flat).to_bytes(8, "little"))
        f.write(flat.tobytes())
