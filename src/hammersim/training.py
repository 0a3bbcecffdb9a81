"""Desk-scale learned-attack loop.

An episode is one federated run: every round the agent emits a latent
action, the channel turns it into an input perturbation shared by all
clients, and the reward scores the resulting sparse-update trace for
stability, focus on a frozen target window, and stealth.  Training runs
PPO once per episode; a random-action baseline uses the same environment
for comparison.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import adversary, metrics
from .adversary import (
    AgentState,
    RewardBreakdown,
    TargetWindow,
    Trajectory,
    compute_reward,
    init_policy,
    sample_action,
    save_checkpoint,
    select_target_window,
)
from .channel import ChannelConfig, audio_channel, clip_linf, decode_latent, stft
from .config import ConfigError, ExperimentConfig
from .federation import RoundRecord, init_federation, run_round, write_round_records
from .seeding import generator

__all__ = ["AttackEnv", "IterationStats", "TrainResult", "train"]

LOG_HEADER = "iteration,mean_reward,rur,mean_stability,mean_focus,mean_stealth,cd,ppo_loss,adv_std,kl"
# what the PPO columns hold in a random-baseline run, which has no update
NO_UPDATE = "nan"


class AttackEnv:
    """Federated-learning environment seen by the adversary.

    Episodes restart the federation from the same seed, so the dynamics
    are identical across episodes and all variation comes from the
    agent's actions.  That holds for the channel noise too: round t's
    noise is drawn once, the first time round t is reached, and every
    later episode reuses it.

    An observation is the clean-input summary followed by the previous
    round's 0/1 update mask (all zero after a reset), obs_dim entries in
    all.  reset and step return it as (columns, values): its nonzero
    entries, columns ascending.  step also sums its seconds per stage in
    stage_seconds.
    """

    def __init__(self, exp: ExperimentConfig, seed: int):
        g = exp.get
        self.in_dim = g("federation", "in_dim")
        self.n_clients = g("federation", "n_clients")
        dims = {key: g("federation", key) for key in ("in_dim", "hidden_dim", "out_dim")}
        self.total_params = exp.model_spec().total_params
        self.seed = seed
        self.channel_cfg: ChannelConfig = exp.channel_config()
        self.reward_cfg = exp.reward_config()
        self.modality = self.channel_cfg.modality
        self.epsilon = g("adversary", "epsilon")
        self.latent_dim = g("adversary", "latent_dim")
        self._init_kwargs = dict(
            dims,
            shard_size=g("federation", "shard_size"),
            sparsity=g("federation", "sparsity"),
            learning_rate=g("federation", "learning_rate"),
        )
        self.fed = None
        self.window: TargetWindow | None = None
        self.u_prev: np.ndarray | None = None
        self.x_summary: np.ndarray | None = None
        self.head: tuple[np.ndarray, np.ndarray] | None = None
        self.clean_spectrum: np.ndarray | None = None
        self.noise_store: dict[int, np.ndarray] = {}
        self.stage_seconds = dict.fromkeys(
            ("channel_seconds", "local_train_seconds", "sparsify_seconds", "aggregate_seconds", "reward_seconds"), 0.0
        )

    @property
    def obs_dim(self) -> int:
        return self.in_dim + self.total_params

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self.fed = init_federation(self.n_clients, self.seed, **self._init_kwargs)
        if self.x_summary is None:
            self.x_summary = np.mean(self.fed.x.reshape(-1, self.in_dim), axis=0)
            columns = np.flatnonzero(self.x_summary)
            self.head = columns, self.x_summary[columns]
            for a in self.head:
                a.flags.writeable = False
            if self.modality == "audio" and self.reward_cfg.lambda1 != 0.0:
                self.clean_spectrum = stft(
                    self.x_summary, self.reward_cfg.stft_frame, self.reward_cfg.stft_hop
                )
        self.u_prev = None
        return self.head

    def action_to_delta(self, z: np.ndarray) -> np.ndarray:
        return clip_linf(decode_latent(z, (self.in_dim,)), self.epsilon)

    def round_noise(self, t: int) -> np.ndarray | None:
        """Round t's (clients, shard, in_dim) channel noise; None without noise.

        Client c's block is one draw from generator(seed, "channel", t, c).
        It is drawn the first time round t is reached and kept read-only.
        """
        if self.channel_cfg.noise_std == 0:
            return None
        noise = self.noise_store.get(t)
        if noise is None:
            shape = self.fed.x.shape[1:]
            noise = np.stack([
                generator(self.seed, "channel", t, c).normal(0.0, self.channel_cfg.noise_std, size=shape)
                for c in range(self.n_clients)
            ])
            noise.flags.writeable = False
            self.noise_store[t] = noise
        return noise

    def step(self, z: np.ndarray) -> tuple[np.ndarray, RewardBreakdown, RoundRecord]:
        """Apply one latent action for a full round.

        Returns (next observation, reward breakdown, round record).  The
        reward uses the currently frozen window; the caller freezes it
        after the warmup rounds of the first episode.
        """
        started = time.perf_counter()
        delta = self.action_to_delta(np.asarray(z, dtype=np.float64))
        x = audio_channel(
            self.fed.x, np.broadcast_to(delta, (self.n_clients, self.in_dim)),
            self.channel_cfg, self.round_noise(self.fed.round_number),
        )
        self.stage_seconds["channel_seconds"] += time.perf_counter() - started
        record = run_round(self.fed, x, seconds=self.stage_seconds)
        u = record.indices
        scored = time.perf_counter()
        breakdown = compute_reward(
            self.u_prev, u, self.window, delta, self.x_summary,
            self.reward_cfg, self.modality, self.total_params,
            clean_spectrum=self.clean_spectrum,
        )
        self.stage_seconds["reward_seconds"] += time.perf_counter() - scored
        self.u_prev = u
        head_columns, head_values = self.head
        obs = (np.concatenate([head_columns, self.in_dim + u]),
               np.concatenate([head_values, np.ones(u.size)]))
        return obs, breakdown, record


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    mean_reward: float
    rur: float
    mean_stability: float
    mean_focus: float
    mean_stealth: float
    cd: float  # mean cluster diameter of the episode's round index sets
    # the PPO update after the episode; None for the random baseline
    ppo_loss: float | None = None
    adv_std: float | None = None
    kl: float | None = None

    def csv_line(self) -> str:
        update = [NO_UPDATE if v is None else f"{v:.6f}" for v in (self.ppo_loss, self.adv_std, self.kl)]
        return ",".join([
            f"{self.iteration},{self.mean_reward:.6f},{self.rur:.6f},"
            f"{self.mean_stability:.6f},{self.mean_focus:.6f},{self.mean_stealth:.6f},{self.cd:.6f}",
            *update,
        ])


@dataclass
class TrainResult:
    mode: str  # "ppo" or "random"
    stats: list[IterationStats]
    window: TargetWindow
    records: list[RoundRecord]  # final episode, globally numbered rounds
    agent: AgentState | None
    log_path: str | None = None
    checkpoint_path: str | None = None
    records_path: str | None = None
    # wall seconds per stage: policy (sample_action), channel (the
    # perturbed client inputs), run_round's local_train, sparsify and
    # aggregate, reward (compute_reward), update (ppo_update)
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def final_fraction_rur(self, fraction: float = 0.1) -> float:
        n = max(1, int(round(len(self.stats) * fraction)))
        return float(np.mean([s.rur for s in self.stats[-n:]]))

    def mean_reward_slice(self, start_frac: float, end_frac: float) -> float:
        n = len(self.stats)
        lo = int(n * start_frac)
        hi = max(lo + 1, int(n * end_frac))
        return float(np.mean([s.mean_reward for s in self.stats[lo:hi]]))


def train(
    exp: ExperimentConfig,
    *,
    baseline: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
    iterations: int | None = None,
) -> TrainResult:
    """Run the full training (or baseline) loop.

    baseline="random" replaces the policy with unit-Gaussian latent
    actions but keeps everything else identical, including the window
    selection from the first episode's warmup rounds.
    """
    if baseline not in (None, "random"):
        raise ConfigError(f"unknown baseline {baseline!r}")
    mode = "random" if baseline == "random" else "ppo"
    g = exp.get
    seed = g("run", "seed") if seed is None else seed
    iterations = g("run", "iterations") if iterations is None else iterations
    rounds = g("run", "rounds_per_episode")
    warmup = g("adversary", "warmup_rounds")

    env = AttackEnv(exp, seed)
    window_len = g("adversary", "window_len")
    if window_len == 0:
        # default target: the densest 2% stretch of the parameter space
        window_len = -(-env.total_params // 50)

    agent = None
    if mode == "ppo":
        agent = init_policy(exp.policy_config(env.obs_dim, env.latent_dim), seed)
    act_rng = generator(seed, "action-noise")
    base_rng = generator(seed, "baseline-actions")

    warm_sets: list[np.ndarray] = []
    stats: list[IterationStats] = []
    final_records: list[RoundRecord] = []
    policy_seconds = update_seconds = 0.0

    for it in range(iterations):
        obs = env.reset()
        observations: list[tuple[np.ndarray, np.ndarray]] = []
        act_buf = np.empty((rounds, env.latent_dim))
        logp_buf = np.empty(rounds)
        val_buf = np.empty(rounds)
        rew_buf = np.empty(rounds)
        breakdowns: list[RewardBreakdown] = []
        episode_records: list[RoundRecord] = []

        for t in range(rounds):
            if mode == "random":
                z = base_rng.standard_normal(env.latent_dim)
                logp, value = 0.0, 0.0
            else:
                started = time.perf_counter()
                z, logp, value = sample_action(agent, obs, act_rng)
                policy_seconds += time.perf_counter() - started
                observations.append(obs)
            act_buf[t] = z
            logp_buf[t] = logp
            val_buf[t] = value
            obs, breakdown, record = env.step(z)
            rew_buf[t] = breakdown.total
            breakdowns.append(breakdown)
            episode_records.append(record)
            if env.window is None:
                warm_sets.append(record.indices)
                if len(warm_sets) == warmup:
                    env.window = select_target_window(
                        warm_sets, env.total_params, window_len, warmup
                    )

        rur = metrics.compute_rur([r.indices for r in episode_records])
        cd = np.mean([metrics.compute_cd(r.indices, env.total_params) for r in episode_records])
        update = {}
        if mode == "ppo":
            started = time.perf_counter()
            traj = Trajectory.from_observations(observations, act_buf, logp_buf, rew_buf, val_buf)
            del observations
            agent, out = adversary.ppo_update(traj, agent, update_seed=(seed << 20) ^ it)
            update_seconds += time.perf_counter() - started
            update = dict(ppo_loss=out["loss"], adv_std=out["adv_std"], kl=out["kl"])
        stats.append(
            IterationStats(
                iteration=it,
                mean_reward=float(rew_buf.mean()),
                rur=rur,
                mean_stability=float(np.mean([b.stability for b in breakdowns])),
                mean_focus=float(np.mean([b.focus for b in breakdowns])),
                mean_stealth=float(np.mean([b.stealth for b in breakdowns])),
                cd=float(cd),
                **update,
            )
        )
        if it == iterations - 1:
            final_records = [
                RoundRecord(it * rounds + r.round_number, r.indices) for r in episode_records
            ]

    result = TrainResult(mode, stats, env.window, final_records, agent, stage_seconds={
        "policy_seconds": policy_seconds, **env.stage_seconds, "update_seconds": update_seconds,
    })
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.log_path = os.path.join(out_dir, "training_log.csv")
        with open(result.log_path, "w", encoding="ascii") as f:
            f.write(f"# config_hash={exp.hash_hex}\n")
            f.write(f"# mode={mode}\n")
            f.write(LOG_HEADER + "\n")
            for row in stats:
                f.write(row.csv_line() + "\n")
        result.records_path = os.path.join(out_dir, g("run", "records_file"))
        write_round_records(
            result.records_path,
            final_records,
            {"config_hash": exp.hash_hex, "total_params": str(env.total_params)},
        )
        if agent is not None:
            result.checkpoint_path = os.path.join(out_dir, "agent.ckpt")
            save_checkpoint(result.checkpoint_path, agent, exp.hash_bytes)
    return result
