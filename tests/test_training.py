"""Unit tests for the episode environment and the training loop."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hammersim import adversary, training
from hammersim.cli import main
from hammersim.config import ConfigError, load_config
from hammersim.federation import read_round_records
from hammersim.metrics import compute_cd, compute_rur, topk_count
from hammersim.training import LOG_HEADER, AttackEnv, train
from hammersim.seeding import generator

import oracles


def quick_config(rounds=15, iterations=3, extra=None):
    """A small config; extra maps (section, key) to values that replace its own."""
    values = {
        ("run", "rounds_per_episode"): rounds,
        ("run", "iterations"): iterations,
        ("federation", "in_dim"): 30,
        ("federation", "hidden_dim"): 12,
        ("federation", "shard_size"): 8,
        ("adversary", "stft_frame"): 16,
        ("adversary", "stft_hop"): 8,
        # env tests run fewer rounds than the default 10 warmup rounds
        ("adversary", "warmup_rounds"): min(rounds, 10),
    }
    return load_config(None, {**values, **(extra or {})})


# -- environment ------------------------------------------------------------

def assert_same_observation(obs, want):
    """obs and want are (columns, values) pairs with equal arrays."""
    assert len(obs) == len(want) == 2
    for got, expected in zip(obs, want):
        np.testing.assert_array_equal(got, expected)


def test_env_reset_restarts_federation():
    env = AttackEnv(quick_config(), seed=3)
    obs0 = env.reset()
    _, _, rec_a = env.step(np.zeros(env.latent_dim))
    obs1 = env.reset()
    _, _, rec_b = env.step(np.zeros(env.latent_dim))
    assert_same_observation(obs0, obs1)
    np.testing.assert_array_equal(rec_a.indices, rec_b.indices)
    assert env.fed.round_number == 1


def test_env_builds_its_federation_once(monkeypatch):
    # reset restarts the one federation from the read-only theta0, which
    # aggregate replaces rather than writes into
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return init_federation(*args, **kwargs)

    init_federation = training.init_federation
    monkeypatch.setattr(training, "init_federation", spy)
    env = AttackEnv(quick_config(), seed=3)
    theta0 = env.theta0.copy()
    for _ in range(3):
        env.reset()
        assert env.fed.theta is env.theta0 and env.fed.round_number == 0
        env.step(np.zeros(env.latent_dim))
        assert env.fed.theta is not env.theta0
    assert calls == [(env.n_clients, 3)]
    np.testing.assert_array_equal(env.theta0, theta0)
    with pytest.raises(ValueError, match="read-only"):
        env.theta0[0] = 1.0


def test_env_observation_layout():
    # (columns, values) are the nonzero entries of the dense observation:
    # the clean-input summary, then an all-zero mask
    env = AttackEnv(quick_config(), seed=3)
    obs = env.reset()
    assert env.obs_dim == env.in_dim + env.total_params
    dense = oracles.build_observation(env.x_summary, np.zeros(env.total_params))
    assert dense.shape == (env.obs_dim,)
    assert_same_observation(obs, oracles.nonzero_entries(dense))
    columns, values = obs
    np.testing.assert_array_equal(values, env.x_summary[columns])
    assert columns.dtype == np.int64 and columns.max() < env.in_dim


def test_env_step_reports_record_mask():
    env = AttackEnv(quick_config(), seed=4)
    env.reset()
    obs, breakdown, rec = env.step(np.zeros(env.latent_dim))
    dense = oracles.build_observation(env.x_summary, oracles.record_mask(rec, env.total_params))
    assert_same_observation(obs, oracles.nonzero_entries(dense))
    columns, values = obs
    np.testing.assert_array_equal(columns[columns >= env.in_dim] - env.in_dim, rec.indices)
    np.testing.assert_array_equal(values[columns >= env.in_dim], 1.0)
    assert breakdown.total == pytest.approx(
        breakdown.stability + 0.8 * breakdown.focus - 0.6 * breakdown.stealth)


def test_env_action_clipped_to_epsilon():
    env = AttackEnv(quick_config(), seed=5)
    delta = env.action_to_delta(100.0 * np.ones(env.latent_dim))
    assert np.abs(delta).max() <= env.epsilon
    assert delta.shape == (env.in_dim,)


def test_env_stores_each_rounds_noise_once():
    exp = quick_config(rounds=4)
    env = AttackEnv(exp, seed=6)
    assert env.noise_store == {}
    env.reset()
    assert env.noise_store == {}  # filled by rounds, not by reset
    first = []
    for _ in range(4):
        env.step(np.zeros(env.latent_dim))
        first.append(env.noise_store[env.fed.round_number - 1])
    env.reset()
    for t in range(4):
        env.step(np.zeros(env.latent_dim))
        assert env.noise_store[t] is first[t]
    assert sorted(env.noise_store) == [0, 1, 2, 3]
    shard = exp.get("federation", "shard_size")
    want = np.stack([generator(6, "channel", 2, c).normal(0.0, 0.05, size=(shard, env.in_dim))
                     for c in range(env.n_clients)])
    np.testing.assert_array_equal(env.noise_store[2], want)
    with pytest.raises(ValueError, match="read-only"):
        env.noise_store[2][0, 0, 0] = 1.0


def test_env_without_noise_stores_nothing():
    exp = quick_config(rounds=4, extra={("channel", "noise_std"): 0.0})
    env = AttackEnv(exp, seed=6)
    env.reset()
    for _ in range(4):
        env.step(np.zeros(env.latent_dim))
    assert env.round_noise(0) is None
    assert env.noise_store == {}


# -- training loop ----------------------------------------------------------

def test_train_draws_each_rounds_noise_once(monkeypatch):
    calls = []

    def spy(root, *names):
        if names[:1] == ("channel",):
            calls.append(names)
        return generator(root, *names)

    monkeypatch.setattr(training, "generator", spy)
    exp = quick_config(rounds=12, iterations=3)
    train(exp, seed=21)
    n_clients = exp.get("federation", "n_clients")
    assert sorted(calls) == [("channel", t, c) for t in range(12) for c in range(n_clients)]


@pytest.mark.parametrize("baseline", [None, "random"])
@pytest.mark.parametrize("target_rate", [16_000, 16_100])
def test_train_bytes_match_fresh_noise_every_round(tmp_path, monkeypatch, baseline, target_rate):
    # the stored noise writes the same bytes as rounds that draw it afresh
    # from one generator per client, through the generator-list channel
    exp = quick_config(rounds=12, iterations=3,
                       extra={("channel", "noise_std"): 0.1, ("channel", "target_rate_hz"): target_rate})

    def run(name):
        res = train(exp, baseline=baseline, out_dir=str(tmp_path / name), seed=31)
        paths = [tmp_path / name / "training_log.csv", res.records_path]
        if res.checkpoint_path:
            paths.append(res.checkpoint_path)
        return [open(path, "rb").read() for path in paths]

    stored = run("stored")
    monkeypatch.setattr(AttackEnv, "round_noise", lambda env, t: [
        generator(env.seed, "channel", t, c) for c in range(env.n_clients)])
    monkeypatch.setattr(training, "audio_channel", oracles.audio_channel_reference)
    assert run("fresh") == stored



def test_train_writes_outputs(tmp_path):
    exp = quick_config()
    out = tmp_path / "run"
    res = train(exp, out_dir=str(out), seed=11, iterations=3)
    assert res.mode == "ppo"
    assert len(res.stats) == 3
    assert res.window is not None
    lines = (out / "training_log.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={exp.hash_hex}"
    assert lines[1] == "# mode=ppo"
    assert lines[2] == LOG_HEADER
    assert len(lines) == 3 + 3
    for line, row in zip(lines[3:], res.stats):
        fields = line.split(",")
        assert len(fields) == len(LOG_HEADER.split(","))
        assert all(np.isfinite(float(v)) for v in fields)
        assert None not in (row.ppo_loss, row.adv_std, row.kl)
    assert os.path.exists(res.checkpoint_path)
    records, header = read_round_records(res.records_path)
    assert len(records) == 15
    # records carry global round numbers from the final iteration
    assert records[0].round_number == 2 * 15
    assert header["config_hash"] == exp.hash_hex


def test_train_random_baseline(tmp_path):
    res = train(quick_config(), baseline="random", out_dir=str(tmp_path / "b"),
                seed=11, iterations=3)
    assert res.mode == "random"
    assert res.agent is None
    # no PPO update: its three log columns hold the fixed placeholder
    for line in (tmp_path / "b" / "training_log.csv").read_text().splitlines()[3:]:
        assert line.split(",")[-3:] == [training.NO_UPDATE] * 3
    assert not os.path.exists(os.path.join(str(tmp_path / "b"), "agent.ckpt"))
    with pytest.raises(ConfigError):
        train(quick_config(), baseline="zeros")


def test_train_is_deterministic(tmp_path):
    a = train(quick_config(), out_dir=str(tmp_path / "a"), seed=7, iterations=3)
    b = train(quick_config(), out_dir=str(tmp_path / "b"), seed=7, iterations=3)
    assert [s.csv_line() for s in a.stats] == [s.csv_line() for s in b.stats]
    assert (a.window.start, a.window.end) == (b.window.start, b.window.end)
    ra = (tmp_path / "a" / "training_log.csv").read_bytes()
    rb = (tmp_path / "b" / "training_log.csv").read_bytes()
    assert ra == rb


def test_train_bytes_match_reference_update(tmp_path, monkeypatch):
    # the compact first layer in ppo_update writes the same training bytes
    # as the dense, array-building reference update on this small model
    def run(name):
        res = train(quick_config(rounds=30), out_dir=str(tmp_path / name), seed=29, iterations=4)
        paths = (tmp_path / name / "training_log.csv", res.records_path, res.checkpoint_path)
        return [open(path, "rb").read() for path in paths]

    def reference(traj, state, update_seed=0):
        # the reference builds a new state; train keeps stepping its own
        new_state, stats = oracles.ppo_update_reference(traj, state, update_seed)
        vars(state).update(vars(new_state))
        return stats

    fast = run("fast")
    monkeypatch.setattr(adversary, "ppo_update", reference)
    assert run("reference") == fast


def test_train_trajectory_holds_only_nonzero_entries(monkeypatch):
    # the trajectory handed to ppo_update holds each observation's nonzero
    # entries, not a rounds x obs_dim matrix (16 MB at 200 rounds)
    seen = []

    def spy(traj, state, update_seed=0):
        seen.append(traj)
        return ppo_update(traj, state, update_seed)

    ppo_update = adversary.ppo_update
    monkeypatch.setattr(adversary, "ppo_update", spy)
    exp = load_config(None, {("run", "rounds_per_episode"): 200})
    train(exp, seed=3, iterations=1)
    (traj,) = seen
    g = exp.get
    in_dim, clients = g("federation", "in_dim"), g("federation", "n_clients")
    k = topk_count(g("federation", "sparsity"), AttackEnv(exp, seed=3).total_params)
    held = sum(a.nbytes for a in vars(traj).values())
    assert held < 200 * (in_dim + clients * k) * 16
    assert traj.data.all()


def test_train_times_its_stages(tmp_path):
    # timing.txt lists train's stages after the elapsed time, then the peak RSS
    out = tmp_path / "run"
    config = tmp_path / "quick.toml"
    config.write_text("[run]\niterations = 2\nrounds_per_episode = 12\n")
    assert main(["train", "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
    timing = dict(line.split("=") for line in (out / "timing.txt").read_text().splitlines())
    stages = ["policy_seconds", "channel_seconds", "local_train_seconds", "sparsify_seconds",
              "aggregate_seconds", "reward_seconds", "update_seconds"]
    assert list(timing) == ["elapsed_seconds", *stages, "peak_rss_mb"]
    seconds = {name: float(value) for name, value in timing.items()}
    assert all(seconds[name] >= 0 for name in stages)
    assert sum(seconds[name] for name in stages) <= seconds["elapsed_seconds"]


# SHA-256 of the outputs of `hammersim train --seed 1` on the default config
# with [run] iterations = 3, at one BLAS thread
PINNED_TRAIN_SHA256 = {
    "training_log.csv": "2aa6dde3a0e407ab2dd6c522354e181a60e6b3dbc4b6f95092a8bb595e6104fd",
    "records.txt": "b338ab710cc3189f995d4f37446e83c2aa96937e9f72e1bad0c16396cf89ca35",
    "agent.ckpt": "b4eed6e2a80433791f74fdf92000b2fdfa4def23168a9ab4d3a4b827284aa0de",
}


def test_train_bytes_are_pinned(tmp_path):
    config = tmp_path / "three.toml"
    config.write_text("[run]\niterations = 3\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hammersim.cli import main; sys.exit(main())",
         "train", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
           for name in PINNED_TRAIN_SHA256}
    assert got == PINNED_TRAIN_SHA256


def test_train_seeds_differ():
    a = train(quick_config(), seed=7, iterations=2)
    b = train(quick_config(), seed=8, iterations=2)
    assert [s.mean_reward for s in a.stats] != [s.mean_reward for s in b.stats]


def test_train_stats_match_records():
    res = train(quick_config(), seed=13, iterations=2)
    rur = compute_rur([r.indices for r in res.records])
    assert res.stats[-1].rur == pytest.approx(rur)
    total_params = AttackEnv(quick_config(), seed=13).total_params
    cd = np.mean([compute_cd(r.indices, total_params) for r in res.records])
    assert res.stats[-1].cd == pytest.approx(cd)


def test_window_frozen_after_warmup():
    exp = quick_config()
    warmup = exp.get("adversary", "warmup_rounds")
    res = train(exp, seed=17, iterations=2)
    env = AttackEnv(exp, seed=17)
    assert res.window.end - res.window.start == -(-env.total_params // 50)
    # re-running with more iterations keeps the same frozen window
    res2 = train(exp, seed=17, iterations=3)
    assert (res.window.start, res.window.end) == (res2.window.start, res2.window.end)


def test_window_len_sets_window_width():
    exp = quick_config(extra={("adversary", "window_len"): 37})
    res = train(exp, seed=19, iterations=2)
    assert res.window.end - res.window.start == 37


def test_result_slices():
    res = train(quick_config(), seed=23, iterations=4)
    rewards = [s.mean_reward for s in res.stats]
    assert res.mean_reward_slice(0.0, 0.25) == pytest.approx(rewards[0])
    assert res.mean_reward_slice(0.75, 1.0) == pytest.approx(rewards[3])
    assert res.final_fraction_rur(0.5) == pytest.approx(
        np.mean([s.rur for s in res.stats[2:]]))
