"""Unit tests for reward shaping, the policy network and PPO updates."""
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from hammersim.adversary import (
    LOG_STD_RANGE,
    AgentState,
    PolicyConfig,
    RewardConfig,
    TargetWindow,
    Trajectory,
    WEIGHT_KEYS,
    compute_emd,
    compute_gae,
    compute_reward,
    gaussian_log_prob,
    init_policy,
    perceptibility_audio,
    perceptibility_image,
    ppo_loss_and_grads,
    ppo_update,
    sample_action,
    save_checkpoint,
    select_target_window,
    target_focus,
)
from hammersim.channel import stft
from hammersim.config import load_config
from hammersim.seeding import generator
from hammersim.training import AttackEnv

import oracles
from oracles import csr_trajectory, load_checkpoint, nonzero_entries, policy_forward, ppo_loss


# -- earth mover's distance -------------------------------------------------

def test_emd_identical_sets():
    assert compute_emd([3, 7, 9], [3, 7, 9], 100) == 0.0


def test_emd_singleton_shift():
    # point masses half the space apart
    assert compute_emd([0], [50], 100) == pytest.approx(0.5)


def test_emd_matches_grid_reference():
    rng = generator(13, "emd-test")
    for _ in range(15):
        na, nb = rng.integers(1, 7, size=2)
        a = rng.choice(60, size=na, replace=False).tolist()
        b = rng.choice(60, size=nb, replace=False).tolist()
        assert compute_emd(a, b, 60) == pytest.approx(
            oracles.emd_reference(a, b, 60), abs=1e-9)


def test_emd_validation():
    with pytest.raises(ValueError):
        compute_emd([], [1], 10)
    with pytest.raises(ValueError):
        compute_emd([1], [10], 10)


# -- target window ----------------------------------------------------------

def test_target_window_basics():
    w = TargetWindow(10, 20)
    assert w.end - w.start == 10
    assert target_focus([9, 10, 19, 20], w) == 0.5
    assert target_focus([], w) == 0.0
    with pytest.raises(ValueError):
        TargetWindow(5, 5)


def test_select_target_window_finds_densest():
    sets = [[50, 51, 52, 90]] * 10
    w = select_target_window(sets, 100, 5)
    # starts 48, 49, 50 all cover the cluster; ties go to the lowest
    assert w.start == 48
    assert sum(1 for i in (50, 51, 52) if w.start <= i < w.end) == 3


def test_select_target_window_tie_breaks_low():
    # two equally dense clusters: the earlier start must win
    sets = [[10, 11, 70, 71]] * 10
    w = select_target_window(sets, 100, 2)
    assert w.start == 10


def test_select_target_window_validation():
    with pytest.raises(ValueError):
        select_target_window([[1]] * 3, 100, 5, warmup_rounds=10)
    with pytest.raises(ValueError):
        select_target_window([[1]] * 10, 100, 0)


# -- index sets as arrays against the frozenset references -----------------

def index_set_forms(rng, size, universe):
    """The same index set as a sorted array, an unsorted list with repeats, and a set."""
    a = np.sort(rng.choice(universe, size=size, replace=False))
    shuffled = rng.permutation(a).tolist()
    return [a, shuffled + shuffled[: size // 2], set(a.tolist()),
            np.array(shuffled + shuffled[:2], dtype=np.int64)]


def test_set_metrics_match_frozenset_references_exactly():
    rng = generator(59, "set-metrics")
    window = TargetWindow(40, 90)
    for _ in range(25):
        prev_forms = index_set_forms(rng, int(rng.integers(1, 40)), 200)
        curr_forms = index_set_forms(rng, int(rng.integers(1, 40)), 200)
        want_emd = oracles.emd_sets(prev_forms[0], curr_forms[0], 200)
        want_focus = oracles.focus_sets(curr_forms[0], window)
        for prev in prev_forms:
            for curr in curr_forms:
                assert compute_emd(prev, curr, 200) == want_emd
            assert target_focus(prev, window) == oracles.focus_sets(prev, window)
        for curr in curr_forms:
            assert target_focus(curr, window) == want_focus


def test_select_target_window_matches_frozenset_reference_exactly():
    rng = generator(61, "window-ref")
    for trial in range(10):
        # small sets in a small space, so several starts often tie for the densest window
        sets = [index_set_forms(rng, 12, 60)[trial % 4] for _ in range(6)]
        for length in (1, 5, 17, 60):
            got = select_target_window(sets, 60, length, warmup_rounds=5)
            want = oracles.window_sets(sets, 60, length, warmup_rounds=5)
            assert (got.start, got.end) == (want.start, want.end)


def test_set_metrics_empty_and_out_of_range_errors():
    window = TargetWindow(0, 5)
    for empty in ([], set(), np.array([], dtype=np.int64)):
        assert target_focus(empty, window) == 0.0 == oracles.focus_sets(empty, window)
        for fn in (compute_emd, oracles.emd_sets):
            with pytest.raises(ValueError):
                fn(empty, [1], 10)
            with pytest.raises(ValueError):
                fn([1], empty, 10)
    for fn in (compute_emd, oracles.emd_sets):
        with pytest.raises(ValueError):
            fn(np.array([3, 10]), [1], 10)
        with pytest.raises(ValueError):
            fn({1}, {2}, 0)
    for fn in (select_target_window, oracles.window_sets):
        for bad in ([3, 100], {-1, 4}, np.array([100, 2])):
            with pytest.raises(ValueError, match="out of range"):
                fn([[1, 2]] * 9 + [bad], 100, 5)
        # indices past the warmup rounds are not read
        fn([[1, 2]] * 10 + [[100]], 100, 5)


# -- perceptibility and reward ----------------------------------------------

def test_perceptibility_audio_zero_delta():
    x = generator(1, "perc").standard_normal(512)
    assert perceptibility_audio(np.zeros(512), x, 0.5, 0.5) == 0.0


def test_perceptibility_audio_terms():
    rng = generator(2, "perc-terms")
    x = rng.standard_normal(512)
    d = 0.05 * rng.standard_normal(512)
    rms = float(np.sqrt(np.mean(d**2)))
    spec = float(np.sqrt(np.sum(np.abs(stft(x + d, 64, 32) - stft(x, 64, 32)) ** 2)))
    got = perceptibility_audio(d, x, 0.3, 0.7, frame_len=64, hop=32)
    assert got == pytest.approx(0.3 * spec + 0.7 * rms, rel=1e-12)
    # lambda1 = 0 skips the spectral term entirely
    assert perceptibility_audio(d, x, 0.0, 0.7, 64, 32) == pytest.approx(0.7 * rms)


def test_perceptibility_image_energy():
    d = np.full((4, 4), 0.5)
    assert perceptibility_image(d, 0.8) == pytest.approx(0.8 * 16 * 0.25)


def test_compute_reward_composition():
    cfg = RewardConfig(alpha=1.0, beta=0.8, gamma=0.6, lambda1=0.0, lambda2=1.0,
                       stft_frame=32, stft_hop=16)
    x = np.zeros(64)
    d = np.full(64, 0.2)
    window = TargetWindow(0, 50)
    br = compute_reward([1, 2], [1, 2, 60], window, d, x, cfg, "audio", 100)
    assert br.stability == pytest.approx(1.0 - compute_emd([1, 2], [1, 2, 60], 100))
    assert br.focus == pytest.approx(2 / 3)
    assert br.stealth == pytest.approx(0.2)
    assert br.total == pytest.approx(br.stability + 0.8 * br.focus - 0.6 * br.stealth)


def test_cached_clean_spectrum_gives_identical_reward():
    cfg = RewardConfig(lambda1=0.4, lambda2=0.3, stft_frame=16, stft_hop=8)
    rng = generator(67, "clean-spec")
    x = rng.standard_normal(64)
    spectrum = stft(x, 16, 8)
    window = TargetWindow(0, 50)
    for _ in range(5):
        d = 0.1 * rng.standard_normal(64)
        plain = compute_reward([1, 2], np.array([2, 60]), window, d, x, cfg, "audio", 100)
        cached = compute_reward([1, 2], np.array([2, 60]), window, d, x, cfg, "audio", 100,
                                clean_spectrum=spectrum)
        assert cached == plain
        assert perceptibility_audio(d, x, 0.4, 0.3, 16, 8, clean_spectrum=spectrum) == plain.stealth


def test_compute_reward_warmup_defaults():
    cfg = RewardConfig(lambda1=0.0, stft_frame=32, stft_hop=16)
    br = compute_reward(None, [1, 2], None, np.zeros(64), np.zeros(64), cfg, "audio", 100)
    assert br.stability == 0.0 and br.focus == 0.0


# -- policy network ---------------------------------------------------------

def agent_for_test(obs_dim=6, action_dim=3, **kw):
    cfg = PolicyConfig(obs_dim=obs_dim, action_dim=action_dim, hidden1=8, hidden2=8, **kw)
    return init_policy(cfg, seed=42)


def test_policy_forward_shapes_and_init():
    state = agent_for_test()
    obs = np.zeros(6)
    mean, log_std, value = policy_forward(obs, state)
    assert mean.shape == (3,) and log_std.shape == (3,)
    # zero observation passes through zero biases: log-std bias dominates
    np.testing.assert_allclose(log_std, state.cfg.log_std_init, atol=1e-12)
    assert isinstance(value, float)


def test_gaussian_log_prob_matches_normal_pdf():
    rng = generator(3, "glp")
    a = rng.standard_normal((5, 4))
    m = rng.standard_normal((5, 4))
    ls = rng.normal(-0.5, 0.3, size=(5, 4))
    want = [sum(math.log(NormalDist(mu, math.exp(s)).pdf(x)) for x, mu, s in zip(*row))
            for row in zip(a.tolist(), m.tolist(), ls.tolist())]
    np.testing.assert_allclose(gaussian_log_prob(a, m, ls), want, atol=1e-10)


def test_sample_action_is_seeded_and_consistent():
    state = agent_for_test()
    obs = generator(4, "obs").standard_normal(6)
    a1, logp1, v1 = sample_action(state, nonzero_entries(obs), generator(7, "act"))
    a2, logp2, v2 = sample_action(state, nonzero_entries(obs), generator(7, "act"))
    np.testing.assert_array_equal(a1, a2)
    assert logp1 == logp2 and v1 == v2
    mean, log_std, _ = policy_forward(obs, state)
    want = gaussian_log_prob(a1[None, :], mean[None, :], log_std[None, :])[0]
    assert logp1 == pytest.approx(float(want), rel=1e-12)


# -- GAE --------------------------------------------------------------------

def test_gae_single_step():
    adv, ret = compute_gae(np.array([2.0]), np.array([0.5]), 0.9, 0.8)
    assert adv[0] == pytest.approx(2.0 - 0.5)
    assert ret[0] == pytest.approx(2.0)


def test_gae_matches_direct_recursion():
    rng = generator(5, "gae")
    r = rng.standard_normal(12)
    v = rng.standard_normal(12)
    gamma, lam = 0.7, 0.6
    adv, ret = compute_gae(r, v, gamma, lam)
    # direct double loop over the definition
    deltas = [r[t] + (gamma * v[t + 1] if t + 1 < 12 else 0.0) - v[t] for t in range(12)]
    for t in range(12):
        want = sum((gamma * lam) ** (j - t) * deltas[j] for j in range(t, 12))
        assert adv[t] == pytest.approx(want, abs=1e-10)
    np.testing.assert_allclose(ret, adv + v, atol=1e-12)


def test_gae_zero_rewards_zero_values():
    adv, ret = compute_gae(np.zeros(5), np.zeros(5), 0.99, 0.95)
    np.testing.assert_array_equal(adv, np.zeros(5))
    np.testing.assert_array_equal(ret, np.zeros(5))


# -- PPO loss and gradients -------------------------------------------------

def loss_inputs(state, batch=6, seed=17):
    rng = generator(seed, "loss-inputs")
    cfg = state.cfg
    obs = rng.standard_normal((batch, cfg.obs_dim))
    mean, log_std, _, _ = oracles.dense_forward(state.weights, obs)
    actions = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    old_logp = gaussian_log_prob(actions, mean, log_std) + 0.1 * rng.standard_normal(batch)
    adv = rng.standard_normal(batch)
    returns = rng.standard_normal(batch)
    return obs, actions, old_logp, adv, returns


def test_loss_and_grads_agree_on_loss():
    state = agent_for_test(entropy_coef=0.01, value_coef=0.5)
    args = loss_inputs(state)
    plain = ppo_loss(state.weights, state.cfg, *args)
    fused, _, _ = ppo_loss_and_grads(state.weights, state.cfg, *args)
    assert fused == pytest.approx(plain, rel=1e-12)


def test_gradients_match_finite_differences():
    state = agent_for_test(entropy_coef=0.01, value_coef=0.5)
    args = loss_inputs(state)
    _, _, grads = ppo_loss_and_grads(state.weights, state.cfg, *args)
    rng = generator(23, "fd-coords")
    eps = 1e-6
    for key in WEIGHT_KEYS:
        flat = state.weights[key].ravel()
        n_checks = min(4, flat.size)
        for i in rng.choice(flat.size, size=n_checks, replace=False):
            w_up = {k: v.copy() for k, v in state.weights.items()}
            w_dn = {k: v.copy() for k, v in state.weights.items()}
            w_up[key].ravel()[i] += eps
            w_dn[key].ravel()[i] -= eps
            fd = (ppo_loss(w_up, state.cfg, *args) - ppo_loss(w_dn, state.cfg, *args)) / (2 * eps)
            got = grads[key].ravel()[i]
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-7), f"{key}[{i}]"


def test_ppo_update_zero_advantage_is_noop():
    state = agent_for_test(entropy_coef=0.0, value_coef=0.0)
    rng = generator(29, "noop")
    t_len = 8
    obs = rng.standard_normal((t_len, 6))
    actions = rng.standard_normal((t_len, 3))
    logp = np.zeros(t_len)
    traj = csr_trajectory(obs, actions, logp, np.zeros(t_len), np.zeros(t_len))
    new_state, _ = ppo_update(traj, state, update_seed=1)
    for key in WEIGHT_KEYS:
        np.testing.assert_array_equal(new_state.weights[key], state.weights[key])


def test_ppo_update_improves_surrogate_direction():
    # positive advantage on one action: its log-prob must go up
    state = agent_for_test(entropy_coef=0.0, value_coef=0.0, learning_rate=0.01)
    obs = np.zeros((4, 6))
    mean, log_std, _ = policy_forward(obs[0], state)
    actions = np.tile(mean + 0.3, (4, 1))
    old_logp = gaussian_log_prob(actions, np.tile(mean, (4, 1)), np.tile(log_std, (4, 1)))
    traj = csr_trajectory(obs, actions, old_logp, np.ones(4), np.zeros(4))
    new_state, _ = ppo_update(traj, state, update_seed=2)
    new_mean, new_log_std, _ = policy_forward(obs[0], new_state)
    new_logp = gaussian_log_prob(actions[:1], new_mean[None, :], new_log_std[None, :])[0]
    assert new_logp > old_logp[0]


def test_ppo_update_is_deterministic():
    state = agent_for_test()
    rng = generator(31, "det")
    traj = csr_trajectory(rng.standard_normal((10, 6)), rng.standard_normal((10, 3)),
                          rng.standard_normal(10), rng.standard_normal(10),
                          rng.standard_normal(10))
    a, _ = ppo_update(traj, state, update_seed=5)
    b, _ = ppo_update(traj, state, update_seed=5)
    c, _ = ppo_update(traj, state, update_seed=6)
    for key in WEIGHT_KEYS:
        np.testing.assert_array_equal(a.weights[key], b.weights[key])
    assert any(not np.array_equal(a.weights[k], c.weights[k]) for k in WEIGHT_KEYS)


def ppo_arrays(seed, t_len=30, obs_dim=6, action_dim=3):
    """Dense observations, actions, log-probs, rewards and values."""
    rng = generator(seed, "ppo-traj")
    return (rng.standard_normal((t_len, obs_dim)), rng.standard_normal((t_len, action_dim)),
            rng.standard_normal(t_len), rng.standard_normal(t_len), rng.standard_normal(t_len))


def ppo_trajectory(seed, t_len=30, obs_dim=6, action_dim=3):
    return csr_trajectory(*ppo_arrays(seed, t_len, obs_dim, action_dim))


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_state(state, want):
    # Adam's w1 moments compared over every row of w1
    state, want = oracles.with_dense_moments(state), oracles.with_dense_moments(want)
    assert state.adam_step == want.adam_step
    for name in ("weights", "adam_m", "adam_v"):
        for key in WEIGHT_KEYS:
            assert_same_bits(getattr(state, name)[key], getattr(want, name)[key])


@pytest.mark.parametrize("max_grad_norm", [0.0, 0.05, 1e3])
def test_ppo_update_matches_out_of_place_adam_exactly(max_grad_norm):
    # the in-place Adam step gives the same bits as the array-building one,
    # over two chained updates so the moments and step count carry over
    state = agent_for_test(entropy_coef=0.01, value_coef=0.5, max_grad_norm=max_grad_norm,
                           minibatch_size=7)
    want = state
    for it, seed in enumerate((41, 43)):
        traj = ppo_trajectory(seed)
        state, _ = ppo_update(traj, state, update_seed=it)
        want, _ = oracles.ppo_update_reference(traj, want, update_seed=it)
        assert_same_state(state, want)


def mask_trajectory(seed, set_cols, t_len=30, n_dense=4, obs_dim=64, action_dim=3):
    """Observations shaped like the attacker's: n_dense dense columns, then a
    sparse 0/1 mask whose nonzero entries fall in set_cols only.  Returns
    the dense observations and the trajectory."""
    arrays = ppo_arrays(seed, t_len, obs_dim, action_dim)
    obs = arrays[0]
    rng = generator(seed, "mask-obs")
    obs[:, n_dense:] = 0.0
    obs[:, set_cols] = rng.random((t_len, len(set_cols))) < 0.3
    return obs, csr_trajectory(*arrays)


@pytest.mark.parametrize("max_grad_norm", [0.0, 0.05, 1e3])
def test_ppo_update_matches_reference_on_mask_observations(max_grad_norm):
    # Adam steps only the w1 rows with a nonzero observation column or
    # moment; on mask-shaped observations every bit must still match the
    # dense reference, over chained updates
    state = agent_for_test(obs_dim=64, entropy_coef=0.01, value_coef=0.5,
                           max_grad_norm=max_grad_norm, minibatch_size=7)
    negative_zero = 19  # never observed; the dense step may flip its -0.0 moments to +0.0
    state = oracles.with_dense_moments(state)
    state.adam_m["w1"][negative_zero] = -0.0
    state = oracles.with_compact_moments(state)
    once = 20  # observed in the first update only
    never = np.arange(21, 64)
    init_w1 = state.weights["w1"].copy()
    updates = [(61, [4, 5, 6, 9, 12, once]), (67, [4, 5, 7, 8, 12, 13]), (71, [5, 6, 13, 14])]
    want = state
    for it, (seed, cols) in enumerate(updates):
        obs, traj = mask_trajectory(seed, cols)
        before = state
        state, _ = ppo_update(traj, state, update_seed=it)
        want, _ = oracles.ppo_update_reference(traj, want, update_seed=it)
        assert_same_state(state, want)
        if it > 0:
            # an unobserved row with nonzero moments is still stepped
            assert not np.any(obs[:, once])
            assert np.all(state.weights["w1"][once] != before.weights["w1"][once])
        assert_same_bits(state.weights["w1"][never], init_w1[never])
        dense = oracles.with_dense_moments(state)
        for moments in (dense.adam_m["w1"], dense.adam_v["w1"]):
            assert_same_bits(moments[never], np.zeros_like(moments[never]))


def test_ppo_update_clip_norm_sums_the_stepped_rows():
    # a binding clip scales by the gradient norm, whose w1 term ppo_update
    # sums over the rows it steps; numpy's pairwise sum over every row of
    # w1 groups the same squares differently, and on this data already
    # gives another number in the first minibatch.  The reference sums over
    # the stepped rows too, so every bit matches.
    cols = [6, 7, 9, 10, 14, 15, 17, 24, 25, 28, 30, 33, 36, 37, 38, 40, 41, 42, 45, 50, 54, 57, 59, 63]
    state = agent_for_test(obs_dim=64, entropy_coef=0.01, value_coef=0.5, max_grad_norm=0.05,
                           minibatch_size=7)
    obs, traj = mask_trajectory(61, cols)
    adv, returns = compute_gae(traj.rewards, traj.values, state.cfg.discount, state.cfg.gae_lambda)
    adv = (adv - adv.mean()) / adv.std()
    sel = generator(0, "ppo-minibatch").permutation(obs.shape[0])[:7]
    _, _, grads = ppo_loss_and_grads(state.weights, state.cfg, obs[sel], traj.actions[sel],
                                     traj.log_probs[sel], adv[sel], returns[sel])
    g, stepped = grads["w1"], np.unique(traj.columns)
    assert float(np.sum(g * g)) > state.cfg.max_grad_norm**2
    assert float(np.sum(g * g)) != float(np.sum(g[stepped] * g[stepped]))
    new_state, stats = ppo_update(traj, state, update_seed=0)
    want, want_stats = oracles.ppo_update_reference(traj, state, update_seed=0)
    assert_same_state(new_state, want)
    assert stats == want_stats


def test_ppo_update_rejects_non_finite_result():
    state = agent_for_test()
    traj = ppo_trajectory(73)
    traj.rewards[3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite values in w1"):
        ppo_update(traj, state, update_seed=1)


def test_ppo_update_leaves_caller_state_unchanged():
    state = agent_for_test(entropy_coef=0.01, value_coef=0.5)
    first, _ = ppo_update(ppo_trajectory(47), state, update_seed=1)
    before = {name: {k: v.copy() for k, v in getattr(first, name).items()}
              for name in ("weights", "adam_m", "adam_v")}
    rows = first.moment_rows.copy()
    second, _ = ppo_update(ppo_trajectory(53), first, update_seed=2)
    assert first.adam_step == second.adam_step - 8
    for name, arrays in before.items():
        for key in WEIGHT_KEYS:
            np.testing.assert_array_equal(getattr(first, name)[key], arrays[key])
            assert getattr(second, name)[key] is not getattr(first, name)[key]
    np.testing.assert_array_equal(first.moment_rows, rows)
    assert second.moment_rows is not first.moment_rows


def test_ppo_update_memory_follows_the_live_rows():
    # a wide first layer, one w1-sized array being 5.1 MB, and trajectories
    # that touch about 200 of its 40,000 rows: besides the new state's own
    # w1 an update allocates only arrays the size of the live rows
    cfg = PolicyConfig(obs_dim=40_000, action_dim=3, hidden1=16, hidden2=8)
    state = init_policy(cfg, seed=5)
    pool = np.sort(generator(101, "wide-pool").choice(cfg.obs_dim, size=200, replace=False))

    def trajectory(seed):
        rng = generator(seed, "wide-obs")
        columns = (np.sort(rng.choice(pool, size=20, replace=False)) for _ in range(30))
        observations = [(c, np.ones(c.size)) for c in columns]
        return Trajectory.from_observations(observations, *ppo_arrays(seed, 30, 1)[1:])

    state, _ = ppo_update(trajectory(103), state, update_seed=0)
    second = trajectory(107)
    tracemalloc.start()
    try:
        ppo_update(second, state, update_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state.weights["w1"].nbytes


def test_grad_norm_clip_bounds_update():
    base = agent_for_test(entropy_coef=0.0, value_coef=0.0, max_grad_norm=1e-6)
    rng = generator(37, "clip")
    traj = csr_trajectory(rng.standard_normal((8, 6)), rng.standard_normal((8, 3)),
                          rng.standard_normal(8), rng.standard_normal(8), np.zeros(8))
    new_state, _ = ppo_update(traj, base, update_seed=3)
    # with a vanishing norm budget Adam still moves, but the raw gradient
    # scale cannot blow up the weights
    for key in WEIGHT_KEYS:
        drift = np.abs(new_state.weights[key] - base.weights[key]).max()
        assert drift < 0.1


def test_log_std_bound_keeps_update_finite():
    # a log-std bias far past the bound: unbounded, exp(400) overflows, the
    # sampled actions are infinite and the update goes non-finite
    state = agent_for_test()
    state.weights["bs"][:] = 400.0
    rng = generator(79, "bound")
    obs = rng.standard_normal((30, 6))
    actions, logps, values = map(np.array, zip(*(sample_action(state, nonzero_entries(o), rng) for o in obs)))
    traj = csr_trajectory(obs, actions, logps, rng.standard_normal(30), values)
    assert np.isfinite(actions).all() and np.isfinite(logps).all()
    _, _, grads = ppo_loss_and_grads(state.weights, state.cfg, obs, actions, logps,
                                     rng.standard_normal(30), rng.standard_normal(30))
    assert not grads["bs"].any() and not grads["ws"].any()  # clipped: no gradient
    new_state, _ = ppo_update(traj, state, update_seed=1)
    for key in WEIGHT_KEYS:
        assert np.isfinite(new_state.weights[key]).all(), key
    for o in obs:
        _, log_std, _ = policy_forward(o, new_state)
        assert np.all((LOG_STD_RANGE[0] <= log_std) & (log_std <= LOG_STD_RANGE[1]))


# -- observations as nonzero entries -----------------------------------------

@pytest.fixture(scope="module")
def attack_rollout():
    """A default-config policy and 30 rounds of its own AttackEnv
    observations (100 dense columns, then a 0/1 update mask): the policy,
    the observations as (columns, values), their trajectory, the same
    observations as a dense matrix, and in_dim."""
    exp = load_config(None)
    env = AttackEnv(exp, seed=3)
    state = init_policy(exp.policy_config(env.obs_dim, env.latent_dim), seed=3)
    rng = generator(3, "rollout")
    obs = [env.reset()]
    actions, logps, values, rewards = [], [], [], []
    for _ in range(30):
        z, logp, value = sample_action(state, obs[-1], rng)
        nxt, breakdown, _ = env.step(z)
        obs.append(nxt)
        actions.append(z)
        logps.append(logp)
        values.append(value)
        rewards.append(breakdown.total)
    traj = Trajectory.from_observations(obs[:-1], np.array(actions), np.array(logps),
                                        np.array(rewards), np.array(values))
    return state, obs[:-1], traj, oracles.dense_observations(traj, env.obs_dim), env.in_dim


def test_policy_forward_matches_dense_oracle(attack_rollout):
    # sample_action on (columns, values) gives the bits of the dense-vector
    # forward pass over the nonzero columns; that gather-sum adds the same
    # products as the product over every column in another order: equal to
    # a few ulps of the O(1) outputs
    state, observations, _, dense, in_dim = attack_rollout
    assert 0 < np.count_nonzero(dense[1, in_dim:]) < dense.shape[1] // 10
    zero_mask = dense[0]
    assert zero_mask[:in_dim].all() and not zero_mask[in_dim:].any()
    for obs, row in zip(observations, dense):
        action, logp, value = sample_action(state, obs, generator(5, "draw"))
        mean, log_std, want_value = policy_forward(row, state)
        want = mean + np.exp(log_std) * generator(5, "draw").standard_normal(mean.shape)
        assert_same_bits(action, want)
        assert logp == float(gaussian_log_prob(want[None, :], mean[None, :], log_std[None, :])[0])
        assert value == want_value
        for g, w in zip(policy_forward(row, state), oracles.dense_forward(state.weights, row[None, :])):
            np.testing.assert_allclose(g, w[0], rtol=1e-12, atol=1e-14)
    # an all-zero observation reads no row of w1: the biases alone, exactly
    zero = np.zeros(state.cfg.obs_dim)
    for g, w in zip(policy_forward(zero, state), oracles.dense_forward(state.weights, zero[None, :])):
        np.testing.assert_array_equal(g, w[0])
    _, _, value = sample_action(state, nonzero_entries(zero), generator(5, "draw"))
    assert value == oracles.dense_forward(state.weights, zero[None, :])[2][0]


def test_ppo_update_matches_dense_oracle_on_attack_observations(attack_rollout):
    # chained updates: the compact first layer against the dense reference,
    # within a tolerance set by the few-ulp reordering of each sum; rows
    # outside the live set keep every bit of w1 and of both moments
    state, _, traj, dense, _ = attack_rollout
    want = state
    for it in range(2):
        before = state
        state, stats = ppo_update(traj, state, update_seed=it)
        want, want_stats = oracles.ppo_update_reference(traj, want, update_seed=it)
        got, full = oracles.with_dense_moments(state), oracles.with_dense_moments(want)
        assert got.adam_step == full.adam_step
        for name in ("weights", "adam_m", "adam_v"):
            for key in WEIGHT_KEYS:
                np.testing.assert_allclose(getattr(got, name)[key], getattr(full, name)[key],
                                           rtol=1e-9, atol=1e-14, err_msg=f"{name}[{key}]")
        for key in ("loss", "kl", "adv_std"):
            assert stats[key] == pytest.approx(want_stats[key], rel=1e-9, abs=1e-14)
        before = oracles.with_dense_moments(before)
        dead = ~dense.any(axis=0)
        dead &= ~before.adam_m["w1"].view(np.int64).any(axis=1)
        dead &= ~before.adam_v["w1"].view(np.int64).any(axis=1)
        assert dead.sum() > 9000
        for name in ("weights", "adam_m", "adam_v"):
            assert_same_bits(getattr(got, name)["w1"][dead], getattr(before, name)["w1"][dead])


@pytest.mark.parametrize("max_grad_norm", [0.0, 0.05, 1e3])
def test_ppo_update_on_index_observations_matches_dense_reference(max_grad_norm):
    # observations built as AttackEnv builds them, a summary head with one
    # zero entry and then in_dim + the previous record's indices, straight
    # into a trajectory, over chained updates: what no update reads keeps
    # its bits, and every other bit matches the dense reference, a binding
    # norm clip included (its w1 term is summed over the stepped rows).
    in_dim, obs_dim, t_len = 6, 64, 30
    state = agent_for_test(obs_dim=obs_dim, entropy_coef=0.01, value_coef=0.5,
                           max_grad_norm=max_grad_norm, minibatch_size=7)
    negative_zero = in_dim + 50  # never observed; the dense step may flip its -0.0 moments to +0.0
    state = oracles.with_dense_moments(state)
    state.adam_m["w1"][negative_zero] = -0.0
    state = oracles.with_compact_moments(state)
    head = generator(83, "head").standard_normal(in_dim)
    head[2] = 0.0
    head_columns = np.flatnonzero(head)
    once = 45  # an index in the first update's records only
    pools = [np.r_[10:30, once], np.r_[12:36], np.r_[20:44]]
    init_w1 = state.weights["w1"].copy()
    want = state
    for it, pool in enumerate(pools):
        rng = generator(89, "index-obs", it)
        observations = [(head_columns, head[head_columns])]
        for t in range(1, t_len):
            u = np.sort(rng.choice(pool, size=8, replace=False))
            observations.append((np.r_[head_columns, in_dim + u], np.r_[head[head_columns], np.ones(u.size)]))
        traj = Trajectory.from_observations(observations, *ppo_arrays(97 + it, t_len, obs_dim)[1:])
        assert (in_dim + once in traj.columns) == (it == 0)
        state, stats = ppo_update(traj, state, update_seed=it)
        want, want_stats = oracles.ppo_update_reference(traj, want, update_seed=it)
        assert_same_state(state, want)
        assert stats == want_stats
    untouched = np.r_[2, in_dim + 44: obs_dim]
    untouched = untouched[(untouched != negative_zero) & (untouched != in_dim + once)]
    assert_same_bits(state.weights["w1"][untouched], init_w1[untouched])
    dense = oracles.with_dense_moments(state)
    for moments in (dense.adam_m["w1"], dense.adam_v["w1"]):
        assert_same_bits(moments[untouched], np.zeros_like(moments[untouched]))


# -- observation and checkpoints --------------------------------------------

def test_build_observation_concat():
    obs = oracles.build_observation(np.array([1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(obs, [1.0, 2.0, 0.0, 1.0, 0.0])


def test_checkpoint_roundtrip(tmp_path):
    state = agent_for_test()
    path = tmp_path / "agent.ckpt"
    digest = bytes(range(32))
    save_checkpoint(path, state, digest)
    weights, stored = load_checkpoint(path, state.cfg)
    assert stored == digest
    for key in WEIGHT_KEYS:
        np.testing.assert_allclose(weights[key], state.weights[key], atol=1e-6)
        assert weights[key].shape == state.weights[key].shape


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"nope")
    with pytest.raises(ValueError):
        load_checkpoint(path, agent_for_test().cfg)
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.ckpt", agent_for_test(), b"short")
