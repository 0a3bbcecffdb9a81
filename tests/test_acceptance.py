"""End-to-end acceptance checks for the shipped golden numbers and invariants.

One test per acceptance item.  Each prints a single ``criterion NN:
PASS/FAIL`` line with the measured values (visible under ``pytest -s``)
before asserting, so a full run reads as a checklist.  The heavyweight
items are the trained-vs-random comparison (three seeds, a few minutes)
and the thousand-trace engine/oracle cross-check.
"""
import itertools
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest

from hammersim import metrics
from hammersim.adversary import (
    WEIGHT_KEYS,
    PolicyConfig,
    compute_emd,
    gaussian_log_prob,
    init_policy,
    ppo_loss_and_grads,
)
from hammersim.cli import main as cli_main
from hammersim.config import load_config
from hammersim.dram import (
    DramConfig,
    RowContents,
    ThresholdEntry,
    ThresholdTable,
    TrrConfig,
    VulnerabilityMap,
    builtin_thresholds,
    simulate_trace,
)
from hammersim.federation import LayerSpec, ModelSpec, RoundRecord
from hammersim.memlayout import (
    DramMapping,
    build_layout,
    dram_to_physical,
    physical_to_dram,
)
from hammersim.metrics import BandwidthModel, to_kilo
from hammersim.replay import replay_records
from hammersim.report import GOLDEN_FEASIBILITY
from hammersim.seeding import generator
from hammersim.training import train

import oracles
from oracles import AccessEvent


def emit(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def golden_rows():
    rows = metrics.feasibility_rows(BandwidthModel(), builtin_thresholds())
    return {(r.model, r.sparsity): r for r in rows}


# -- feasibility arithmetic -------------------------------------------------

def test_criterion_01_activation_budget_table():
    start = time.monotonic()
    rows = golden_rows()
    elapsed = time.monotonic() - start
    bad = []
    for model, sparsity, hmax_k, _, _ in GOLDEN_FEASIBILITY:
        row = rows[(model, sparsity)]
        if to_kilo(row.hmax) != hmax_k:
            bad.append(f"{model}@{sparsity}: {to_kilo(row.hmax)}K != {hmax_k}K")
        if row.hmax > DramConfig().act_cap:
            bad.append(f"{model}@{sparsity}: H_max {row.hmax} exceeds the ACT budget {DramConfig().act_cap}")
    ok = not bad and len(rows) == 8 and elapsed < 1.0
    emit(1, ok, bad or f"8/8 per-window budgets exact in {elapsed * 1e3:.1f}ms")


def test_criterion_02_expected_activation_table():
    start = time.monotonic()
    rows = golden_rows()
    elapsed = time.monotonic() - start
    got, bad = [], []
    for model, sparsity, _, eact_k, _ in GOLDEN_FEASIBILITY:
        row = rows[(model, sparsity)]
        got.append(to_kilo(row.e_act))
        if abs(to_kilo(row.e_act) - eact_k) > 1:
            bad.append(f"{model}@{sparsity}: {to_kilo(row.e_act)}K vs {eact_k}K")
    ok = not bad and elapsed < 1.0
    emit(2, ok, bad or f"E[A] kilocounts {got} all within 1K in {elapsed * 1e3:.1f}ms")


def test_criterion_03_feasibility_verdicts():
    rows = golden_rows()
    bad = []
    for model, sparsity, _, _, verdict in GOLDEN_FEASIBILITY:
        if rows[(model, sparsity)].verdict != verdict:
            bad.append(f"{model}@{sparsity}: {rows[(model, sparsity)].verdict!r}")

    feasible_01 = sorted(m for (m, s), r in rows.items()
                         if s == "0.001" and r.verdict == "feasible")
    feasible_005 = sorted(m for (m, s), r in rows.items()
                          if s == "0.0005" and r.verdict == "feasible")
    if feasible_01 != ["MobileNetV3-Small"]:
        bad.append(f"feasible at 0.1%: {feasible_01}")
    if feasible_005 != ["Conformer-CTC-S", "MobileNetV3-Small", "Squeezeformer-XS"]:
        bad.append(f"feasible at 0.05%: {feasible_005}")
    if rows[("QuartzNet-5x5", "0.0005")].verdict != "marginal":
        bad.append("QuartzNet-5x5 at 0.05% not marginal")

    # the calls above use the published average threshold; the verdicts
    # must not change when the mean is recomputed from the table itself
    table = builtin_thresholds()
    computed_mean = int(round(table.mean_single()))
    for key, row in rows.items():
        alt = metrics.feasibility_verdict(row.e_act, table.min_single(), computed_mean)
        if alt != row.verdict:
            bad.append(f"{key}: published-vs-computed mean disagree ({row.verdict}/{alt})")
    emit(3, not bad, bad or "verdict classes exact for all 8 rows, both mean conventions")


# -- flip threshold boundaries ---------------------------------------------

FULL = DramMapping()
VICTIM = 6000
DUMMY_ROW = 3000


def only_victim_vulnerable(mapping, bank, row):
    n = mapping.bank_count * mapping.rows_per_bank
    vuln = np.zeros(n, dtype=bool)
    vuln[bank * mapping.rows_per_bank + row] = True
    return VulnerabilityMap(vuln, np.ones(n))


def alternating_acts(seq, step_ns=49):
    """Round-robin single activations over (row, count) pairs in bank 0."""
    rows = [r for r, _ in seq]
    paddr = {r: dram_to_physical(0, r, 0, FULL) for r in rows}
    remaining = dict(seq)
    t = 0
    while any(remaining.values()):
        for r in rows:
            if remaining[r] > 0:
                yield (t, paddr[r], "R", 8)
                remaining[r] -= 1
                t += step_ns


def boundary_flips(entry, mode, count):
    if mode == "single":
        # hammer the high neighbor only; the far dummy row breaks the
        # open-row state so every aggressor touch costs an activation
        seq = [(VICTIM + 1, count), (DUMMY_ROW, count - 1)]
    else:
        half = count // 2
        seq = [(VICTIM - 1, half), (VICTIM + 1, count - half)]
    # the module holds one fill, so each cell runs alone in its table
    res = simulate_trace(
        alternating_acts(seq),
        DramConfig(),
        FULL,
        ThresholdTable([entry]),
        TrrConfig(capacity=0),
        only_victim_vulnerable(FULL, 0, VICTIM),
        RowContents(entry.victim_fill),
    )
    return res.flips


def test_criterion_04_threshold_boundary_flips():
    bad = []
    cells = 0
    for entry in builtin_thresholds().entries:
        for mode, threshold in (("single", entry.single), ("double", entry.double)):
            cells += 1
            cell = f"{entry.victim_fill:02x}/{entry.aggressor_fill:02x} {mode}"
            at = boundary_flips(entry, mode, threshold)
            if not (len(at) == 1 and at[0].row == VICTIM and at[0].mode == mode
                    and at[0].effective_count == threshold
                    and at[0].threshold == float(threshold)):
                bad.append(f"{cell}: no clean flip at {threshold} ({at})")
            below = boundary_flips(entry, mode, threshold - 1)
            if below:
                bad.append(f"{cell}: flipped below threshold at {threshold - 1}")
    emit(4, not bad and cells == 8, bad or "8/8 pattern cells flip at T and hold at T-1")


# -- engine vs recount oracle ----------------------------------------------

TOY = DramMapping(bank_count=4, rows_per_bank=64, row_size_bytes=1024, bank_xor=False)
TOY_CFG = DramConfig(refresh_period_s=0.064, ref_commands=8, trc_effective_s=49e-9)


def toy_event(t, bank, row, size=8, kind="R"):
    return AccessEvent(t, dram_to_physical(bank, row, 0, TOY), kind, size)


def random_toy_trace(rng, n_events=300, t_span=40_000_000):
    events = []
    t = 0
    for _ in range(n_events):
        t += int(rng.integers(1, t_span // n_events))
        paddr = dram_to_physical(int(rng.integers(0, TOY.bank_count)),
                                 int(rng.integers(0, TOY.rows_per_bank)), 0, TOY)
        paddr += int(rng.integers(0, TOY.row_size_bytes))
        size = min(int(rng.integers(1, 3000)), TOY.capacity_bytes - paddr)
        events.append(AccessEvent(t, paddr, "R" if rng.random() < 0.7 else "W", size))
    return events


def test_criterion_05_engine_vs_recount_oracle():
    start = time.monotonic()
    rng = generator(5, "acceptance-dram")
    table = ThresholdTable([ThresholdEntry(0x00, 0x00, 12, 8)])
    bad = []
    total_flips = 0
    for case in range(1000):
        trr = TrrConfig(capacity=2) if case % 2 else TrrConfig(capacity=0)
        vmap = VulnerabilityMap.from_seed(TOY, case, probability=0.8,
                                          multiplier_low=1.0, multiplier_high=1.5)
        events = random_toy_trace(rng)
        res = simulate_trace(events, TOY_CFG, TOY, table, trr,
                             vmap, RowContents())
        w_rows, w_banks, flips, total = oracles.oracle_simulate(
            events, TOY_CFG, TOY, table, trr, vmap, RowContents())
        got = sorted((f.time_ns, f.bank, f.row, f.mode, f.effective_count, f.threshold)
                     for f in res.flips)
        windows_ok = (len(res.windows) == len(w_rows)
                      and all(w.row_acts == rows and w.bank_acts == banks
                              for w, rows, banks in zip(res.windows, w_rows, w_banks)))
        if got != flips or res.total_acts != total or not windows_ok:
            bad.append(f"case {case}: engine and recount disagree")
        total_flips += len(flips)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    emit(5, ok, bad[:3] or f"1000 traces, {total_flips} flips, all identical in {elapsed:.1f}s")


# -- TRR sampler bypass ----------------------------------------------------

def test_criterion_06_trr_sampler_bypass():
    table = ThresholdTable([ThresholdEntry(0x00, 0x00, 12, 8)])
    trefi = 8_000_000  # TOY_CFG tick spacing in ns

    aggressors = []
    for k in range(6):
        t = k * trefi // 3
        aggressors.append(toy_event(t, 0, 39))
        aggressors.append(toy_event(t + 100_000, 0, 41))

    # eight decoy rows, each hotter than either aggressor at every tick,
    # so a capacity-4 sampler only ever tracks decoys
    decoys = [
        toy_event(50_000 + j * 1_900_000 + i * 3_000, 0, row)
        for i, row in enumerate((2, 5, 8, 11, 14, 17, 20, 23))
        for j in range(8)
    ]

    def run(events):
        return simulate_trace(sorted(events), TOY_CFG, TOY, table,
                              TrrConfig(capacity=4),
                              oracles.all_vulnerable(TOY), RowContents())

    protected = run(aggressors)
    bypassed = run(aggressors + decoys)
    repeat = run(aggressors + decoys)

    summary = [(f.bank, f.row, f.mode, f.effective_count, f.time_ns) for f in bypassed.flips]
    ok = (protected.flips == []
          and summary == [(0, 40, "double", 8, 8_100_000)]
          and repeat.flips == bypassed.flips)
    emit(6, ok, f"tracked-only run flips={len(protected.flips)}, "
                f"with 8 decoys flips={summary}")


# -- targeting metrics -----------------------------------------------------

def emd_by_matching(u, v, total):
    """Mean moved distance under the best of all point-to-point matchings."""
    a, b = sorted(u), sorted(v)
    best = min(sum(abs(x - y) for x, y in zip(a, perm))
               for perm in itertools.permutations(b))
    return best / len(a) / total


def emd_by_transport(u, v, total):
    """Exact-fraction minimum-cost transport between the two uniform sets."""
    a, b = sorted(u), sorted(v)
    supply, demand = Fraction(1, len(a)), Fraction(1, len(b))
    cost = Fraction(0)
    i = j = 0
    need_a, need_b = supply, demand
    while i < len(a) and j < len(b):
        move = min(need_a, need_b)
        cost += move * abs(a[i] - b[j])
        need_a -= move
        need_b -= move
        if need_a == 0:
            i, need_a = i + 1, supply
        if need_b == 0:
            j, need_b = j + 1, demand
    return float(cost / total)


def test_criterion_07_metric_hand_values_and_oracles():
    bad = []

    if metrics.compute_rur([{1, 2, 3}, {2, 3, 4}]) != 2 / 3:
        bad.append("rur overlap-of-two")
    if metrics.compute_rur([{5, 6}, {5, 6}, {5, 6}]) != 1.0:
        bad.append("rur identical")
    if metrics.compute_rur([{1}, {2}, {3}]) != 0.0:
        bad.append("rur disjoint")

    if metrics.compute_cd([7], 100) != 1 / 100:
        bad.append("cd singleton")
    if metrics.compute_cd(range(10), 100) != 9 / 100:
        bad.append("cd contiguous block")
    if metrics.compute_cd(range(0, 100, 11), 100) != 89 / 100:
        bad.append("cd spread block")

    if compute_emd({3, 9}, {3, 9}, 50) != 0.0:
        bad.append("emd identical")
    if abs(compute_emd({10}, {20}, 100) - 0.1) > 1e-12:
        bad.append("emd singleton shift")
    if abs(compute_emd({0, 100}, {40, 60}, 200) - 0.2) > 1e-12:
        bad.append("emd pair shift")

    rng = generator(7, "acceptance-metrics")
    for k in range(1, 13):
        for _ in range(8):
            idx = sorted(int(i) for i in rng.choice(500, size=k, replace=False))
            if metrics.compute_cd(idx, 500) != pytest.approx(
                    oracles.cd_reference(idx, 500), abs=1e-12):
                bad.append(f"cd oracle k={k}: {idx}")

    checked_matchings = 0
    for _ in range(60):
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        u = [int(i) for i in rng.choice(240, size=na, replace=False)]
        v = [int(i) for i in rng.choice(240, size=nb, replace=False)]
        got = compute_emd(u, v, 240)
        if abs(got - emd_by_transport(u, v, 240)) > 1e-9:
            bad.append(f"emd transport: {u} vs {v}")
        if na == nb:
            checked_matchings += 1
            if abs(got - emd_by_matching(u, v, 240)) > 1e-9:
                bad.append(f"emd matching: {u} vs {v}")

    ok = not bad and checked_matchings > 0
    emit(7, ok, bad[:3] or "hand values exact; cd/emd agree with exhaustive oracles")


# -- analytic policy gradients ---------------------------------------------

def fd_inputs(state, batch, seed):
    rng = generator(seed, "acceptance-fd")
    cfg = state.cfg
    obs = rng.standard_normal((batch, cfg.obs_dim))
    mean, log_std, _, _ = oracles.dense_forward(state.weights, obs)
    actions = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    old_logp = gaussian_log_prob(actions, mean, log_std) + 0.1 * rng.standard_normal(batch)
    return obs, actions, old_logp, rng.standard_normal(batch), rng.standard_normal(batch)


def test_criterion_08_gradients_match_finite_differences():
    eps = 1e-6
    bad = []
    worst = 0.0
    n_coords = 0
    for dims, init_seed, input_seed in (((5, 3, 7, 6), 11, 29), ((4, 2, 6, 5), 13, 31)):
        obs_dim, action_dim, h1, h2 = dims
        cfg = PolicyConfig(obs_dim=obs_dim, action_dim=action_dim, hidden1=h1, hidden2=h2)
        state = init_policy(cfg, seed=init_seed)
        args = fd_inputs(state, 12, input_seed)
        _, _, grads = ppo_loss_and_grads(state.weights, cfg, *args)
        for key in WEIGHT_KEYS:
            flat = state.weights[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = oracles.ppo_loss(state.weights, cfg, *args)
                flat[i] = orig - eps
                down = oracles.ppo_loss(state.weights, cfg, *args)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                got = grads[key].ravel()[i]
                n_coords += 1
                worst = max(worst, abs(got - fd) / max(abs(fd), 1e-7))
                if got != pytest.approx(fd, rel=1e-4, abs=1e-7):
                    bad.append(f"{dims} {key}[{i}]: {got} vs {fd}")
    emit(8, not bad, bad[:3] or f"{n_coords} coordinates, worst relative error {worst:.2e}")


# -- learned attack vs random baseline -------------------------------------

def test_criterion_09_learned_attack_vs_random():
    start = time.monotonic()
    bad = []
    details = []
    for seed in (101, 202, 303):
        exp = load_config(None)
        learned = train(exp, seed=seed)
        rand = train(exp, baseline="random", seed=seed)
        l_rur = learned.final_fraction_rur(0.1)
        r_rur = rand.final_fraction_rur(0.1)
        first = learned.mean_reward_slice(0.0, 0.1)
        last = learned.mean_reward_slice(0.9, 1.0)
        details.append(f"seed {seed}: rur {l_rur:.3f} vs {r_rur:.3f}, "
                       f"reward {first:+.3f}->{last:+.3f}")
        if l_rur < 1.5 * r_rur:
            bad.append(f"seed {seed}: final rur {l_rur:.3f} < 1.5 x {r_rur:.3f}")
        if last <= first:
            bad.append(f"seed {seed}: reward did not improve ({first:.3f} -> {last:.3f})")
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 600.0
    emit(9, ok, bad or f"{'; '.join(details)}; {elapsed:.0f}s")


# -- full-rate replay and command determinism ------------------------------

def run_all_commands(root, monkeypatch):
    cfg_path = root / "exp.ini"
    cfg_path.write_text(textwrap.dedent("""\
        [run]
        seed = 9
        iterations = 2
        rounds_per_episode = 12

        [federation]
        in_dim = 24
        hidden_dim = 10
        shard_size = 6

        [adversary]
        stft_frame = 16
        stft_hop = 8
        warmup_rounds = 5
        """), encoding="ascii")
    cfg = str(cfg_path)
    assert cli_main(["train", "--config", cfg, "--out", str(root / "t")]) == 0
    monkeypatch.chdir(root / "t")  # simulate resolves the records file from here
    assert cli_main(["simulate", "--config", cfg, "--out", str(root / "s")]) == 0
    assert cli_main(["feasibility", "--config", cfg, "--out", str(root / "f")]) == 0
    assert cli_main(["report", "--config", cfg, "--out", str(root)]) == 0


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timing.txt"}


def test_criterion_10_replay_budget_and_cli_determinism(tmp_path, monkeypatch, capsys):
    # a saturating sender: every round updates the same 2048 coordinates,
    # whose 8 KB payload lands in a single accumulator row of a one-bank
    # module, so that row should re-activate once per round
    spec = ModelSpec((LayerSpec("block", 20480),))
    mapping = DramMapping(bank_count=1, rows_per_bank=512, row_size_bytes=8192,
                          bank_xor=False)
    layout = build_layout(spec, None, mapping, seed=3)
    idx = np.arange(2048, dtype=np.int64)
    records = [RoundRecord(r, idx) for r in range(158_000)]
    summary = replay_records(
        records, layout, DramConfig(), BandwidthModel(), builtin_thresholds(),
        trr=TrrConfig(capacity=0),
        vmap=oracles.all_vulnerable(mapping),
        contents=RowContents(),
        sim_seed=3,
    )
    analytic = int(BandwidthModel().window_bytes("0.064") // 8192)
    bad = []
    if summary.h_max_analytic != analytic:
        bad.append(f"analytic budget {summary.h_max_analytic} != {analytic}")
    acc = layout.region("accumulator", 0)
    bank, row, _ = physical_to_dram(oracles.virtual_to_physical(layout, acc.virtual_start), mapping)
    acts = summary.result.windows[0].row_acts[(bank, row)]
    if abs(acts - analytic) > analytic / 100:
        bad.append(f"accumulator row saw {acts} activations vs budget {analytic}")

    roots = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        run_all_commands(root, monkeypatch)
        roots.append(root)
    capsys.readouterr()
    first, second = tree_bytes(roots[0]), tree_bytes(roots[1])
    if first.keys() != second.keys():
        bad.append(f"output file sets differ: {set(first) ^ set(second)}")
    else:
        diff = [name for name in first if first[name] != second[name]]
        if diff:
            bad.append(f"outputs differ between identical runs: {diff}")
    emit(10, not bad, bad or f"accumulator row {acts} acts vs budget {analytic}; "
                             f"{len(first)} output files byte-identical")
