"""Seeded input generators for the benchmark workloads.

Both generators run before any timed phase and check their own output,
so a workload never measures a malformed input.

replay_pool: a pool of "learned-like" round records for replay-cyclic.
The shape follows what the default config's PPO attacker actually emits.
The final episode of a 5-iteration `train` run (default config, seed 1)
measures, per record: union 299.7 indices in 141.2 runs, 0.675 of each
record repeated in the next; 94.7 of the indices sit in w1 (almost all
singletons, confined to ~14 hidden columns), 0.5 in b1, 201.6 in w2 (in
46.9 runs) and 2.9 in b2.  Replaying those 100 records twice on the
default layout gives 142k events and 21.7k ACTs.  Seeds 2 and 3 give
322 / 0.59 / 191 and 300 / 0.59 / 149 for union / overlap / runs, so
the calibration targets carry a tolerance.

hammer_trace: an engine-only trace for hammer-trr.  Bank X hammers a
double-sided pair behind four decoy rows that TRR always ranks above the
pair; bank Y hammers an undecoyed pair that TRR tracks.  Both are paced
under tRC over whole refresh windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from hammersim.dram import DramConfig, ThresholdTable
from hammersim.memlayout import DramMapping, dram_to_physical, physical_to_dram

# replay-cyclic calibration targets and the tolerance the pool must meet
POOL_SIZE = 100
TARGET_UNION = 300
TARGET_OVERLAP = 0.67
TARGET_RUNS = 140
UNION_TOL = 0.10  # relative
OVERLAP_TOL = 0.05  # absolute
RUNS_TOL = 0.15  # relative

# learned-like record model (per layer of the in x hidden x out MLP)
W1_MEAN, W1_STD, W1_KEEP, W1_COLUMNS, W1_COLUMN_DRIFT = 95, 30, 0.30, 14, 0.2
W2_MEAN, W2_STD, W2_KEEP, W2_GROW = 202, 15, 0.66, 0.7
B1_PROB, B2_FULL_PROB = 0.5, 0.9

# hammer-trr pacing: host-side ACT spacing per bank, in ns
HAMMER_WINDOWS = 2
DECOYED_SPACING_NS = 120
PROTECTED_SPACING_NS = 360
DECOYS = 4


class InputError(ValueError):
    """A generated input failed its own calibration or pacing check."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _runs(indices: np.ndarray) -> int:
    return int(np.count_nonzero(np.diff(indices) != 1)) + 1 if indices.size else 0


def replay_pool(seed: int, in_dim: int, hidden_dim: int, out_dim: int) -> list[np.ndarray]:
    """POOL_SIZE sorted index arrays, consecutive ones overlapping.

    w1 entries are singletons drawn from a slowly drifting set of hidden
    columns; w2 entries grow next to existing ones, which gives the
    multi-element runs the learned traces show.
    """
    rng = _rng(seed, 1)
    n_w1 = in_dim * hidden_dim
    n_w2 = hidden_dim * out_dim
    off_b1, off_w2 = n_w1, n_w1 + hidden_dim
    off_b2 = off_w2 + n_w2
    cols = rng.choice(hidden_dim, W1_COLUMNS, replace=False).tolist()
    # per-record sizes vary, but each pool's mean is pinned to the target
    # so that the work per pass hardly depends on the seed
    sizes = []
    for mean, std, hi in ((W1_MEAN, W1_STD, n_w1 // 2), (W2_MEAN, W2_STD, n_w2)):
        draw = rng.normal(mean, std, POOL_SIZE)
        sizes.append(np.clip(np.round(draw - draw.mean() + mean), 1, hi).astype(int).tolist())
    s1: set[int] = set()
    s2: set[int] = set()
    pool = []
    for n1, n2 in zip(*sizes):
        cols = [int(rng.integers(hidden_dim)) if rng.random() < W1_COLUMN_DRIFT else c for c in cols]
        s1 = {i for i in sorted(s1) if rng.random() < W1_KEEP}
        while len(s1) < n1:
            s1.add(int(rng.integers(in_dim)) * hidden_dim + cols[int(rng.integers(len(cols)))])
        s2 = {i for i in sorted(s2) if rng.random() < W2_KEEP}
        while len(s2) < n2:
            if s2 and rng.random() < W2_GROW:
                members = sorted(s2)
                cand = members[int(rng.integers(len(members)))] + (1 if rng.random() < 0.5 else -1)
                if 0 <= cand < n_w2:
                    s2.add(cand)
            else:
                s2.add(int(rng.integers(n_w2)))
        b1 = [off_b1 + int(rng.integers(hidden_dim))] if rng.random() < B1_PROB else []
        if rng.random() < B2_FULL_PROB:
            b2 = list(range(out_dim))
        else:
            b2 = sorted(rng.choice(out_dim, out_dim - 1, replace=False).tolist())
        pool.append(np.array(
            sorted(s1) + b1 + [off_w2 + i for i in sorted(s2)] + [off_b2 + i for i in b2],
            dtype=np.int64,
        ))
    return pool


def pool_stats(pool: list[np.ndarray]) -> dict[str, float]:
    """Mean union size, runs per record and overlap with the previous record."""
    overlaps = [np.intersect1d(a, b).size / a.size for a, b in zip(pool, pool[1:])]
    return {
        "union": float(np.mean([p.size for p in pool])),
        "runs": float(np.mean([_runs(p) for p in pool])),
        "overlap": float(np.mean(overlaps)),
        "distinct": len({p.tobytes() for p in pool}),
    }


def check_pool(pool: list[np.ndarray], total_params: int) -> dict[str, float]:
    """Raise InputError unless the pool meets the calibration tolerance."""
    stats = pool_stats(pool)
    problems = []
    if not all(p.size and p[0] >= 0 and p[-1] < total_params and np.all(np.diff(p) > 0) for p in pool):
        problems.append("records must be sorted, unique and inside the model")
    if stats["distinct"] != len(pool):
        problems.append(f"{stats['distinct']} distinct records of {len(pool)}")
    if abs(stats["union"] / TARGET_UNION - 1) > UNION_TOL:
        problems.append(f"union {stats['union']:.1f} not within {UNION_TOL:.0%} of {TARGET_UNION}")
    if abs(stats["overlap"] - TARGET_OVERLAP) > OVERLAP_TOL:
        problems.append(f"overlap {stats['overlap']:.3f} not within {OVERLAP_TOL} of {TARGET_OVERLAP}")
    if abs(stats["runs"] / TARGET_RUNS - 1) > RUNS_TOL:
        problems.append(f"runs {stats['runs']:.1f} not within {RUNS_TOL:.0%} of {TARGET_RUNS}")
    if problems:
        raise InputError("replay pool: " + "; ".join(problems))
    return stats


@dataclass
class HammerInput:
    time_ns: np.ndarray  # non-decreasing
    paddr: np.ndarray
    decoyed_bank: int
    decoyed_victim: int
    protected_bank: int
    protected_victim: int
    rows: dict[str, list[int]]  # "decoyed": decoys then the pair; "protected": the pair

    def events(self, chunk: int = 1 << 16) -> list[tuple[int, int, str, int]]:
        """The trace as plain 4-tuples in AccessEvent field order.

        Built in chunks, and each address object is shared by every event
        on its row, so the list is the only large allocation.
        """
        addr_objs = {a: a for a in np.unique(self.paddr).tolist()}
        out = []
        for lo in range(0, self.time_ns.size, chunk):
            addrs = [addr_objs[a] for a in self.paddr[lo:lo + chunk].tolist()]
            out.extend(zip(self.time_ns[lo:lo + chunk].tolist(), addrs, repeat("R"), repeat(64)))
        return out


def _pick_victim(rng: np.random.Generator, bank: int, rows: int, vulnerable: np.ndarray) -> int:
    """A vulnerable row with room for the pair and the decoys around it."""
    for _ in range(1000):
        v = int(rng.integers(64, rows - 64))
        if vulnerable[bank * rows + v]:
            return v
    raise InputError(f"no vulnerable victim row found in bank {bank}")


def hammer_trace(seed: int, mapping: DramMapping, cfg: DramConfig, vulnerable: np.ndarray) -> HammerInput:
    """Two-bank hammering trace over HAMMER_WINDOWS aligned refresh windows.

    Bank X, per window: the four decoys once, then whole cycles of
    (decoys, aggressor low, aggressor high), so every decoy stays strictly
    ahead of both aggressors in the window's ACT count at every REF tick
    and a capacity-4 TRR sampler never picks the pair.  Bank Y alternates
    its pair with no decoys.  The ACT count does not depend on the seed;
    the seed picks banks, victims and decoy rows.
    """
    rng = _rng(seed, 2)
    rows = mapping.rows_per_bank
    bank_x, bank_y = (int(b) for b in rng.choice(mapping.bank_count, 2, replace=False))
    vx = _pick_victim(rng, bank_x, rows, vulnerable)
    vy = _pick_victim(rng, bank_y, rows, vulnerable)
    # decoys 8..48 rows above the pair, at least 3 apart, so neither the
    # victim nor its aggressors neighbour a decoy
    offsets = np.sort(rng.choice(np.arange(8, 48, 3), DECOYS, replace=False))
    decoys = [vx + int(o) for o in offsets]
    x_rows = decoys + [vx - 1, vx + 1]
    y_rows = [vy - 1, vy + 1]
    x_addr = np.array([dram_to_physical(bank_x, r, 0, mapping) for r in x_rows], dtype=np.int64)
    y_addr = np.array([dram_to_physical(bank_y, r, 0, mapping) for r in y_rows], dtype=np.int64)

    window_ns = int(cfg.window_ns)
    cycles = (window_ns // DECOYED_SPACING_NS - DECOYS) // (DECOYS + 2)
    x_seq = np.concatenate([np.arange(DECOYS), np.tile(np.arange(DECOYS + 2), cycles)])
    n_y = (window_ns - PROTECTED_SPACING_NS // 2 - 1) // PROTECTED_SPACING_NS + 1
    n_y -= n_y % 2
    y_seq = np.tile([0, 1], n_y // 2)
    times, addrs = [], []
    for w in range(HAMMER_WINDOWS):
        base = w * window_ns
        times.append(base + np.arange(x_seq.size, dtype=np.int64) * DECOYED_SPACING_NS)
        addrs.append(x_addr[x_seq])
        times.append(base + PROTECTED_SPACING_NS // 2 + np.arange(n_y, dtype=np.int64) * PROTECTED_SPACING_NS)
        addrs.append(y_addr[y_seq])
    t = np.concatenate(times)
    order = np.argsort(t, kind="stable")
    return HammerInput(t[order], np.concatenate(addrs)[order], bank_x, vx, bank_y, vy,
                       {"decoyed": x_rows, "protected": y_rows})


def check_hammer(inp: HammerInput, mapping: DramMapping, cfg: DramConfig,
                 thresholds: ThresholdTable, fill: int) -> None:
    """Raise InputError unless the trace is paced under tRC and hammers hard enough.

    Checks per bank: spacing of consecutive ACTs >= tRC, ACTs per aligned
    window <= act_cap, and each aggressor reaching half the double-sided
    threshold within every window (so the pair would flip without TRR).
    In the decoyed bank, once an aggressor has an ACT in a window, every
    decoy must have more.
    """
    t = inp.time_ns
    addrs, which = np.unique(inp.paddr, return_inverse=True)
    located = np.array([physical_to_dram(int(a), mapping)[:2] for a in addrs], dtype=np.int32)
    bank, row = located[which, 0], located[which, 1]
    del which
    window = (t // int(cfg.window_ns)).astype(np.int32)
    half_double = thresholds.nearest_class(fill, fill).double / 2
    problems = []
    if np.any(np.diff(t) < 0):
        problems.append("time goes backwards")
    for role, b, victim in (("decoyed", inp.decoyed_bank, inp.decoyed_victim),
                            ("protected", inp.protected_bank, inp.protected_victim)):
        sel = bank == b
        tb, rb, wb = t[sel], row[sel], window[sel]
        if np.any(rb[1:] == rb[:-1]):
            problems.append(f"{role} bank repeats a row back to back (not an ACT)")
        if tb.size > 1 and np.diff(tb).min() < cfg.trc_effective_s * 1e9:
            problems.append(f"{role} bank ACTs closer than tRC")
        for w in np.unique(wb):
            rw = rb[wb == w]
            if rw.size > cfg.act_cap:
                problems.append(f"{role} bank window {w}: {rw.size} ACTs > act_cap {cfg.act_cap}")
            for agg in (victim - 1, victim + 1):
                if np.count_nonzero(rw == agg) < half_double:
                    problems.append(f"{role} bank window {w}: aggressor {agg} below half the double threshold")
            if role == "decoyed":
                lead = None
                for d in inp.rows["decoyed"][:DECOYS]:
                    cd = np.cumsum(rw == d)
                    lead = cd if lead is None else np.minimum(lead, cd)
                top = np.maximum(np.cumsum(rw == victim - 1), np.cumsum(rw == victim + 1))
                if np.any((top > 0) & (lead <= top)):
                    problems.append(f"decoyed bank window {w}: a decoy does not lead the pair")
    if problems:
        raise InputError("hammer trace: " + "; ".join(problems))
