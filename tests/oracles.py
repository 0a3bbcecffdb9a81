"""Independent reference implementations used to pin down the package.

Everything here recomputes results with a different algorithmic shape
than the production code: the DRAM recount works from sorted time lists
and bisect arithmetic, the incremental engine steps one event and one
ACT at a time where the package works on columns of events, the replay
trace walks one access op and one row piece at a time, the federated
round trains and sparsifies one client and one shard row at a time, the
index-set metrics work on frozensets, the distance metrics use
exhaustive grids and subset enumeration, and the spectrum uses the
direct transform sum.  Slow on purpose.

It also holds what only the tests use: events as tuples, the replay
stream as tuples, the attacker's observations as dense vectors, the PPO
loss on its own, the checkpoint reader and a map where every row is
vulnerable.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from hammersim.dram import (
    BitFlip,
    DramConfig,
    RowContents,
    SimulationResult,
    ThresholdTable,
    TraceRateError,
    TrrConfig,
    VulnerabilityMap,
    WindowSummary,
    _bit_positions,
)
from hammersim import replay
from hammersim.adversary import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LOG_2PI,
    LOG_STD_RANGE,
    WEIGHT_KEYS,
    AgentState,
    PolicyConfig,
    TargetWindow,
    Trajectory,
    compute_gae,
    gaussian_log_prob,
    ppo_loss_and_grads,
)
from hammersim.channel import ChannelConfig
from hammersim.federation import PARAM_BITS, FederationState, ModelSpec, RoundRecord
from hammersim.memlayout import (
    PAGE_BYTES,
    DramMapping,
    EventColumns,
    MemoryLayout,
    Region,
    physical_to_dram,
)
from hammersim.metrics import BandwidthModel
from hammersim.seeding import generator


# ---------------------------------------------------------------------------
# Test-only forms of package data
# ---------------------------------------------------------------------------

class AccessEvent(NamedTuple):
    """One physical access, in the tuple form dram.simulate_trace accepts."""

    time_ns: int
    paddr: int
    kind: str  # "R" | "W"
    size: int


def event_tuples(columns: EventColumns) -> list[tuple[int, int, int]]:
    """EventColumns as (time_ns, paddr, size) tuples, in trace order."""
    return list(zip(columns.time_ns.tolist(), columns.paddr.tolist(), columns.size.tolist()))


def iter_replay_events(layout: MemoryLayout, records, bw: BandwidthModel, metadata_bytes_per_entry: int = 0):
    """The replay stream that replay_records simulates, as (time_ns, paddr, size) tuples.

    Built a block of rounds at a time, as the package builds it.
    """
    cache = replay.ReplayCache(layout, records, metadata_bytes_per_entry)
    for columns in replay._event_blocks(layout, records, cache, bw, []):
        yield from event_tuples(columns)


def all_vulnerable(mapping: DramMapping) -> VulnerabilityMap:
    """Every row flips, at exactly its pattern's threshold."""
    n = mapping.bank_count * mapping.rows_per_bank
    return VulnerabilityMap(np.ones(n, dtype=bool), np.ones(n))


def dense_forward(weights, obs):
    """The policy's forward pass over every observation column:
    (mean, log_std, value, (obs, h1, h2)) as adversary._forward returns it."""
    h1 = np.tanh(obs @ weights["w1"] + weights["b1"])
    h2 = np.tanh(h1 @ weights["w2"] + weights["b2"])
    mean = h2 @ weights["wm"] + weights["bm"]
    log_std = np.clip(h2 @ weights["ws"] + weights["bs"], *LOG_STD_RANGE)
    value = (h2 @ weights["wv"] + weights["bv"])[:, 0]
    return mean, log_std, value, (obs, h1, h2)


def record_mask(record: RoundRecord, total_params: int) -> np.ndarray:
    """The record's indices as a 0/1 vector over the parameter space."""
    m = np.zeros(total_params, dtype=np.float64)
    m[record.indices] = 1.0
    return m


def build_observation(x_summary: np.ndarray, index_mask: np.ndarray) -> np.ndarray:
    """The attacker's dense observation: the clean-input summary, then the
    previous round's mask."""
    return np.concatenate([np.asarray(x_summary, dtype=np.float64).ravel(),
                           np.asarray(index_mask, dtype=np.float64).ravel()])


def nonzero_entries(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A dense observation as the (columns, values) of its nonzero entries."""
    columns = np.flatnonzero(obs)
    return columns, np.asarray(obs, dtype=np.float64)[columns]


def csr_trajectory(obs, actions, log_probs, rewards, values) -> Trajectory:
    """The trajectory of a dense (T, obs_dim) observation matrix."""
    return Trajectory.from_observations([nonzero_entries(o) for o in obs],
                                        actions, log_probs, rewards, values)


def dense_observations(trajectory: Trajectory, obs_dim: int) -> np.ndarray:
    """A trajectory's observations as a dense (T, obs_dim) matrix."""
    obs = np.zeros((trajectory.indptr.size - 1, obs_dim))
    for t in range(obs.shape[0]):
        lo, hi = trajectory.indptr[t], trajectory.indptr[t + 1]
        obs[t, trajectory.columns[lo:hi]] = trajectory.data[lo:hi]
    return obs


def policy_forward(obs: np.ndarray, state: AgentState) -> tuple[np.ndarray, np.ndarray, float]:
    """(action mean, action log-std, state value) of one dense observation,
    from the rows of w1 under its nonzero columns."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (state.cfg.obs_dim,):
        raise ValueError(f"obs shape {obs.shape} != ({state.cfg.obs_dim},)")
    nz = np.flatnonzero(obs)
    mean, log_std, value, _ = dense_forward(dict(state.weights, w1=state.weights["w1"][nz]), obs[None, nz])
    return mean[0], log_std[0], float(value[0])


def ppo_loss(weights, cfg: PolicyConfig, obs, actions, old_log_probs, advantages, returns) -> float:
    """Clipped-surrogate PPO objective (to minimize), without gradients."""
    mean, log_std, value, _ = dense_forward(weights, obs)
    logp = gaussian_log_prob(actions, mean, log_std)
    ratio = np.exp(logp - old_log_probs)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * advantages
    surrogate = np.minimum(surr1, surr2)
    entropy = np.sum(log_std, axis=-1) + 0.5 * actions.shape[1] * (1.0 + LOG_2PI)
    value_err = (value - returns) ** 2
    return float(np.mean(-surrogate - cfg.entropy_coef * entropy + cfg.value_coef * value_err))


def load_checkpoint(path, cfg: PolicyConfig) -> tuple[dict[str, np.ndarray], bytes]:
    """Weights dict (reshaped per cfg) and config hash of an adversary.save_checkpoint file."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    version = int.from_bytes(blob[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    config_hash = blob[8:40]
    count = int.from_bytes(blob[40:48], "little")
    flat = np.frombuffer(blob[48:], dtype="<f4")
    if flat.size != count:
        raise ValueError(f"checkpoint holds {flat.size} weights, header says {count}")
    shapes = {
        "w1": (cfg.obs_dim, cfg.hidden1),
        "b1": (cfg.hidden1,),
        "w2": (cfg.hidden1, cfg.hidden2),
        "b2": (cfg.hidden2,),
        "wm": (cfg.hidden2, cfg.action_dim),
        "bm": (cfg.action_dim,),
        "ws": (cfg.hidden2, cfg.action_dim),
        "bs": (cfg.action_dim,),
        "wv": (cfg.hidden2, 1),
        "bv": (1,),
    }
    expected = sum(int(np.prod(s)) for s in shapes.values())
    if count != expected:
        raise ValueError(f"checkpoint weight count {count} does not match config ({expected})")
    weights = {}
    cursor = 0
    for key in WEIGHT_KEYS:
        size = int(np.prod(shapes[key]))
        weights[key] = flat[cursor: cursor + size].astype(np.float64).reshape(shapes[key])
        cursor += size
    return weights, config_hash


# ---------------------------------------------------------------------------
# DRAM activation recount
# ---------------------------------------------------------------------------

def multiples_reference(t: np.ndarray, step: float, strict: bool = False) -> np.ndarray:
    """Per element, the number of k >= 1 with k * step <= t (< t if strict).

    Elementwise: floor(t / step), then one float-product correction each
    way, so any t in any order; the engine's dram._multiples locates the
    products in sorted times instead.
    """
    k = np.maximum(np.floor(t / step), 0).astype(np.int64)
    if strict:
        k -= (k > 0) & (k * step >= t)
        k += (k + 1) * step < t
    else:
        k -= (k > 0) & (k * step > t)
        k += (k + 1) * step <= t
    return k


def row_activations_reference(rows, banks, open_rows) -> tuple[list[bool], list[int]]:
    """Per access, in trace order, whether it opens its row, and each bank's
    open row afterwards: one access at a time, an open row per bank in a
    dict, -1 for none."""
    open_row = dict(enumerate(open_rows))
    opens = []
    for row, bank in zip(rows, banks):
        opens.append(open_row[bank] != row)
        open_row[bank] = row
    return opens, [open_row[b] for b in range(len(open_rows))]


def expand_acts(events, mapping: DramMapping) -> list[tuple[int, int, int]]:
    """(time, bank, row) of every activation, after open-row collapsing."""
    open_row = {}
    acts = []
    for time_ns, paddr, _kind, size in events:
        if size < 0:
            raise ValueError(f"event at {paddr:#x} has negative size {size}")
        addr = paddr
        remaining = size
        while remaining > 0:
            bank, row, col = physical_to_dram(addr, mapping)
            if open_row.get(bank) != row:
                open_row[bank] = row
                acts.append((time_ns, bank, row))
            take = min(remaining, mapping.row_size_bytes - col)
            addr += take
            remaining -= take
    return acts


def oracle_simulate(
    events,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig,
    vmap: VulnerabilityMap,
    contents: RowContents,
):
    """Recount windows and flips from scratch.

    Returns (window_rows, window_banks, flips, total_acts) where
    window_rows is a list of {(bank, row): acts} per aligned refresh
    window, window_banks a list of per-bank totals, and flips a sorted
    list of (time_ns, bank, row, mode, effective, threshold) tuples.
    """
    events = list(events)
    acts = expand_acts(events, mapping)
    total_acts = len(acts)
    t_last = events[-1][0] if events else 0
    window_ns = cfg.window_ns
    trefi = cfg.trefi_ns
    nr = mapping.rows_per_bank
    nb = mapping.bank_count
    rows_per_ref = max(1, nr // cfg.ref_commands)

    act_times = [a[0] for a in acts]
    by_row: dict[tuple[int, int], list[int]] = {}
    by_row_times: dict[tuple[int, int], list[int]] = {}
    for seq, (t, b, r) in enumerate(acts):
        by_row.setdefault((b, r), []).append(seq)
        by_row_times.setdefault((b, r), []).append(t)

    # -- window summaries ----------------------------------------------
    n_windows = int(t_last // window_ns) + 1
    window_rows: list[dict[tuple[int, int], int]] = [dict() for _ in range(n_windows)]
    window_banks: list[list[int]] = [[0] * nb for _ in range(n_windows)]
    for t, b, r in acts:
        w = int(t // window_ns)
        window_rows[w][(b, r)] = window_rows[w].get((b, r), 0) + 1
        window_banks[w][b] += 1

    # -- refresh schedule: round robin plus sampler-driven neighbors ----
    # A refresh at time T orders before every activation with time >= T;
    # its "position" is that index in the global activation sequence.
    n_ticks = int(t_last // trefi)
    base_refresh: dict[int, list[int]] = {}  # row -> positions (same in every bank)
    trr_refresh: dict[tuple[int, int], list[int]] = {}
    for k in range(1, n_ticks + 1):
        tick_t = k * trefi
        pos = bisect.bisect_left(act_times, tick_t)
        start = ((k - 1) * rows_per_ref) % nr
        for j in range(rows_per_ref):
            base_refresh.setdefault((start + j) % nr, []).append(pos)
        if trr.capacity > 0:
            if tick_t % window_ns == 0:
                ws = tick_t - window_ns
            else:
                ws = (tick_t // window_ns) * window_ns
            for b in range(nb):
                counted = []
                for (bb, r), times in by_row_times.items():
                    if bb != b:
                        continue
                    c = bisect.bisect_left(times, tick_t) - bisect.bisect_left(times, ws)
                    if c > 0:
                        counted.append((-c, r))
                counted.sort()
                for _negc, r in counted[: trr.capacity]:
                    for d in range(1, trr.neighbor_radius + 1):
                        if r - d >= 0:
                            trr_refresh.setdefault((b, r - d), []).append(pos)
                        if r + d < nr:
                            trr_refresh.setdefault((b, r + d), []).append(pos)

    # -- per-victim flip sweep ------------------------------------------
    cls = thresholds.nearest_class(contents.default_fill, contents.default_fill)

    def side_thresholds(agg: int, mult: float):
        if not 0 <= agg < nr:
            return math.inf, math.inf
        return cls.single * mult, cls.double * mult

    flips = []
    vulnerable = vmap.vulnerable
    multiplier = vmap.multiplier
    for b in range(nb):
        for victim in range(nr):
            g = b * nr + victim
            if not vulnerable[g]:
                continue
            lo_seqs = by_row.get((b, victim - 1), []) if victim > 0 else []
            hi_seqs = by_row.get((b, victim + 1), []) if victim < nr - 1 else []
            if not lo_seqs and not hi_seqs:
                continue
            mult = float(multiplier[g])
            ts_lo, td_lo = side_thresholds(victim - 1, mult)
            ts_hi, td_hi = side_thresholds(victim + 1, mult)
            refreshes = sorted(base_refresh.get(victim, []) + trr_refresh.get((b, victim), []))
            stream = (
                [(p, 0, 0) for p in refreshes]
                + [(s, 1, 0) for s in lo_seqs]
                + [(s, 1, 1) for s in hi_seqs]
            )
            stream.sort()
            lo = hi = 0
            armed = True
            for pos, kind, side in stream:
                if kind == 0:
                    lo = hi = 0
                    armed = True
                    continue
                if side == 0:
                    lo += 1
                else:
                    hi += 1
                if not armed:
                    continue
                if lo >= hi:
                    td, ts = td_lo, ts_lo
                else:
                    td, ts = td_hi, ts_hi
                if lo >= td / 2 and hi >= td / 2:
                    mode, eff, thr = "double", lo + hi, td
                else:
                    mode, eff, thr = "single", max(lo, hi), ts
                if eff >= thr:
                    flips.append((acts[pos][0], b, victim, mode, eff, thr))
                    armed = False
    flips.sort()
    return window_rows, window_banks, flips, total_acts


# ---------------------------------------------------------------------------
# Incremental DRAM engine
# ---------------------------------------------------------------------------

class ActivationLedger:
    """Mutable per-row state: open rows, neighbor exposure, armed flags.

    Indexing is flat: g = bank * rows_per_bank + row.  exp_lo / exp_hi
    hold the activations of the row's low / high neighbor since the row's
    own refresh (its accumulated disturbance).  armed marks rows that
    have not flipped since their last refresh.
    """

    def __init__(self, mapping: DramMapping):
        n = mapping.bank_count * mapping.rows_per_bank
        self.mapping = mapping
        self.open_row = [-1] * mapping.bank_count
        self.exp_lo = [0] * n
        self.exp_hi = [0] * n
        self.armed = [True] * n

    def refresh_row(self, bank: int, row: int) -> None:
        g = bank * self.mapping.rows_per_bank + row
        self.exp_lo[g] = 0
        self.exp_hi[g] = 0
        self.armed[g] = True


class IncrementalEngine:
    """The DRAM engine stepped one event and one ACT at a time; the reference
    for dram.simulate_trace, which works on chunks of event columns."""

    def __init__(
        self,
        cfg: DramConfig,
        mapping: DramMapping,
        thresholds: ThresholdTable,
        trr: TrrConfig,
        vmap: VulnerabilityMap,
        contents: RowContents,
    ):
        self.cfg = cfg
        self.mapping = mapping
        self.trr = trr
        self.vmap = vmap
        self.ledger = ActivationLedger(mapping)

        self.nr = mapping.rows_per_bank
        self.nb = mapping.bank_count
        self.rows_per_ref = max(1, self.nr // cfg.ref_commands)
        self.trefi_ns = cfg.trefi_ns
        self.window_ns = cfg.window_ns
        self.act_cap = cfg.act_cap

        self.tick_index = 1
        self.ref_ptr = 0
        self.window_index = 0
        self.window_row_acts: list[dict[int, int]] = [dict() for _ in range(self.nb)]
        self.window_bank_acts = [0] * self.nb
        self.windows: list[WindowSummary] = []
        self.flips: list[BitFlip] = []
        self.total_acts = 0
        self._vuln = self.vmap.vulnerable.tolist()
        self._mult = self.vmap.multiplier.tolist()
        self.fill = contents.default_fill
        self.cls = thresholds.nearest_class(self.fill, self.fill)

    def _check_victim(self, bank: int, row: int, time_ns: int) -> None:
        g = bank * self.nr + row
        led = self.ledger
        if not led.armed[g] or not self._vuln[g]:
            return
        lo = led.exp_lo[g]
        hi = led.exp_hi[g]
        mult = self._mult[g]
        ts, td = self.cls.single * mult, self.cls.double * mult
        agg_row = row - 1 if lo >= hi else row + 1
        if lo + hi < td or not 0 <= agg_row < self.nr:
            return
        if lo >= td / 2 and hi >= td / 2:
            mode, eff, thr = "double", lo + hi, td
        else:
            mode, eff, thr = "single", max(lo, hi), ts
        if eff < thr:
            return
        fill = self.fill
        self.flips.append(BitFlip(bank, row, _bit_positions(fill, fill), time_ns, eff, mode, fill, fill, thr))
        led.armed[g] = False

    # -- refresh machinery ---------------------------------------------
    def _trr_tracked(self, bank: int) -> list[int]:
        acts = self.window_row_acts[bank]
        if not acts or self.trr.capacity == 0:
            return []
        top = heapq.nsmallest(self.trr.capacity, acts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [row for row, _ in top]

    def _do_tick(self) -> None:
        for bank in range(self.nb):
            for j in range(self.rows_per_ref):
                self.ledger.refresh_row(bank, (self.ref_ptr + j) % self.nr)
            if self.trr.capacity > 0:
                for row in self._trr_tracked(bank):
                    for d in range(1, self.trr.neighbor_radius + 1):
                        if row - d >= 0:
                            self.ledger.refresh_row(bank, row - d)
                        if row + d < self.nr:
                            self.ledger.refresh_row(bank, row + d)
        self.ref_ptr = (self.ref_ptr + self.rows_per_ref) % self.nr
        self.tick_index += 1

    def _roll_window(self) -> None:
        row_acts = {}
        for bank in range(self.nb):
            for row, count in self.window_row_acts[bank].items():
                row_acts[(bank, row)] = count
        self.windows.append(
            WindowSummary(self.window_index, self.window_index * self.window_ns,
                          row_acts, list(self.window_bank_acts))
        )
        self.window_index += 1
        self.window_row_acts = [dict() for _ in range(self.nb)]
        self.window_bank_acts = [0] * self.nb

    def advance_time(self, t: int) -> None:
        """Apply all refresh commands and window rollovers up to time t."""
        while True:
            tick_t = self.tick_index * self.trefi_ns
            window_t = (self.window_index + 1) * self.window_ns
            if tick_t <= t and tick_t <= window_t:
                self._do_tick()
            elif window_t <= t:
                self._roll_window()
            else:
                return

    # -- event processing ----------------------------------------------
    def touch(self, bank: int, row: int, time_ns: int) -> None:
        if self.ledger.open_row[bank] == row:
            return
        self.ledger.open_row[bank] = row
        g = bank * self.nr + row
        self.total_acts += 1
        bank_total = self.window_bank_acts[bank] + 1
        if bank_total > self.act_cap:
            raise TraceRateError(
                f"bank {bank} exceeds {self.act_cap} activations in window "
                f"{self.window_index}: the trace outruns the row-cycle budget"
            )
        self.window_bank_acts[bank] = bank_total
        acts = self.window_row_acts[bank]
        acts[row] = acts.get(row, 0) + 1
        if row > 0:
            self.ledger.exp_hi[g - 1] += 1
            self._check_victim(bank, row - 1, time_ns)
        if row < self.nr - 1:
            self.ledger.exp_lo[g + 1] += 1
            self._check_victim(bank, row + 1, time_ns)

    def finish(self) -> None:
        self._roll_window()


def incremental_simulate(
    trace,
    cfg: DramConfig,
    mapping: DramMapping,
    thresholds: ThresholdTable,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    seed: int = 0,
) -> tuple[SimulationResult, ActivationLedger]:
    """dram.simulate_trace computed one event and one ACT at a time.

    Returns (SimulationResult, final ActivationLedger).  Accepts the same
    inputs, but reads EventColumns blocks as (time_ns, paddr, size) tuples.
    """
    if isinstance(trace, EventColumns):
        trace = (trace,)
    events = itertools.chain.from_iterable(
        event_tuples(e) if isinstance(e, EventColumns) else ((e[0], e[1], e[3]),) for e in trace)
    if trr is None:
        trr = TrrConfig()
    if vmap is None:
        vmap = VulnerabilityMap.from_seed(mapping, seed)
    if contents is None:
        contents = RowContents()
    eng = IncrementalEngine(cfg, mapping, thresholds, trr, vmap, contents)

    row_size = mapping.row_size_bytes
    col_bits = mapping.col_bits
    bank_bits = mapping.bank_bits
    bank_mask = mapping.bank_count - 1
    xor = mapping.bank_xor
    capacity = mapping.capacity_bytes

    last_t = None
    n_events = 0
    for time_ns, paddr, size in events:
        n_events += 1
        if last_t is not None and time_ns < last_t:
            raise ValueError(f"trace time goes backwards at {time_ns}")
        last_t = time_ns
        if size < 0:
            raise ValueError(f"event at {paddr:#x} has negative size {size}")
        if paddr < 0 or paddr + size > capacity:
            raise ValueError(f"event at {paddr:#x}+{size} outside module capacity")
        eng.advance_time(time_ns)
        addr = paddr
        remaining = size
        while remaining > 0:
            row = addr >> (col_bits + bank_bits)
            bank = (addr >> col_bits) & bank_mask
            if xor:
                bank ^= row & bank_mask
            eng.touch(bank, row, time_ns)
            chunk = min(remaining, row_size - (addr & (row_size - 1)))
            addr += chunk
            remaining -= chunk
    eng.finish()
    return SimulationResult(eng.windows, eng.flips, n_events, eng.total_acts), eng.ledger


def check_flip(
    ledger: ActivationLedger,
    vmap: VulnerabilityMap,
    thresholds: ThresholdTable,
    contents: RowContents,
    time_ns: int = 0,
) -> list[BitFlip]:
    """Evaluate the flip condition for every armed row at the current state.

    Pure query: the ledger is not modified.  IncrementalEngine applies the
    same rule as exposures grow.
    """
    mapping = ledger.mapping
    nr = mapping.rows_per_bank
    flips = []
    vuln = vmap.vulnerable
    mult = vmap.multiplier
    fill = contents.default_fill
    cls = thresholds.nearest_class(fill, fill)
    for bank in range(mapping.bank_count):
        base = bank * nr
        for row in range(nr):
            g = base + row
            if not ledger.armed[g] or not vuln[g]:
                continue
            lo = ledger.exp_lo[g]
            hi = ledger.exp_hi[g]
            if lo == 0 and hi == 0:
                continue
            agg_row = row - 1 if lo >= hi else row + 1
            if not 0 <= agg_row < nr:
                continue
            m = float(mult[g])
            td = cls.double * m
            if lo >= td / 2 and hi >= td / 2:
                mode, eff, thr = "double", lo + hi, td
            else:
                mode, eff, thr = "single", max(lo, hi), cls.single * m
            if eff >= thr:
                flips.append(
                    BitFlip(bank, row, _bit_positions(fill, fill), time_ns, eff, mode, fill, fill, thr)
                )
    return flips


# ---------------------------------------------------------------------------
# Layout lookups, one address or index at a time
# ---------------------------------------------------------------------------

def layer_of(spec: ModelSpec, index: int) -> int:
    """Layer number containing a flat parameter index."""
    if not 0 <= index < spec.total_params:
        raise ValueError(f"index {index} out of range")
    return bisect.bisect_right(spec.layer_offsets, index) - 1


def byte_range_of_elems(region: Region, offset: int, count: int) -> tuple[int, int]:
    """Virtual [start, end) byte range of an element run of a region."""
    start_bit = offset * region.elem_bits
    end_bit = (offset + count) * region.elem_bits
    start = region.virtual_start + start_bit // 8
    end = region.virtual_start + -(-end_bit // 8)
    if end > region.virtual_end:
        raise ValueError(f"run [{offset}, {offset + count}) overflows region {region.name}/{region.layer}")
    return start, end


def virtual_to_physical(layout: MemoryLayout, vaddr: int) -> int:
    """Physical address of a virtual one, through the layout's page table."""
    page, offset = divmod(vaddr, PAGE_BYTES)
    frame = layout.page_table.get(page)
    if frame is None:
        raise ValueError(f"vaddr {vaddr:#x} not mapped")
    return frame * PAGE_BYTES + offset


# ---------------------------------------------------------------------------
# Replay trace generation
# ---------------------------------------------------------------------------

class ScriptOp(NamedTuple):
    region: str  # "ingress" | "accumulator" | "writeback" | "values"
    layer: int  # -1 for the global ingress queue
    offset: int  # in elements of the region
    count: int


def _reference_runs(spec, indices) -> list[tuple[int, int, int]]:
    """(layer, offset within layer, count) runs of a sorted index list."""
    out = []
    idx = [int(i) for i in indices]
    i = 0
    while i < len(idx):
        start = idx[i]
        j = i + 1
        while j < len(idx) and idx[j] == idx[j - 1] + 1:
            j += 1
        count = j - i
        while count > 0:
            layer = layer_of(spec, start)
            take = min(count, spec.layer_offsets[layer + 1] - start)
            out.append((layer, start - spec.layer_offsets[layer], take))
            start += take
            count -= take
        i = j
    return out


def _reference_pieces(layout: MemoryLayout, op: ScriptOp) -> list[tuple[int, int]]:
    """(paddr, size) pieces of one op, cut at page and physical row borders."""
    region = layout.region(op.region, op.layer)
    start, end = byte_range_of_elems(region, op.offset, op.count)
    row_size = layout.mapping.row_size_bytes
    pieces = []
    v = start
    while v < end:
        page_end = (v // PAGE_BYTES + 1) * PAGE_BYTES
        p = virtual_to_physical(layout, v)
        row_end_p = (p // row_size + 1) * row_size
        piece = min(end - v, page_end - v, row_end_p - p)
        pieces.append((p, piece))
        v += piece
    return pieces


def reference_replay_events(
    layout: MemoryLayout,
    records,
    bw: BandwidthModel,
    metadata_bytes_per_entry: int = 0,
    row_opening: bool = False,
) -> list[tuple[int, int, int]]:
    """Replay events (time_ns, paddr, size) built one round, one op and one piece at a time.

    Per round: the update message (ingress write, then accumulator read
    and write per run) spread uniformly over size / bandwidth, then the
    writeback ops (accumulator read, writeback write, values write per
    run) at the round's integer end, where the next round starts.  The
    ingress queue is a ring that wraps when the next update would
    overflow it.  With row_opening, each round's events after its ingress
    pieces are cut to those row_opening_events keeps.
    """
    spec = layout.spec
    ingress_size = layout.region("ingress").size_bytes
    events = []
    offset = 0
    t_ns = 0
    for record in records:
        k = len(record.indices)
        size = -(-(k * PARAM_BITS) // 8) + k * metadata_bytes_per_entry
        if size > ingress_size:
            raise ValueError(f"round {record.round_number}: update larger than the ingress queue")
        if offset + size > ingress_size:
            offset = 0
        runs = _reference_runs(spec, record.indices)
        ops = [ScriptOp("ingress", -1, offset, size)]
        writeback_ops = []
        for layer, off, count in runs:
            ops += [ScriptOp("accumulator", layer, off, count)] * 2  # read, then write
            writeback_ops.append(ScriptOp("accumulator", layer, off, count))
            writeback_ops.append(ScriptOp("writeback", layer, off, count))
            writeback_ops.append(ScriptOp("values", layer, off, count))
        budget_ns = size * 1e9 / bw.bytes_per_second
        pieces = [piece for op in ops for piece in _reference_pieces(layout, op)]
        t = float(t_ns)
        step = budget_ns / len(pieces)
        timed = [(int(t + i * step), p, n) for i, (p, n) in enumerate(pieces)]
        round_end = int(t + budget_ns)
        for op in writeback_ops:
            timed.extend((round_end, p, n) for p, n in _reference_pieces(layout, op))
        if row_opening:  # the round's ingress pieces all stay
            n_ingress = len(_reference_pieces(layout, ops[0]))
            timed[n_ingress:] = row_opening_events(timed[n_ingress:], layout.mapping)
        events.extend(timed)
        t_ns = round_end
        offset += size
    return events


def row_opening_events(events, mapping: DramMapping) -> list:
    """The events (time_ns, paddr, size), each inside one row, that can open
    a row wherever they play: each bank's first, each in another row than
    its bank's event before it, and the last.  Every other event finds its
    row open, as the one before it in its bank left it."""
    kept, open_row = [], {}
    for i, event in enumerate(events):
        bank, row, _ = physical_to_dram(event[1], mapping)
        if open_row.get(bank) != row or i == len(events) - 1:
            kept.append(event)
        open_row[bank] = row
    return kept


# ---------------------------------------------------------------------------
# Metric references
# ---------------------------------------------------------------------------

def emd_reference(u, v, total_params: int) -> float:
    """Earth mover's distance by exhaustive CDF comparison at every index."""
    a = sorted(u)
    b = sorted(v)
    total = 0.0
    for j in range(total_params):
        fa = sum(1 for x in a if x <= j) / len(a)
        fb = sum(1 for x in b if x <= j) / len(b)
        total += abs(fa - fb)
    return total / total_params


def cd_reference(indices, total_params: int) -> float:
    """Cluster diameter by exhaustive subset enumeration (small k only)."""
    idx = sorted(set(indices))
    k = len(idx)
    m = math.ceil(Fraction(9, 10) * k)
    best = None
    for subset in itertools.combinations(idx, m):
        span = subset[-1] - subset[0] + 1
        if best is None or span < best:
            best = span
    return best / total_params


def rur_reference(index_sets) -> float:
    """Repeated-update ratio straight from the definition, on frozensets."""
    sets = [frozenset(int(i) for i in u) for u in index_sets]
    if len(sets) < 2:
        raise ValueError("RUR needs at least two rounds")
    for t, u in enumerate(sets):
        if not u:
            raise ValueError(f"round {t} has an empty index set")
    inter = 0
    denom = 0
    for a, b in zip(sets[:-1], sets[1:]):
        inter += len(a & b)
        denom += len(a)
    return inter / denom


def emd_sets(u_prev, u_curr, total_params: int) -> float:
    """Earth mover's distance of two index sets, built from frozensets."""
    a = np.array(sorted(frozenset(int(i) for i in u_prev)), dtype=np.float64)
    b = np.array(sorted(frozenset(int(i) for i in u_curr)), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("EMD needs two nonempty index sets")
    if total_params <= 0 or a[-1] >= total_params or b[-1] >= total_params:
        raise ValueError("indices out of range for total_params")
    a /= total_params
    b /= total_params
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def focus_sets(u_curr, window: TargetWindow) -> float:
    """Window hit fraction of an index set, counted member by member."""
    u = frozenset(int(i) for i in u_curr)
    if not u:
        return 0.0
    return sum(1 for i in u if window.start <= i < window.end) / len(u)


def window_sets(index_sets, total_params: int, window_len: int, warmup_rounds: int = 10) -> TargetWindow:
    """Densest window over the warmup sets, one index and one start at a time."""
    if window_len <= 0 or window_len > total_params:
        raise ValueError(f"window_len {window_len} out of range for M={total_params}")
    if len(index_sets) < warmup_rounds:
        raise ValueError(f"need {warmup_rounds} warmup rounds, have {len(index_sets)}")
    counts = [0] * total_params
    for u in index_sets[:warmup_rounds]:
        for i in frozenset(int(i) for i in u):
            if not 0 <= i < total_params:
                raise ValueError(f"index {i} out of range")
            counts[i] += 1
    best_start, best = 0, -1
    for start in range(total_params - window_len + 1):
        total = sum(counts[start: start + window_len])
        if total > best:
            best_start, best = start, total
    return TargetWindow(best_start, best_start + window_len)


def stft_reference(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Direct-sum transform of Hann-windowed frames."""
    x = np.asarray(x, dtype=np.float64)
    window = np.hanning(frame_len)
    n_frames = 1 + (x.size - frame_len) // hop
    n_bins = frame_len // 2 + 1
    out = np.empty((n_frames, n_bins), dtype=np.complex128)
    for f in range(n_frames):
        seg = x[f * hop: f * hop + frame_len] * window
        for k in range(n_bins):
            angle = -2.0 * math.pi * k * np.arange(frame_len) / frame_len
            out[f, k] = np.sum(seg * (np.cos(angle) + 1j * np.sin(angle)))
    return out


# ---------------------------------------------------------------------------
# Federated round, one client and one shard row at a time
# ---------------------------------------------------------------------------

def _unpack_mlp(fed: FederationState, theta: np.ndarray):
    o = fed.spec.layer_offsets
    return (theta[o[0]: o[1]].reshape(fed.in_dim, fed.hidden_dim), theta[o[1]: o[2]],
            theta[o[2]: o[3]].reshape(fed.hidden_dim, fed.out_dim), theta[o[3]: o[4]])


def model_loss(fed: FederationState, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of the MLP on one client's batch."""
    w1, b1, w2, b2 = _unpack_mlp(fed, theta)
    h = np.maximum(x @ w1 + b1, 0.0)
    logits = h @ w2 + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    return float(np.mean(log_z - logits[np.arange(x.shape[0]), y]))


def local_train_client(fed: FederationState, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One client's full-batch gradient step on its 2-D shard: -lr * grad."""
    w1, b1, w2, b2 = _unpack_mlp(fed, theta)
    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    logits = h @ w2 + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = x.shape[0]
    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    g_w2 = h.T @ d_logits
    g_b2 = d_logits.sum(axis=0)
    d_h = (d_logits @ w2.T) * (pre > 0.0)
    g_w1 = x.T @ d_h
    g_b1 = d_h.sum(axis=0)
    grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
    return -fed.learning_rate * grad


def sparsify_client(delta: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One client's top-k (indices ascending, values); ties to lower indices."""
    av = np.abs(delta)
    if k >= delta.size:
        chosen = np.arange(delta.size, dtype=np.int64)
    else:
        part = np.argpartition(-av, k - 1)[:k]
        cut = av[part].min()
        greater = np.flatnonzero(av > cut)
        ties = np.flatnonzero(av == cut)[: k - greater.size]
        chosen = np.sort(np.concatenate([greater, ties]))
    return chosen, delta[chosen]


def emulate_audio_channel(x: np.ndarray, delta: np.ndarray, cfg: ChannelConfig, seed) -> np.ndarray:
    """Audio path of one 1-D signal: x + delta + noise, then linear resampling."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"audio signal must be 1-D, got shape {x.shape}")
    if delta.shape != x.shape:
        raise ValueError(f"delta shape {delta.shape} does not match signal {x.shape}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    y = x + delta
    if cfg.noise_std > 0:
        y = y + rng.normal(0.0, cfg.noise_std, size=y.shape)
    if cfg.source_rate_hz == cfg.target_rate_hz:
        return y
    out_len = int(round(y.size * cfg.target_rate_hz / cfg.source_rate_hz))
    pos = np.arange(out_len) * (cfg.source_rate_hz / cfg.target_rate_hz)
    return np.interp(pos, np.arange(y.size), y)


def audio_channel_reference(x: np.ndarray, delta: np.ndarray, cfg: ChannelConfig, rngs) -> np.ndarray:
    """The batched audio channel drawing its noise from one generator per client.

    Client c's noise is one (n, L) draw from rngs[c], added after delta,
    as a round drew it before the environment stored the noise per round.
    """
    if len(rngs) != x.shape[0]:
        raise ValueError(f"need one generator per client, got {len(rngs)} for {x.shape[0]}")
    y = x + delta[:, None, :]
    if cfg.noise_std > 0:
        y = y + np.stack([rng.normal(0.0, cfg.noise_std, size=x.shape[1:]) for rng in rngs])
    if cfg.source_rate_hz != cfg.target_rate_hz:
        length = x.shape[2]
        out_len = int(round(length * cfg.target_rate_hz / cfg.source_rate_hz))
        pos = np.arange(out_len) * (cfg.source_rate_hz / cfg.target_rate_hz)
        rows = [np.interp(pos, np.arange(length), row) for row in y.reshape(-1, length)]
        y = np.reshape(rows, y.shape[:2] + (out_len,))
    return y


def reference_round(fed: FederationState, delta=None, channel_cfg: ChannelConfig | None = None):
    """(indices, values) of every client's update in the next round, fed untouched.

    delta is one (in_dim,) perturbation shared by all clients, or None.
    """
    t = fed.round_number
    d = np.zeros(fed.in_dim) if delta is None else np.asarray(delta, dtype=np.float64)
    updates = []
    for c in range(fed.n_clients):
        x, y = fed.x[c], fed.y[c]
        if channel_cfg is not None:
            rng = generator(fed.seed, "channel", t, c)
            x = np.stack([emulate_audio_channel(row, d, channel_cfg, rng) for row in x])
        elif delta is not None:
            x = x + d[None, :]
        dense = local_train_client(fed, fed.theta, x, y)
        updates.append(sparsify_client(dense, fed.k))
    return updates


def reference_aggregate(theta: np.ndarray, updates) -> np.ndarray:
    """Mean-of-contributions aggregation over a client list of (indices, values).

    Clients are added in list order; per touched index, the accumulated
    sum over the contribution count is added to a copy of theta.
    """
    sums = np.zeros(theta.size)
    counts = np.zeros(theta.size, dtype=np.int64)
    for indices, values in updates:
        sums[indices] += values
        counts[indices] += 1
    touched = np.flatnonzero(counts)
    new_theta = theta.copy()
    new_theta[touched] += sums[touched] / counts[touched]
    return new_theta


# ---------------------------------------------------------------------------
# PPO update with out-of-place Adam
# ---------------------------------------------------------------------------

def with_dense_moments(state: AgentState) -> AgentState:
    """The state with Adam's w1 moments held for every row of w1, as two
    new (obs_dim, hidden1) arrays; every other array is shared."""
    dense = {}
    for name in ("adam_m", "adam_v"):
        moments = getattr(state, name)
        w1 = np.zeros_like(state.weights["w1"])
        w1[state.moment_rows] = moments["w1"]
        dense[name] = dict(moments, w1=w1)
    return AgentState(state.cfg, dict(state.weights), dense["adam_m"], dense["adam_v"], state.adam_step,
                      np.arange(state.cfg.obs_dim))


def with_compact_moments(state: AgentState) -> AgentState:
    """The state with Adam's w1 moments held only for the rows where
    either moment has some bit set (-0.0 included)."""
    m, v = state.adam_m["w1"], state.adam_v["w1"]
    held = m.view(np.int64).any(axis=1) | v.view(np.int64).any(axis=1)
    return AgentState(state.cfg, dict(state.weights), dict(state.adam_m, w1=m[held]),
                      dict(state.adam_v, w1=v[held]), state.adam_step, state.moment_rows[held])


def ppo_update_reference(
    trajectory, state: AgentState, update_seed: int = 0
) -> tuple[AgentState, dict[str, float]]:
    """The PPO iteration over every column of w1 and a dense observation
    matrix, with dense Adam moments and every clip and Adam step building
    new arrays; returns a new state, its moments compacted, and the stats
    that ppo_update returns after stepping its argument in place.

    The clip norm's w1 term sums the squared gradient over the rows the
    update steps, in ascending order: the rows where a moment has some bit
    set at the update's start, and the observed columns.  Every other row's
    gradient is zero, so the norm is the same number, summed in
    ppo_update's grouping."""
    cfg = state.cfg
    state = with_dense_moments(state)
    obs = dense_observations(trajectory, cfg.obs_dim)
    adv, returns = compute_gae(trajectory.rewards, trajectory.values, cfg.discount, cfg.gae_lambda)
    std = adv.std()
    if std > 1e-8:
        adv = (adv - adv.mean()) / std
    rng = generator(update_seed, "ppo-minibatch")
    t_len = obs.shape[0]
    mb = min(cfg.minibatch_size, t_len)
    weights, adam_m, adam_v = dict(state.weights), dict(state.adam_m), dict(state.adam_v)
    live = adam_m["w1"].view(np.int64).any(axis=1) | adam_v["w1"].view(np.int64).any(axis=1)
    live[trajectory.columns] = True
    step = state.adam_step
    losses, kls = [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(t_len)
        for lo in range(0, t_len, mb):
            sel = perm[lo: lo + mb]
            loss, kl, grads = ppo_loss_and_grads(
                weights, cfg, obs[sel], trajectory.actions[sel],
                trajectory.log_probs[sel], adv[sel], returns[sel],
            )
            losses.append(loss)
            kls.append(kl)
            if cfg.max_grad_norm > 0:
                stepped = {k: g[live] if k == "w1" else g for k, g in grads.items()}
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in stepped.values()))
                if norm > cfg.max_grad_norm:
                    grads = {k: g * (cfg.max_grad_norm / norm) for k, g in grads.items()}
            step += 1
            for key in WEIGHT_KEYS:
                g = grads[key]
                adam_m[key] = 0.9 * adam_m[key] + 0.1 * g
                adam_v[key] = 0.999 * adam_v[key] + 0.001 * g**2
                m_hat = adam_m[key] / (1.0 - 0.9**step)
                v_hat = adam_v[key] / (1.0 - 0.999**step)
                weights[key] = weights[key] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    stats = {"loss": float(np.mean(losses)), "kl": float(np.mean(kls)), "adv_std": float(std),
             "return_mean": float(returns.mean())}
    new_state = AgentState(cfg, weights, adam_m, adam_v, step, state.moment_rows)
    return with_compact_moments(new_state), stats
