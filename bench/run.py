#!/usr/bin/env python3
"""hammersim benchmark: three seeded workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload train-ppo --seed 1 --seconds 36 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's src/ and exits non-zero when that is missing.

Workloads (each a closed loop of one caller in one process):
  train-ppo      training.train on the default config with the PPO
                 attacker, TRAIN_ITERATIONS iterations per pass.
  replay-cyclic  replay.replay_records over a generated pool of
                 learned-like round records, cycled REPLAY_CYCLES times.
  hammer-trr     dram.simulate_trace on a generated two-bank hammering
                 trace (decoyed pair vs TRR-protected pair).

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run (see
spans.py).  Every pass is checked; a pass that raises or fails its check
counts its operations as failed.  README.md in this directory lists the
metrics and why each workload is there.
"""
import os
import sys

# One BLAS thread: the workloads are single-caller loops, and one thread
# keeps host timings steadier on a small shared machine.  Must be set
# before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "hammersim", "__init__.py")):
    sys.exit(f"bench: no hammersim package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from hammersim import adversary, cli, config, dram, federation, memlayout, replay, training  # noqa: E402

import inputs  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402

TRAIN_ITERATIONS = 3
REPLAY_CYCLES = 2
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

# -- metric vocabulary ------------------------------------------------------

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_ref": "ref",
    "peak_rss_mb": "MB",
}

# counter hooks: called with the recorder and the wrapped call's result
def _count_script_ops(rec, result):
    _, script = result
    rec.add("federation.aggregate.script_ops",
            sum(len(m.ops) for m in script.messages) + len(script.writeback_ops))


def _count_events(rec, trace):
    rec.add("memlayout.events", len(trace.events))


def _count_dram(rec, res):
    rec.add("dram.acts", res.total_acts)
    rec.add("dram.events", res.total_events)
    rec.add("dram.windows", len(res.windows))
    rec.add("dram.flips", len(res.flips))
    rec.peak("dram.max_row_acts", res.max_row_acts())


# (layer, module[:class] whose attribute the caller looks up, attribute, counter hook)
RUNTIME_LAYERS = [
    ("training.train", "hammersim.training", "train", None),
    ("federation.run_round", "hammersim.training", "run_round", None),
    ("federation.local_train", "hammersim.federation", "local_train", None),
    ("federation.sparsify_topk", "hammersim.federation", "sparsify_topk", None),
    ("federation.aggregate", "hammersim.federation", "aggregate", _count_script_ops),
    ("adversary.ppo_update", "hammersim.adversary", "ppo_update", None),
    ("adversary.sample_action", "hammersim.training", "sample_action", None),
    ("adversary.compute_reward", "hammersim.training", "compute_reward", None),
    ("channel.decode_latent", "hammersim.training", "decode_latent", None),
    ("metrics.compute_rur", "hammersim.metrics", "compute_rur", None),
    ("replay.replay_records", "hammersim.replay", "replay_records", None),
    ("replay.round_script", "hammersim.replay", "round_script", None),
    ("memlayout.trace_update_processing", "hammersim.replay", "trace_update_processing", _count_events),
    ("dram.simulate_trace", "hammersim.replay", "simulate_trace", _count_dram),
    ("dram.simulate_trace", "hammersim.dram", "simulate_trace", _count_dram),
]
SETUP_LAYERS = [
    ("config.load_config", "hammersim.config", "load_config", None),
    ("memlayout.build_layout", "hammersim.memlayout", "build_layout", None),
    ("dram.VulnerabilityMap.from_seed", "hammersim.dram:VulnerabilityMap", "from_seed", None),
    ("adversary.init_policy", "hammersim.adversary", "init_policy", None),
    ("adversary.init_policy", "hammersim.training", "init_policy", None),
]
COUNTERS = {  # name -> unit
    "federation.aggregate.script_ops": "count",
    "memlayout.events": "count",
    "dram.acts": "count",
    "dram.events": "count",
    "dram.acts_per_event": "ratio",
    "dram.windows": "count",
    "dram.flips": "count",
    "dram.max_row_acts": "count",
}


def _unique(names):
    return list(dict.fromkeys(names))


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, in reporting order."""
    out = {}
    for layer in _unique(n for n, *_ in RUNTIME_LAYERS):
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
    out.update(COUNTERS)
    for layer in _unique(n for n, *_ in SETUP_LAYERS):
        out[f"{layer}.s"] = "s"
    return out


# -- workloads -------------------------------------------------------------

@dataclass
class Check:
    """Outcome of checking one pass."""

    ops: int
    failed: int
    digest: dict
    work: dict = field(default_factory=dict)  # simulated work done in the pass


class TrainPPO:
    name = "train-ppo"
    op_label = "training iteration"
    ops_per_pass = TRAIN_ITERATIONS

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict | None = None  # digest of the first good pass

    def setup(self) -> None:
        """Config load plus the federation and policy init train() starts with."""
        self.exp = config.load_config()
        env = training.AttackEnv(self.exp, self.seed)
        env.reset()
        adversary.init_policy(self.exp.policy_config(env.obs_dim, env.latent_dim), self.seed)
        self.total_params = env.total_params
        self.rounds = self.exp.get("run", "rounds_per_episode")

    def make_inputs(self) -> dict:
        return {"config": "defaults", "iterations_per_pass": TRAIN_ITERATIONS}

    def op(self):
        return training.train(self.exp, seed=self.seed, iterations=TRAIN_ITERATIONS)

    def check(self, res) -> Check:
        k = TRAIN_ITERATIONS
        stats = res.stats
        if len(stats) != k:
            return Check(k, k, {"error": f"{len(stats)} iterations"})
        rows = [(s.iteration, s.mean_reward, s.rur, s.mean_stability, s.mean_focus, s.mean_stealth)
                for s in stats]
        failed = sum(
            1 for row in rows
            if not all(math.isfinite(v) for v in row) or not 0.0 <= row[2] <= 1.0
        )
        recs = res.records
        first = (k - 1) * self.rounds
        records_ok = len(recs) == self.rounds and all(
            r.round_number == first + t
            and r.indices.size > 0
            and np.all(np.diff(r.indices) > 0)
            and 0 <= r.indices[0] and r.indices[-1] < self.total_params
            for t, r in enumerate(recs)
        )
        if not records_ok:
            failed = k
        log_text = "".join(
            f"{it},{a:.6f},{b:.6f},{c:.6f},{d:.6f},{e:.6f}\n" for it, a, b, c, d, e in rows
        )
        records_text = "".join(
            f"{r.round_number} " + " ".join(map(str, r.indices.tolist())) + "\n" for r in recs
        )
        digest = {
            "final_rur": round(stats[-1].rur, 6),
            "log_sha256": hashlib.sha256(log_text.encode()).hexdigest(),
            "records_sha256": hashlib.sha256(records_text.encode()).hexdigest(),
        }
        return Check(k, failed, digest)


def _dram_digest(res) -> dict:
    return {
        "acts": res.total_acts,
        "events": res.total_events,
        "windows": len(res.windows),
        "flips": len(res.flips),
        "max_row_acts": res.max_row_acts(),
    }


class ReplayCyclic:
    name = "replay-cyclic"
    op_label = "replay pass"
    ops_per_pass = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict | None = None  # digest of the first good pass

    def setup(self) -> None:
        """What `simulate` builds before replaying: layout and vulnerability map."""
        exp = config.load_config()
        g = exp.get
        self.spec = federation.make_mlp_spec(
            g("federation", "in_dim"), g("federation", "hidden_dim"), g("federation", "out_dim"))
        mapping = exp.dram_mapping()
        self.layout = memlayout.build_layout(
            self.spec, g("memory", "capacity_bytes") or None, mapping, self.seed,
            ingress_bytes=g("memory", "ingress_bytes"), metadata_bytes=g("memory", "metadata_bytes"))
        self.vmap = dram.VulnerabilityMap.from_seed(
            mapping, self.seed, probability=g("dram", "vulnerable_probability"),
            multiplier_low=g("dram", "multiplier_low"), multiplier_high=g("dram", "multiplier_high"))
        self.dram_cfg = exp.dram_config()
        self.bw = exp.bandwidth()
        self.thresholds = exp.threshold_table()
        self.trr = exp.trr_config()
        self.contents = dram.RowContents(g("dram", "row_fill"))
        self.meta_bytes = g("metrics", "metadata_bytes_per_entry")
        self.dims = (g("federation", "in_dim"), g("federation", "hidden_dim"), g("federation", "out_dim"))

    def make_inputs(self) -> dict:
        pool = inputs.replay_pool(self.seed, *self.dims)
        stats = inputs.check_pool(pool, self.spec.total_params)
        self.records = [
            federation.RoundRecord(i, pool[i % len(pool)]) for i in range(len(pool) * REPLAY_CYCLES)
        ]
        return {"pool": len(pool), "rounds_per_pass": len(self.records),
                **{k: round(v, 3) for k, v in stats.items()}}

    def op(self):
        return replay.replay_records(
            self.records, self.layout, self.dram_cfg, self.bw, self.thresholds,
            trr=self.trr, vmap=self.vmap, contents=self.contents, sim_seed=self.seed,
            metadata_bytes_per_entry=self.meta_bytes)

    def check(self, summary) -> Check:
        res = summary.result
        ok = (
            summary.rounds == len(self.records)
            and res.total_acts == sum(sum(w.bank_acts) for w in res.windows)
            and res.max_row_acts() <= self.dram_cfg.act_cap
        )
        digest = _dram_digest(res)
        return Check(1, 0 if ok else 1, digest, {"rounds": summary.rounds, "acts": res.total_acts})


class HammerTRR:
    name = "hammer-trr"
    op_label = "trace pass"
    ops_per_pass = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict | None = None  # digest of the first good pass

    def setup(self) -> None:
        """Module config, threshold table and vulnerability map."""
        exp = config.load_config()
        g = exp.get
        self.mapping = exp.dram_mapping()
        self.dram_cfg = exp.dram_config()
        self.thresholds = exp.threshold_table()
        self.trr = exp.trr_config()
        self.vmap = dram.VulnerabilityMap.from_seed(
            self.mapping, self.seed, probability=g("dram", "vulnerable_probability"),
            multiplier_low=g("dram", "multiplier_low"), multiplier_high=g("dram", "multiplier_high"))
        self.fill = g("dram", "row_fill")
        self.contents = dram.RowContents(self.fill)

    def make_inputs(self) -> dict:
        self.inp = inputs.hammer_trace(self.seed, self.mapping, self.dram_cfg, self.vmap.vulnerable)
        inputs.check_hammer(self.inp, self.mapping, self.dram_cfg, self.thresholds, self.fill)
        self.events = self.inp.events()
        return {"events": len(self.events), "trr_capacity": self.trr.capacity,
                "decoyed": f"bank {self.inp.decoyed_bank} victim {self.inp.decoyed_victim}",
                "protected": f"bank {self.inp.protected_bank} victim {self.inp.protected_victim}"}

    def op(self):
        return dram.simulate_trace(
            self.events, self.dram_cfg, self.mapping, self.thresholds,
            trr=self.trr, vmap=self.vmap, contents=self.contents, seed=self.seed)

    def check(self, res) -> Check:
        inp = self.inp
        ok = (
            res.total_acts == res.total_events == len(self.events)
            and len(res.windows) >= inputs.HAMMER_WINDOWS
            and any(f.bank == inp.decoyed_bank and f.row == inp.decoyed_victim and f.mode == "double"
                    for f in res.flips)
            and not any(f.bank == inp.protected_bank for f in res.flips)
        )
        digest = _dram_digest(res)
        digest["flip_list"] = [[f.bank, f.row, f.mode, f.time_ns] for f in res.flips]
        return Check(1, 0 if ok else 1, digest, {"acts": res.total_acts})


WORKLOADS = {w.name: w for w in (TrainPPO, ReplayCyclic, HammerTRR)}


# -- measurement -----------------------------------------------------------

@dataclass
class Phase:
    """Whole passes run for a time budget."""

    samples: list = field(default_factory=list)  # host CPU seconds per operation
    intervals: list = field(default_factory=list)  # (monotonic start, end, operations) per good pass
    rates: dict = field(default_factory=dict)  # work name -> per-pass work per host CPU second
    attempted: int = 0
    failed: int = 0
    passes: int = 0

    def merge(self, other: "Phase") -> None:
        self.samples += other.samples
        self.intervals += other.intervals
        for k, v in other.rates.items():
            self.rates.setdefault(k, []).extend(v)
        self.attempted += other.attempted
        self.failed += other.failed
        self.passes += other.passes


def run_phase(w, seconds: float, rec: spans.Recorder | None = None) -> Phase:
    """Run whole passes while the next one, if as long as the last, ends
    within `seconds` (at least one pass).

    A pass is timed in this process's CPU time, because with the
    reference clock running the process gets about half of its CPU's
    wall time.  Every pass replays the same input, so a pass whose
    digest differs from the first good pass's fails.
    """
    phase = Phase()
    outer = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
    clock, cpu_clock = time.monotonic, time.process_time
    start = clock()
    wall = 0.0
    while phase.passes == 0 or clock() - start + wall <= seconds:
        phase.passes += 1
        with outer("bench.op"):
            t0, c0 = clock(), cpu_clock()
            try:
                out = w.op()
            except Exception:  # noqa: BLE001 - a raising pass is a failed pass
                traceback.print_exc()
                out = None
            wall, cpu = clock() - t0, cpu_clock() - c0
        with outer("bench.check"):
            chk = Check(w.ops_per_pass, w.ops_per_pass, {})
            if out is not None:
                try:
                    chk = w.check(out)
                except Exception:  # noqa: BLE001 - a check that raises fails the pass
                    traceback.print_exc()
            if chk.failed == 0:
                if w.reference is None:
                    w.reference = chk.digest
                elif chk.digest != w.reference:
                    print(f"digest changed between passes: {chk.digest}", file=sys.stderr)
                    chk.failed = chk.ops
        phase.attempted += chk.ops
        phase.failed += chk.failed
        if chk.failed == 0:
            phase.samples.append(cpu / chk.ops)
            phase.intervals.append((t0, t0 + wall, chk.ops))
            for k, v in chk.work.items():
                phase.rates.setdefault(k, []).append(v / cpu)
    return phase


def setup_runs(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up in SETUP_REPEATS fresh processes, run one after another.

    Each is timed from before the process is spawned to the end of its
    setup, in wall seconds and in reference units.  The children inherit
    the CPU the reference clock pins this process to.
    """
    intervals = []
    with refclock.ReferenceClock() as ref:
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-only",
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"setup process failed:\n{proc.stderr}")
            # CLOCK_MONOTONIC is shared by every process on the machine
            intervals.append((start, float(proc.stdout.split()[-1])))
    return [b - a for a, b in intervals], [ref.units(a, b) for a, b in intervals]


def golden_check() -> bool:
    """`hammersim feasibility --golden` must return 0."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(["feasibility", "--golden"]) == 0


def machine_info() -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "hammersim")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kb / 1024.0


def install_layers(rec: spans.Recorder, layers) -> None:
    for name, target, attr, hook in layers:
        rec.install(name, target, attr, hook)


# -- reporting -------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    """Sample count with quartiles and extremes, for the human-readable lines."""
    if len(values) < 2:
        return f"{len(values)} sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}; q1 {q1:.6g} q3 {q3:.6g} min {min(values):.6g} max {max(values):.6g}"


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}".rstrip())


def report_rates(w, phase: Phase) -> None:
    """The workload's own throughput metrics, named as in README.md."""
    if isinstance(w, TrainPPO):
        _show("train.s_per_iter", _median(phase.samples), "s", "per pass, " + _spread(phase.samples))
    if "rounds" in phase.rates:
        _show("replay.rounds_per_s", _median(phase.rates["rounds"]), "1/s", _spread(phase.rates["rounds"]))
    if "acts" in phase.rates:
        _show("dram.acts_per_s", _median(phase.rates["acts"]), "1/s", _spread(phase.rates["acts"]))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure_untraced(w, seconds: float, setup: tuple[list[float], list[float]], golden_ok: bool) -> None:
    """End-to-end metrics: passes timed against the reference clock."""
    with refclock.ReferenceClock() as ref:
        phase = run_phase(w, seconds)
    op_ref = [ref.units(a, b) / ops for a, b, ops in phase.intervals]
    setup_wall, setup_units = setup
    setup_s = _median(setup_units) * refclock.UNIT_S
    attempted, failed = phase.attempted + 1, phase.failed + (0 if golden_ok else 1)
    print(f"end-to-end ({w.op_label} = one operation, tracing off):")
    _show("setup_s", setup_s, "s", f"reference seconds (units x {refclock.UNIT_S}), "
          + _spread([u * refclock.UNIT_S for u in setup_units]))
    _show("setup wall", _median(setup_wall), "s", "sharing the CPU with the reference, " + _spread(setup_wall))
    _show("op_ref", _median(op_ref), "ref", "reference units per operation, " + _spread(op_ref))
    _show("op_s", _median(phase.samples), "s", "host CPU seconds per operation, " + _spread(phase.samples))
    report_rates(w, phase)
    _show("peak_rss_mb", peak_rss_mb(), "MB")
    print(f"  fail_ratio {failed}/{attempted} (operations plus the golden check)")
    print("digest: " + json.dumps(w.reference, sort_keys=True))
    values = {"setup_s": setup_s, "op_ref": _median(op_ref), "peak_rss_mb": peak_rss_mb()}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(result_line(failed == 0 and bool(phase.samples), attempted, failed, metrics))


def measure_traced(w, seconds: float, rec: spans.Recorder, golden_ok: bool, seed: int) -> None:
    """Per-layer metrics: untraced and traced passes alternate, so both see
    the same machine conditions; the overhead is the difference of medians."""
    base, traced = Phase(), Phase()
    ratios = []  # traced over untraced CPU time, per adjacent pair of passes
    traced_wall = last = 0.0
    first = len(rec.spans)
    rec.counters.clear()
    start = time.perf_counter()
    while not traced.passes or time.perf_counter() - start + last <= seconds:
        t_pair = time.perf_counter()
        b = run_phase(w, 0)
        install_layers(rec, SETUP_LAYERS + RUNTIME_LAYERS)
        t0 = time.perf_counter()
        t = run_phase(w, 0, rec)
        traced_wall += time.perf_counter() - t0
        rec.uninstall()
        last = time.perf_counter() - t_pair
        if b.samples and t.samples:
            ratios.append(t.samples[0] / b.samples[0])
        base.merge(b)
        traced.merge(t)
    phase_spans = rec.spans[first:]
    self_s = spans.self_times(phase_spans)
    calls = spans.call_counts(phase_spans)
    durations = spans.median_durations(rec.spans)
    counters = dict(rec.counters)
    if counters.get("dram.events"):
        counters["dram.acts_per_event"] = counters["dram.acts"] / counters["dram.events"]
    metrics = {}
    for name, unit in per_layer_units().items():
        if name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name in COUNTERS:
            value = counters.get(name, 0)
        else:
            value = durations.get(name[:-len(".s")], 0.0)
        metrics[name] = (value, unit)

    attempted = base.attempted + traced.attempted + 1
    failed = base.failed + traced.failed + (0 if golden_ok else 1)
    base_op, traced_op = _median(base.samples), _median(traced.samples)
    total_self = sum(self_s.values())
    print(f"traced run: {traced.passes} traced passes alternating with {base.passes} untraced")
    print(f"  tracing overhead: {(_median(ratios) - 1) * 100:+.2f}% per {w.op_label} "
          f"(median over {len(ratios)} adjacent pairs of traced over untraced CPU time; "
          f"medians {traced_op:.6f} s traced, {base_op:.6f} s untraced)")
    print(f"  self times sum to {total_self:.6f} s of {traced_wall:.6f} s traced wall "
          f"({total_self / traced_wall * 100:.2f}%)")
    print("  self time by layer (bench.* is the benchmark's own loop and checks):")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<40} {value:>12.6f} s {value / traced_wall * 100:6.2f}%  calls {calls[name]}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".self_s", ".calls")):
            _show(name, value, unit)
    print("  absent layers: " + (", ".join(rec.absent) or "none"))
    if rec.broken_counters:
        print("  counters unavailable from: " + ", ".join(sorted(rec.broken_counters)))
    print(f"  fail_ratio {failed}/{attempted} (operations plus the golden check)")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{w.name}-seed{seed}.jsonl")
    rec.write(span_path)
    print(f"  spans written to {os.path.relpath(span_path, ROOT)} ({len(rec.spans)} spans)")
    print(result_line(failed == 0 and bool(traced.samples), attempted, failed, metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    w = WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        w.setup()
        print(time.monotonic())
        return 0

    print(f"workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine_info().items()))
    print("one process, one caller (closed loop); no layer queues work, so no wait-time metric")

    setup = None if args.trace else setup_runs(w.name, args.seed)
    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        install_layers(rec, SETUP_LAYERS)
        with rec.span("bench.setup"):
            w.setup()
        rec.uninstall()
    else:
        w.setup()
    golden_ok = golden_check()
    print(f"golden: feasibility --golden {'passes' if golden_ok else 'FAILS'}")
    about = w.make_inputs()
    print("inputs: " + " ".join(f"{k}={v}" for k, v in about.items()))

    if rec is None:
        measure_untraced(w, args.seconds, setup, golden_ok)
    else:
        measure_traced(w, args.seconds, rec, golden_ok, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
