"""Replay recorded update rounds through the layout and the DRAM engine.

Each round record (the union of client index sets) becomes one update
message: ingress-queue write, accumulator read+write per entry run, then
the round-end writeback.  Rounds play back to back at the modeled link
bandwidth, which makes the accumulator rows the hottest rows of the
module and lets the measured per-window ACT counts be compared against
the analytic budget floor(window_bytes / S_update).

Note on open-row semantics: a row only re-activates each round if some
other access to the same bank closes it in between.  Single-bank module
configs guarantee that; on multi-bank hashes the interleaving depends on
where the layout lands.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import metrics
from .dram import (
    DramConfig,
    RowContents,
    SimulationResult,
    ThresholdTable,
    TrrConfig,
    VulnerabilityMap,
    simulate_trace,
)
from .federation import ModelSpec, RoundRecord
from .memlayout import AccessEvent, AccessScript, MemoryLayout, ScriptOp, trace_update_processing
from .metrics import BandwidthModel

__all__ = ["ReplaySummary", "round_script", "iter_replay_events", "replay_records"]


def _runs(sorted_indices: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers as (start, count)."""
    idx = np.asarray(sorted_indices, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(idx) != 1) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [idx.size]))
    return list(zip(idx[starts].tolist(), (ends - starts).tolist()))


def _per_layer_runs(spec: ModelSpec, indices: np.ndarray) -> list[tuple[int, int, int]]:
    """(layer, offset within layer, count) runs, split at layer borders."""
    offsets = spec.layer_offsets
    out = []
    for start, count in _runs(indices):
        while count > 0:
            layer = spec.layer_of(start)
            room = offsets[layer + 1] - start
            take = min(count, room)
            out.append((layer, start - offsets[layer], take))
            start += take
            count -= take
    return out


def _update_bytes(spec: ModelSpec, record: RoundRecord, metadata_bytes_per_entry: int) -> int:
    """Bytes of one replayed update: packed values plus per-entry metadata."""
    k = int(record.indices.size)
    return -(-(k * spec.uniform_precision_bits) // 8) + k * metadata_bytes_per_entry


def round_script(
    layout: MemoryLayout,
    record: RoundRecord,
    metadata_bytes_per_entry: int = 0,
    ingress_offset: int = 0,
) -> AccessScript:
    """Access script replaying one recorded round as a single message."""
    spec = layout.spec
    if record.indices[-1] >= spec.total_params:
        raise ValueError(
            f"round {record.round_number}: index {record.indices[-1]} outside the model"
        )
    size_bytes = _update_bytes(spec, record, metadata_bytes_per_entry)
    ops = [ScriptOp("ingress", -1, ingress_offset, size_bytes, "W")]
    runs = _per_layer_runs(spec, record.indices)
    for layer, off, count in runs:
        ops.append(ScriptOp("accumulator", layer, off, count, "R"))
        ops.append(ScriptOp("accumulator", layer, off, count, "W"))
    wb_ops = []
    for layer, off, count in runs:
        wb_ops.append(ScriptOp("accumulator", layer, off, count, "R"))
        wb_ops.append(ScriptOp("writeback", layer, off, count, "W"))
        wb_ops.append(ScriptOp("values", layer, off, count, "W"))
    return AccessScript(record.round_number, size_bytes, tuple(ops), tuple(wb_ops))


def iter_replay_events(
    layout: MemoryLayout,
    records: Iterable[RoundRecord],
    bw: BandwidthModel,
    metadata_bytes_per_entry: int = 0,
) -> Iterator[AccessEvent]:
    """Stream the physical events of consecutive rounds, back to back.

    The ingress queue is used as a ring buffer: successive rounds land at
    increasing offsets and wrap when the next update would overflow it.
    """
    ingress_size = layout.region("ingress").size_bytes
    offset = 0
    t = 0
    for record in records:
        size = _update_bytes(layout.spec, record, metadata_bytes_per_entry)
        if size > ingress_size:
            raise ValueError(f"round {record.round_number}: update larger than the ingress queue")
        if offset + size > ingress_size:
            offset = 0
        script = round_script(layout, record, metadata_bytes_per_entry, offset)
        trace = trace_update_processing(layout, script, bw, t)
        yield from trace.events
        t = int(trace.meta["end_ns"])
        offset += size


@dataclass
class ReplaySummary:
    result: SimulationResult
    rounds: int
    total_update_bytes: int
    h_max_analytic: int
    measured_max_row_acts: int

    @property
    def act_ratio(self) -> float:
        """Measured hottest-row ACTs per window over the analytic budget."""
        if self.h_max_analytic == 0:
            return 0.0
        return self.measured_max_row_acts / self.h_max_analytic


def replay_records(
    records: list[RoundRecord],
    layout: MemoryLayout,
    dram_cfg: DramConfig,
    bw: BandwidthModel,
    thresholds: ThresholdTable,
    *,
    trr: TrrConfig | None = None,
    vmap: VulnerabilityMap | None = None,
    contents: RowContents | None = None,
    sim_seed: int = 0,
    metadata_bytes_per_entry: int = 0,
) -> ReplaySummary:
    """Replay a full record list and cross-check the activation budget.

    The analytic column uses the mean update size over the replayed
    rounds: H_max = floor(window_bytes / mean_size); for a constant-size
    trace this is exact.
    """
    if not records:
        raise ValueError("no rounds to replay")
    total_bytes = sum(_update_bytes(layout.spec, r, metadata_bytes_per_entry) for r in records)
    mean_size = Fraction(total_bytes, len(records))
    hmax, _ = metrics.h_max(bw, mean_size, str(dram_cfg.refresh_period_s), dram_cfg.act_cap)
    events = iter_replay_events(layout, records, bw, metadata_bytes_per_entry)
    result = simulate_trace(
        events, dram_cfg, layout.mapping, thresholds,
        trr=trr, vmap=vmap, contents=contents, seed=sim_seed,
    )
    return ReplaySummary(
        result=result,
        rounds=len(records),
        total_update_bytes=total_bytes,
        h_max_analytic=hmax,
        measured_max_row_acts=result.max_row_acts(),
    )
