"""Update-repetition metrics and DRAM-side feasibility arithmetic.

Two groups of functionality live here:

* Metrics over round index-set traces: repeated-update ratio (RUR) and
  cluster diameter (CD).
* The feasibility chain that turns a memory-bus bandwidth and a sparse
  update size into an activation budget per refresh window, and an
  expected activation count for an attacker with a given RUR.

All feasibility arithmetic is exact (integers and rationals); rounding
happens only when formatting values for display against published-style
tables, which truncate to the nearest 1K below.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # dram imports this module
    from .dram import ThresholdTable

__all__ = [
    "topk_count",
    "sorted_unique",
    "index_array",
    "compute_rur",
    "compute_cd",
    "BandwidthModel",
    "update_bytes",
    "h_max",
    "expected_activations",
    "feasibility_verdict",
    "FeasibilityRow",
    "ModelPreset",
    "REFERENCE_MODELS",
    "to_kilo",
]


def _as_fraction(x: float | int | str | Fraction) -> Fraction:
    """Exact rational from a value that was written as a decimal literal.

    Floats are routed through ``str`` so that a config value like 0.001
    means exactly 1/1000 rather than its binary approximation.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(str(x).strip())


def topk_count(sparsity: float | str | Fraction, total_params: int) -> int:
    """Number of retained entries k = ceil(sparsity * total_params)."""
    if total_params <= 0:
        raise ValueError(f"total_params must be positive, got {total_params}")
    p = _as_fraction(sparsity)
    if p <= 0 or p > 1:
        raise ValueError(f"sparsity must be in (0, 1], got {p}")
    num = p.numerator * total_params
    den = p.denominator
    return -(-num // den)


def sorted_unique(a: np.ndarray, presorted: bool = False) -> np.ndarray:
    """np.unique(a) of an integer array: flattened, sorted, distinct, a's dtype.

    Sorts (unless presorted) and drops equal neighbours; numpy 2.x's
    np.unique without a return_* flag hashes instead, many times slower.
    """
    a = np.ravel(a) if presorted else np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def index_array(u: Iterable[int]) -> np.ndarray:
    """An index set as a sorted, duplicate-free int64 array.

    Accepts an array, a list, a set or any iterable of integers; repeated
    entries count once, as in a set.
    """
    a = u if isinstance(u, np.ndarray) else np.fromiter(u, dtype=np.int64)
    a = a.astype(np.int64, copy=False)
    if a.ndim == 1 and np.all(a[1:] > a[:-1]):
        return a  # already sorted and unique, as every round record is
    return sorted_unique(a)


def compute_rur(index_sets: Sequence[Iterable[int]]) -> float:
    """Repeated-update ratio over a trace of round index sets.

    Sum over consecutive pairs of |U_t intersect U_{t+1}| divided by the
    sum of |U_t| for t = 1 .. T-1 (the earlier set of each pair).
    """
    sets = [index_array(u) for u in index_sets]
    if len(sets) < 2:
        raise ValueError("RUR needs at least two rounds")
    for t, u in enumerate(sets):
        if u.size == 0:
            raise ValueError(f"round {t} has an empty index set")
    repeated = sum(
        np.intersect1d(prev, curr, assume_unique=True).size
        for prev, curr in zip(sets[:-1], sets[1:])
    )
    total = sum(u.size for u in sets[:-1])
    return repeated / total


def compute_cd(indices: Iterable[int], total_params: int) -> float:
    """Cluster diameter: span of the tightest window holding 90% of the set.

    With k indices and m = ceil(0.9 k), CD is the minimum over all m-subsets
    of (max - min + 1), divided by total_params.  The minimizing subset is
    always m consecutive elements of the sorted index list, so a sliding
    window suffices.
    """
    idx = index_array(indices)
    k = idx.size
    if k == 0:
        raise ValueError("empty index set")
    if total_params <= 0 or (idx[-1] >= total_params) or idx[0] < 0:
        raise ValueError("indices out of range for total_params")
    m = (9 * k + 9) // 10
    spans = idx[m - 1:] - idx[: k - m + 1] + 1
    return int(spans.min()) / total_params


@dataclass(frozen=True)
class BandwidthModel:
    """Memory-bus bandwidth from transfer rate and bus width.

    data_rate_mts is calibrated in units of 2^20 transfers per second, so
    a DDR4-2400 x64 module comes out at 18.75 binary GB/s.  That is the
    interpretation under which the published per-window activation budgets
    reproduce exactly.
    """

    data_rate_mts: int = 2400
    bit_width: int = 64

    def __post_init__(self) -> None:
        if self.data_rate_mts <= 0:
            raise ValueError(f"data_rate_mts must be positive, got {self.data_rate_mts}")
        if self.bit_width <= 0 or self.bit_width % 8 != 0:
            raise ValueError(f"bit_width must be a positive multiple of 8, got {self.bit_width}")

    @property
    def bytes_per_second(self) -> int:
        return self.data_rate_mts * (1 << 20) * (self.bit_width // 8)

    def window_bytes(self, refresh_period_s: float | str | Fraction = "0.064") -> Fraction:
        """Bytes transferable in one refresh window (exact rational)."""
        dt = _as_fraction(refresh_period_s)
        if dt <= 0:
            raise ValueError(f"refresh period must be positive, got {dt}")
        return Fraction(self.bytes_per_second) * dt


def update_bytes(k: int, precision_bits: int, metadata_bytes_per_entry: int = 0) -> int:
    """Whole bytes on the wire for one sparse update of k entries.

    The k values packed at the model precision, rounded up to a whole
    byte.  Real encodings add per-entry index metadata; the knob adds a
    flat metadata_bytes_per_entry on top when a caller wants that
    accounted.
    """
    if precision_bits not in (4, 8, 32):
        raise ValueError(f"unsupported precision {precision_bits}")
    if metadata_bytes_per_entry < 0:
        raise ValueError("metadata_bytes_per_entry must be >= 0")
    return -(-(k * precision_bits) // 8) + k * metadata_bytes_per_entry


def h_max(
    bw: BandwidthModel,
    size_bytes: Fraction | int,
    refresh_period_s: float | str | Fraction = "0.064",
) -> int:
    """Max update deliveries per refresh window: floor(window_bytes / size_bytes)."""
    size = _as_fraction(size_bytes)
    if size <= 0:
        raise ValueError(f"update size must be positive, got {size}")
    return int(bw.window_bytes(refresh_period_s) / size)


def expected_activations(rur: float | str | Fraction, hmax: int) -> int:
    """Expected aggressor-row activations per window: floor(RUR * H_max)."""
    r = _as_fraction(rur)
    if not 0 <= r <= 1:
        raise ValueError(f"RUR must be in [0, 1], got {r}")
    if hmax < 0:
        raise ValueError(f"hmax must be >= 0, got {hmax}")
    return int(r * hmax)


def feasibility_verdict(e_act: int, min_threshold: int, mean_threshold: int) -> str:
    """Classify an expected activation count against flip thresholds.

    feasible  : e_act >= mean single-sided threshold
    marginal  : min single-sided threshold <= e_act < mean
    infeasible: below the minimum single-sided threshold
    """
    if min_threshold <= 0 or mean_threshold < min_threshold:
        raise ValueError("need 0 < min_threshold <= mean_threshold")
    if e_act >= mean_threshold:
        return "feasible"
    if e_act >= min_threshold:
        return "marginal"
    return "infeasible"


def to_kilo(n: int) -> int:
    """Display convention for table comparisons: truncate to 1K units."""
    return int(n) // 1000


@dataclass(frozen=True)
class ModelPreset:
    """A published model's footprint, as used in the feasibility tables."""

    name: str
    total_params: int
    tensor_count: int
    precision_bits: int


# Reference speech/vision models used for the feasibility arithmetic.
REFERENCE_MODELS: tuple[ModelPreset, ...] = (
    ModelPreset("Conformer-CTC-S", 8_700_000, 480, 4),
    ModelPreset("Squeezeformer-XS", 9_000_000, 480, 4),
    ModelPreset("QuartzNet-5x5", 6_700_000, 130, 8),
    ModelPreset("MobileNetV3-Small", 2_900_000, 142, 8),
)

# Measured repeated-update ratios for the reference models at the two
# sparsity levels exercised in the tables, keyed by (model name, sparsity).
REFERENCE_RUR: dict[tuple[str, str], str] = {
    ("Conformer-CTC-S", "0.001"): "0.695",
    ("Conformer-CTC-S", "0.0005"): "0.605",
    ("Squeezeformer-XS", "0.001"): "0.631",
    ("Squeezeformer-XS", "0.0005"): "0.537",
    ("QuartzNet-5x5", "0.001"): "0.760",
    ("QuartzNet-5x5", "0.0005"): "0.608",
    ("MobileNetV3-Small", "0.001"): "0.633",
    ("MobileNetV3-Small", "0.0005"): "0.583",
}

SPARSITY_LEVELS: tuple[str, str] = ("0.001", "0.0005")


@dataclass
class FeasibilityRow:
    """One (model, sparsity) line of the feasibility report, verdicts included.

    pattern_verdicts: per "vv/aa" fill class, whether E[A] reaches its single-sided threshold.
    """

    model: str
    sparsity: str
    total_params: int
    tensor_count: int
    precision_bits: int
    k: int
    update_bytes: int
    hmax: int
    rur: str
    e_act: int
    verdict: str
    pattern_verdicts: dict[str, bool]


def feasibility_rows(
    bw: BandwidthModel,
    table: ThresholdTable,
    refresh_period_s: float | str | Fraction = "0.064",
    metadata_bytes_per_entry: int = 0,
) -> list[FeasibilityRow]:
    """Feasibility chain for every reference (model, sparsity) pair, in table order."""
    min_t, mean_t = table.min_single(), table.reference_mean()
    rows = []
    for preset in REFERENCE_MODELS:
        for p in SPARSITY_LEVELS:
            k = topk_count(p, preset.total_params)
            size = update_bytes(k, preset.precision_bits, metadata_bytes_per_entry)
            hm = h_max(bw, size, refresh_period_s)
            rur = REFERENCE_RUR[(preset.name, p)]
            e_act = expected_activations(rur, hm)
            rows.append(FeasibilityRow(
                model=preset.name,
                sparsity=p,
                total_params=preset.total_params,
                tensor_count=preset.tensor_count,
                precision_bits=preset.precision_bits,
                k=k,
                update_bytes=size,
                hmax=hm,
                rur=rur,
                e_act=e_act,
                verdict=feasibility_verdict(e_act, min_t, mean_t),
                pattern_verdicts={
                    f"{e.victim_fill:02x}/{e.aggressor_fill:02x}": e_act >= e.single for e in table.entries
                },
            ))
    return rows
