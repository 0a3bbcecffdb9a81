"""Feasibility tables, golden comparisons, manifests and report merging.

Manifests are deliberately free of wall-clock times so byte-identical
reruns stay byte-identical; elapsed time goes to a separate sidecar that
nothing else consumes.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from fractions import Fraction

from .config import ConfigError
from .metrics import FeasibilityRow, to_kilo

__all__ = [
    "GOLDEN_FEASIBILITY",
    "GoldenMismatchError",
    "check_golden",
    "format_budget_table",
    "format_expectation_table",
    "write_feasibility_files",
    "feasibility_summary",
    "write_manifest",
    "write_timing",
    "collect_manifests",
    "merge_reports",
]


class GoldenMismatchError(Exception):
    """Computed tables disagree with the bundled golden values (exit 2)."""

    def __init__(self, mismatches: list[str]):
        self.mismatches = mismatches
        super().__init__("; ".join(mismatches))


# (model, sparsity, H_max in K units, E[A] in K units, verdict).  H_max
# must match exactly after K-truncation; E[A] may differ by one K unit.
GOLDEN_FEASIBILITY: tuple[tuple[str, str, int, int, str], ...] = (
    ("Conformer-CTC-S", "0.001", 296, 206, "marginal"),
    ("Conformer-CTC-S", "0.0005", 592, 358, "feasible"),
    ("Squeezeformer-XS", "0.001", 286, 180, "infeasible"),
    ("Squeezeformer-XS", "0.0005", 572, 307, "feasible"),
    ("QuartzNet-5x5", "0.001", 192, 145, "infeasible"),
    ("QuartzNet-5x5", "0.0005", 384, 233, "marginal"),
    ("MobileNetV3-Small", "0.001", 444, 281, "feasible"),
    ("MobileNetV3-Small", "0.0005", 888, 518, "feasible"),
)


def check_golden(summary_rows: list[dict]) -> list[str]:
    """Mismatches of feasibility_summary rows against the golden table.

    Empty means clean.  Works on the manifest form, so a fresh run and a
    stored run are checked by the same rule.
    """
    by_key = {(r["model"], r["sparsity"]): r for r in summary_rows}
    problems = []
    for model, sparsity, hmax_k, eact_k, verdict in GOLDEN_FEASIBILITY:
        row = by_key.get((model, sparsity))
        if row is None:
            problems.append(f"{model}@{sparsity}: row missing")
            continue
        if row["hmax_k"] != hmax_k:
            problems.append(f"{model}@{sparsity}: H_max {row['hmax_k']}K, golden {hmax_k}K")
        if row["e_act_k"] is None or row["verdict"] is None:
            problems.append(f"{model}@{sparsity}: no expectation computed")
            continue
        if abs(row["e_act_k"] - eact_k) > 1:
            problems.append(f"{model}@{sparsity}: E[A] {row['e_act_k']}K, golden {eact_k}K (+-1)")
        if row["verdict"] != verdict:
            problems.append(f"{model}@{sparsity}: verdict {row['verdict']}, golden {verdict}")
    return problems


def _pct(value: str | Fraction, digits: int) -> str:
    return f"{float(Fraction(value)) * 100:.{digits}f}".rstrip("0").rstrip(".")


def _budget_grid(rows: list[FeasibilityRow]) -> tuple[list[str], dict[str, dict[str, FeasibilityRow]]]:
    """Sparsity levels, and each model's rows keyed by sparsity, both in row order."""
    sparsities = list(dict.fromkeys(r.sparsity for r in rows))
    by_model: dict[str, dict[str, FeasibilityRow]] = {}
    for r in rows:
        by_model.setdefault(r.model, {})[r.sparsity] = r
    return sparsities, by_model


def format_budget_table(rows: list[FeasibilityRow]) -> str:
    """Per-model activation budgets, one line per model, K units."""
    sparsities, by_model = _budget_grid(rows)
    head = ["model", "params(M)", "tensors", "precision"] + [
        f"hmax@{_pct(p, 2)}%(K)" for p in sparsities
    ]
    lines = ["  ".join(f"{h:<18}" if i == 0 else f"{h:>12}" for i, h in enumerate(head))]
    for model, per in by_model.items():
        any_row = next(iter(per.values()))
        cells = [
            f"{model:<18}",
            f"{any_row.total_params / 1e6:>12.1f}",
            f"{any_row.tensor_count:>12}",
            f"{'INT' + str(any_row.precision_bits):>12}",
        ]
        for p in sparsities:
            cells.append(f"{to_kilo(per[p].hmax) if p in per else '-':>12}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def format_expectation_table(rows: list[FeasibilityRow]) -> str:
    """Expected activations and verdicts, one line per (model, sparsity)."""
    head = ["model", "sparsity%", "hmax(K)", "rur%", "e_act(K)", "verdict"]
    lines = ["  ".join(f"{h:<18}" if i == 0 else f"{h:>10}" for i, h in enumerate(head))]
    for r in rows:
        lines.append(
            "  ".join(
                [
                    f"{r.model:<18}",
                    f"{_pct(r.sparsity, 2):>10}",
                    f"{to_kilo(r.hmax):>10}",
                    f"{float(Fraction(r.rur)) * 100:>10.1f}",
                    f"{to_kilo(r.e_act):>10}",
                    f"{r.verdict:>10}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_feasibility_files(out_dir: str, rows: list[FeasibilityRow]) -> dict[str, str]:
    """Write the text and csv tables; returns {logical name: filename}."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = {}

    text = format_budget_table(rows) + "\n" + format_expectation_table(rows)
    outputs["tables_text"] = "feasibility.txt"
    with open(os.path.join(out_dir, outputs["tables_text"]), "w", encoding="ascii") as f:
        f.write(text)

    outputs["budget_csv"] = "budget.csv"
    sparsities, by_model = _budget_grid(rows)
    with open(os.path.join(out_dir, outputs["budget_csv"]), "w", encoding="ascii") as f:
        cols = ",".join(f"hmax_k_at_{_pct(p, 2)}pct" for p in sparsities)
        f.write(f"model,params_millions,tensors,precision_bits,{cols}\n")
        for model, per in by_model.items():
            any_row = next(iter(per.values()))
            vals = ",".join(str(to_kilo(per[p].hmax)) if p in per else "" for p in sparsities)
            f.write(
                f"{model},{any_row.total_params / 1e6:.1f},{any_row.tensor_count},"
                f"{any_row.precision_bits},{vals}\n"
            )

    outputs["expectation_csv"] = "expectation.csv"
    with open(os.path.join(out_dir, outputs["expectation_csv"]), "w", encoding="ascii") as f:
        f.write("model,sparsity_pct,hmax_k,rur_pct,e_act_k,verdict\n")
        for r in rows:
            f.write(
                f"{r.model},{_pct(r.sparsity, 2)},{to_kilo(r.hmax)},"
                f"{float(Fraction(r.rur)) * 100:.1f},{to_kilo(r.e_act)},{r.verdict}\n"
            )

    patterns = sorted({p for r in rows for p in r.pattern_verdicts})
    outputs["patterns_csv"] = "pattern_verdicts.csv"
    with open(os.path.join(out_dir, outputs["patterns_csv"]), "w", encoding="ascii") as f:
        f.write("model,sparsity_pct," + ",".join(f"flips_{p}" for p in patterns) + "\n")
        for r in rows:
            flags = ",".join(str(r.pattern_verdicts[p]).lower() for p in patterns)
            f.write(f"{r.model},{_pct(r.sparsity, 2)},{flags}\n")
    return outputs


def feasibility_summary(rows: list[FeasibilityRow]) -> dict:
    """Machine-readable summary for the manifest."""
    return {
        "rows": [
            {
                "model": r.model,
                "sparsity": r.sparsity,
                "hmax": r.hmax,
                "hmax_k": to_kilo(r.hmax),
                "e_act": r.e_act,
                "e_act_k": to_kilo(r.e_act),
                "verdict": r.verdict,
            }
            for r in rows
        ]
    }


def write_manifest(out_dir: str, payload: dict) -> str:
    """Deterministic manifest.json: sorted keys, no timestamps."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
    return path


def write_timing(out_dir: str, seconds: float, **stage_seconds: float) -> str:
    """Wall-clock sidecar, kept out of the manifest on purpose: elapsed, then
    per-stage seconds, then the process's peak resident set in MiB."""
    path = os.path.join(out_dir, "timing.txt")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mib = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere
    with open(path, "w", encoding="ascii") as f:
        f.write(f"elapsed_seconds={seconds:.3f}\n")
        for name, value in stage_seconds.items():
            f.write(f"{name}={value:.3f}\n")
        f.write(f"peak_rss_mb={peak_mib:.1f}\n")
    return path


def collect_manifests(root: str) -> list[tuple[str, dict]]:
    """(directory, manifest) for every manifest.json below root, sorted."""
    found = []
    for dirpath, _, filenames in os.walk(root):
        if "manifest.json" in filenames:
            path = os.path.join(dirpath, "manifest.json")
            with open(path, "r", encoding="ascii") as f:
                found.append((dirpath, json.load(f)))
    found.sort(key=lambda item: item[0])
    return found


def merge_reports(root: str, out_dir: str) -> dict:
    """Merge all manifests under root into one report.

    All manifests must carry the same config hash; conflicting hashes
    abort, since mixing runs of different experiments is a usage error.
    Returns the merged payload (also written to report.json/report.txt).
    """
    manifests = collect_manifests(root)
    if not manifests:
        raise ConfigError(f"no manifest.json found under {root!r}")
    hashes = {m.get("config_hash") for _, m in manifests}
    if len(hashes) != 1:
        raise ConfigError(
            f"conflicting config hashes under {root!r}: "
            + ", ".join(sorted(str(h)[:12] for h in hashes))
        )
    merged: dict = {"config_hash": hashes.pop(), "runs": []}
    for dirpath, m in manifests:
        merged["runs"].append(
            {
                "directory": os.path.relpath(dirpath, root),
                "command": m.get("command"),
                "seed": m.get("seed"),
                "summary": m.get("summary", {}),
            }
        )

    lines = [f"config_hash: {merged['config_hash']}", ""]
    for run in merged["runs"]:
        cmd = run["command"]
        s = run["summary"]
        lines.append(f"[{run['directory']}] {cmd} (seed {run['seed']})")
        if cmd == "feasibility":
            for row in s.get("rows", []):
                if row.get("verdict") is None:
                    continue
                lines.append(
                    f"  {row['model']}@{row['sparsity']}: H_max {row['hmax_k']}K,"
                    f" E[A] {row['e_act_k']}K -> {row['verdict']}"
                )
        elif cmd == "train":
            lines.append(
                f"  mode {s.get('mode')}: final RUR {s.get('final_rur'):.4f},"
                f" final mean reward {s.get('final_mean_reward'):.4f}"
            )
        elif cmd == "simulate":
            lines.append(
                f"  rounds {s.get('rounds')}: analytic H_max {s.get('h_max_analytic')},"
                f" measured max row ACTs {s.get('measured_max_row_acts')},"
                f" ratio {s.get('act_ratio'):.4f}, flips {s.get('flips')}"
            )
        lines.append("")

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as f:
        json.dump(merged, f, sort_keys=True, indent=2)
        f.write("\n")
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="ascii") as f:
        f.write("\n".join(lines))
    return merged
