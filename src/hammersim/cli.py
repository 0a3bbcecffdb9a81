"""Command-line harness.

Subcommands: feasibility (activation-budget tables), train (learned
attack loop or random baseline), simulate (replay recorded rounds
through the DRAM engine), report (merge run outputs).

Exit codes: 0 success, 1 usage or configuration error, 2 golden-value
mismatch, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import metrics, report
from .config import ConfigError, ExperimentConfig, load_config
from .federation import read_round_records
from .replay import RecordError, replay_records
from .report import GoldenMismatchError
from .training import train

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammersim",
        description="Deterministic study of disturbance-error exposure in federated learning.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="FILE", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", metavar="DIR", default=None, help="output directory")

    p_feas = sub.add_parser("feasibility", help="compute the activation-budget tables")
    common(p_feas)
    p_feas.add_argument("--golden", action="store_true", help="compare against bundled golden values")

    p_train = sub.add_parser("train", help="run the learned-attack training loop")
    common(p_train)
    p_train.add_argument(
        "--baseline", choices=["random"], default=None,
        help="replace the policy with random latent actions",
    )

    p_sim = sub.add_parser("simulate", help="replay recorded rounds through the DRAM engine")
    common(p_sim)

    p_rep = sub.add_parser("report", help="merge run outputs under --out into one report")
    common(p_rep)
    p_rep.add_argument("--golden", action="store_true", help="also check feasibility golden values")
    return parser


def _load(args) -> ExperimentConfig:
    overrides = {} if args.seed is None else {("run", "seed"): args.seed}
    return load_config(args.config, overrides)


def _write_common_outputs(out_dir: str, exp: ExperimentConfig, command: str,
                          outputs: dict[str, str], summary: dict, started: float, **stage_seconds: float) -> None:
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="ascii") as f:
        f.write(exp.normalized_text())
    outputs = dict(outputs)
    outputs["config"] = "config.txt"
    report.write_manifest(
        out_dir,
        {
            "command": command,
            "seed": exp.get("run", "seed"),
            "config_hash": exp.hash_hex,
            "outputs": outputs,
            "summary": summary,
        },
    )
    report.write_timing(out_dir, time.monotonic() - started, **stage_seconds)


def cmd_feasibility(args) -> int:
    started = time.monotonic()
    exp = _load(args)
    g = exp.get
    rows = metrics.feasibility_rows(
        exp.bandwidth(),
        exp.threshold_table(),
        refresh_period_s=g("dram", "refresh_period_s"),
        metadata_bytes_per_entry=g("metrics", "metadata_bytes_per_entry"),
    )
    sys.stdout.write(report.format_budget_table(rows))
    sys.stdout.write("\n")
    sys.stdout.write(report.format_expectation_table(rows))

    summary = report.feasibility_summary(rows)
    problems = report.check_golden(summary["rows"]) if args.golden else []
    if args.out:
        outputs = report.write_feasibility_files(args.out, rows)
        summary["golden_checked"] = bool(args.golden)
        summary["golden_mismatches"] = problems
        _write_common_outputs(args.out, exp, "feasibility", outputs, summary, started)
    if problems:
        raise GoldenMismatchError(problems)
    if args.golden:
        print("golden check: all values match")
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    exp = _load(args)
    result = train(exp, baseline=args.baseline, out_dir=args.out)
    final_rur = result.final_fraction_rur(0.1)
    final_reward = result.mean_reward_slice(0.9, 1.0)
    print(
        f"mode={result.mode} iterations={len(result.stats)} "
        f"final_rur={final_rur:.4f} final_mean_reward={final_reward:.4f} "
        f"window=[{result.window.start},{result.window.end})"
    )
    if args.out:
        outputs = {"log": "training_log.csv", "records": exp.get("run", "records_file")}
        if result.checkpoint_path:
            outputs["checkpoint"] = "agent.ckpt"
        summary = {
            "mode": result.mode,
            "iterations": len(result.stats),
            "final_rur": final_rur,
            "final_mean_reward": final_reward,
            "first_mean_reward": result.mean_reward_slice(0.0, 0.1),
            "window": [result.window.start, result.window.end],
        }
        _write_common_outputs(args.out, exp, "train", outputs, summary, started, **result.stage_seconds)
    return 0


def _find_records(exp: ExperimentConfig, out_dir: str | None) -> str:
    name = exp.get("run", "records_file")
    candidates = [name]
    if out_dir and not os.path.isabs(name):
        candidates.append(os.path.join(out_dir, name))
    for c in candidates:
        if os.path.exists(c):
            return c
    raise ConfigError(
        f"records file {name!r} not found (looked in: {', '.join(candidates)}); "
        "run 'hammersim train' first or point [run] records_file at one"
    )


def cmd_simulate(args) -> int:
    started = time.monotonic()
    exp = _load(args)
    g = exp.get
    path = _find_records(exp, args.out)
    try:
        records, header = read_round_records(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad records file {path!r}: {exc}") from exc

    seed = g("run", "seed")
    total_params = exp.model_spec().total_params
    recorded = header.get("total_params")
    if recorded is not None and recorded != str(total_params):
        raise ConfigError(
            f"records file {path!r} was written for a {recorded}-parameter model, "
            f"but the config's model has {total_params} parameters"
        )
    try:
        summary = replay_records(
            records, exp.layout(seed), exp.dram_config(), exp.bandwidth(), exp.threshold_table(),
            trr=exp.trr_config(),
            vmap=exp.vulnerability_map(seed),
            contents=exp.row_contents(),
            sim_seed=seed,
            metadata_bytes_per_entry=g("metrics", "metadata_bytes_per_entry"),
        )
    except RecordError as exc:
        raise ConfigError(f"records file {path!r}: {exc}") from exc
    res = summary.result
    print(
        f"rounds={summary.rounds} events={res.total_events} acts={res.total_acts} "
        f"windows={len(res.windows)} analytic_hmax={summary.h_max_analytic} "
        f"measured_max_row_acts={summary.measured_max_row_acts} "
        f"act_ratio={summary.act_ratio:.4f} flips={len(res.flips)}"
    )
    for flip in res.flips[:10]:
        print(
            f"  flip t={flip.time_ns}ns bank={flip.bank} row={flip.row} {flip.mode} "
            f"count={flip.effective_count} bits={list(flip.bit_positions)}"
        )
    if len(res.flips) > 10:
        print(f"  ... {len(res.flips) - 10} more")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        outputs = {"flips": "flips.txt", "windows": "windows.csv"}
        with open(os.path.join(args.out, "flips.txt"), "w", encoding="ascii") as f:
            f.write("# time_ns,bank,row,mode,effective_count,threshold,bit_positions\n")
            for flip in res.flips:
                bits = ";".join(str(b) for b in flip.bit_positions)
                f.write(
                    f"{flip.time_ns},{flip.bank},{flip.row},{flip.mode},"
                    f"{flip.effective_count},{flip.threshold:g},{bits}\n"
                )
        with open(os.path.join(args.out, "windows.csv"), "w", encoding="ascii") as f:
            f.write("window,start_ns,max_row_acts,total_acts\n")
            for w in res.windows:
                f.write(f"{w.index},{w.start_ns:.0f},{w.max_row_acts()},{sum(w.bank_acts)}\n")
        manifest_summary = {
            "rounds": summary.rounds,
            "total_events": res.total_events,
            "total_acts": res.total_acts,
            "h_max_analytic": summary.h_max_analytic,
            "measured_max_row_acts": summary.measured_max_row_acts,
            "act_ratio": summary.act_ratio,
            "flips": len(res.flips),
        }
        _write_common_outputs(args.out, exp, "simulate", outputs, manifest_summary, started,
                              trace_seconds=summary.trace_seconds, engine_seconds=summary.engine_seconds)
    return 0


def cmd_report(args) -> int:
    exp = _load(args)
    root = args.out or "."
    merged = report.merge_reports(root, root)
    if merged["config_hash"] != exp.hash_hex:
        raise ConfigError(
            "merged runs were produced with a different config than the one given "
            f"({str(merged['config_hash'])[:12]} vs {exp.hash_hex[:12]})"
        )
    with open(os.path.join(root, "report.txt"), "r", encoding="ascii") as f:
        sys.stdout.write(f.read())
    if args.golden:
        feasibility = [run for run in merged["runs"] if run["command"] == "feasibility"]
        if not feasibility:
            raise ConfigError(f"--golden: no feasibility run under {root} to check")
        problems = []
        for run in feasibility:
            problems.extend(report.check_golden(run["summary"].get("rows", [])))
        if problems:
            raise GoldenMismatchError(problems)
        print("golden check: all values match")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for
        # golden mismatches here
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_help()
        return 1
    handlers = {
        "feasibility": cmd_feasibility,
        "train": cmd_train,
        "simulate": cmd_simulate,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GoldenMismatchError as exc:
        print("golden mismatch:", file=sys.stderr)
        for line in exc.mismatches:
            print(f"  {line}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
