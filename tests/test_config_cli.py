"""Configuration parsing/validation and command-line behavior."""
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hammersim
from hammersim import dram
from hammersim.cli import main
from hammersim.config import SCHEMA, ConfigError, load_config
from hammersim.dram import VulnerabilityMap


def _write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


# -- config files ---------------------------------------------------------

def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.get("run", "seed") == 1
    assert cfg.get("federation", "sparsity") == "0.01"
    assert isinstance(cfg.get("federation", "sparsity"), str)
    assert cfg.get("dram", "bank_xor") is True
    assert cfg.get("dram", "row_fill") == 0x00


def test_typed_parsing(tmp_path):
    path = _write_cfg(
        tmp_path,
        """\
        [run]
        seed = 0x10

        [federation]
        sparsity = 0.0005

        [dram]
        bank_xor = off
        trc_effective_ns = 47.5
        """,
    )
    cfg = load_config(path)
    assert cfg.get("run", "seed") == 16
    # decimals stay verbatim strings so downstream math is exact
    assert cfg.get("federation", "sparsity") == "0.0005"
    assert cfg.get("dram", "bank_xor") is False
    assert cfg.get("dram", "trc_effective_ns") == 47.5


def test_unknown_section_rejected(tmp_path):
    path = _write_cfg(tmp_path, "[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write_cfg(tmp_path, "[run]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = _write_cfg(tmp_path, "[run]\nseed = banana\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_semantic_validation(tmp_path):
    with pytest.raises(ConfigError, match="sparsity"):
        load_config(_write_cfg(tmp_path, "[federation]\nsparsity = 0\n", "a.ini"))
    with pytest.raises(ConfigError, match="warmup_rounds"):
        load_config(_write_cfg(tmp_path, "[adversary]\nwarmup_rounds = 200\n", "b.ini"))
    with pytest.raises(ConfigError, match="vulnerable_probability"):
        load_config(_write_cfg(tmp_path, "[dram]\nvulnerable_probability = 1.5\n", "c.ini"))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/no/such/config.ini")


def test_get_and_override_check_keys():
    cfg = load_config(None)
    with pytest.raises(ConfigError):
        cfg.get("run", "nope")
    with pytest.raises(ConfigError, match=r"no config key \[nope\] seed"):
        load_config(None, {("nope", "seed"): 2})
    with pytest.raises(ConfigError, match=r"no config key \[run\] nope"):
        load_config(None, {("run", "nope"): 2})
    with pytest.raises(ConfigError, match=r"bad value for \[run\] seed"):
        load_config(None, {("run", "seed"): "banana"})
    # an override is validated with the rest: 200 warmup rounds exceed the 100-round episode
    with pytest.raises(ConfigError, match="warmup_rounds"):
        load_config(None, {("adversary", "warmup_rounds"): 200})
    assert load_config(None, {("run", "seed"): 2}).get("run", "seed") == 2


def test_hash_roundtrip_and_sensitivity(tmp_path):
    cfg = load_config(None)
    path = tmp_path / "canon.ini"
    path.write_text(cfg.normalized_text(), encoding="ascii")
    again = load_config(str(path))
    assert again.hash_hex == cfg.hash_hex
    assert load_config(str(path), {("run", "seed"): 99}).hash_hex != cfg.hash_hex


def test_normalized_text_covers_schema():
    text = load_config(None).normalized_text()
    total_keys = sum(len(keys) for keys in SCHEMA.values())
    assert sum(1 for line in text.splitlines() if " = " in line) == total_keys
    for section in SCHEMA:
        assert f"[{section}]" in text


# -- CLI ------------------------------------------------------------------

def test_feasibility_stdout(capsys):
    assert main(["feasibility"]) == 0
    out = capsys.readouterr().out
    assert "Conformer-CTC-S" in out
    assert "marginal" in out and "feasible" in out


def test_feasibility_golden_pass(capsys):
    assert main(["feasibility", "--golden"]) == 0
    assert "golden check: all values match" in capsys.readouterr().out


def test_feasibility_golden_mismatch(tmp_path, capsys):
    # per-entry metadata inflates every update, shifting the budgets
    path = _write_cfg(tmp_path, "[metrics]\nmetadata_bytes_per_entry = 4\n")
    assert main(["feasibility", "--config", path, "--golden"]) == 2
    assert "golden mismatch" in capsys.readouterr().err


def test_golden_verdict_mismatch_feasibility_and_report(tmp_path, capsys):
    # thresholds of 100K turn the four marginal/infeasible golden rows into
    # feasible ones; H_max and E[A] do not depend on the table
    table = tmp_path / "thresholds.txt"
    table.write_text("# published_average=100000\n0xff,0x00,single,100000\n0xff,0x00,double,60000\n")
    path = _write_cfg(tmp_path, f"[thresholds]\nsource = {table}\n")
    assert main(["feasibility", "--config", path, "--golden"]) == 2
    err = capsys.readouterr().err
    assert err.count(": verdict ") == 4 and "H_max" not in err and "E[A]" not in err
    # the stored summary of an unchecked run goes through the same check
    out = tmp_path / "runs"
    assert main(["feasibility", "--config", path, "--out", str(out / "feas")]) == 0
    capsys.readouterr()
    assert main(["report", "--config", path, "--golden", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count(": verdict ") == 4


def test_pattern_verdicts_follow_the_table(tmp_path):
    table = tmp_path / "thresholds.txt"
    table.write_text("# published_average=250000\n0xff,0x00,single,200000\n0xff,0x00,double,120000\n"
                     "0x55,0x55,single,300000\n0x55,0x55,double,150000\n")
    out = tmp_path / "run"
    path = _write_cfg(tmp_path, f"[thresholds]\nsource = {table}\n")
    assert main(["feasibility", "--config", path, "--out", str(out)]) == 0
    lines = (out / "pattern_verdicts.csv").read_text().splitlines()
    assert lines[0] == "model,sparsity_pct,flips_55/55,flips_ff/00"
    rows = json.loads((out / "manifest.json").read_text())["summary"]["rows"]
    assert len(lines) == len(rows) + 1
    flags = set()
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == row["model"]
        assert cells[2:] == [str(row["e_act"] >= 300_000).lower(), str(row["e_act"] >= 200_000).lower()]
        flags.update(cells[2:])
        expected = "feasible" if row["e_act"] >= 250_000 else "marginal" if row["e_act"] >= 200_000 else "infeasible"
        assert row["verdict"] == expected
    assert flags == {"true", "false"}


def test_rate_mismatch_rejected_at_load(tmp_path, capsys):
    path = _write_cfg(tmp_path, "[channel]\ntarget_rate_hz = 8000\n")
    with pytest.raises(ConfigError, match="16000.*8000"):
        load_config(path)
    assert main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "16000" in err and "8000" in err


def test_model_sizes_rejected_at_load(tmp_path, capsys):
    bad = {"in_dim": 0, "hidden_dim": 0, "out_dim": -1, "n_clients": 0,
           "shard_size": 0, "learning_rate": -0.05}
    for key, value in bad.items():
        path = _write_cfg(tmp_path, f"[federation]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"\\[federation\\] {key} "):
            load_config(path)
        assert main(["train", "--config", path]) == 1, key
        assert f"[federation] {key} " in capsys.readouterr().err


def _threshold_source(text):
    """Config text, given tmp_path, whose [thresholds] source is a file holding text."""
    def config_text(tmp_path):
        path = tmp_path / "thresholds.txt"
        path.write_text(text)
        return f"[thresholds]\nsource = {path}\n"
    return config_text


# configs that load_config used to accept and that then failed part-way
# through the command named: case -> (command, config text or a function
# of tmp_path giving it, message)
REJECTED_AT_LOAD = {
    "minibatch_size zero": ("train", "[adversary]\nminibatch_size = 0\n", "minibatch_size"),
    "epochs zero": ("train", "[adversary]\nepochs = 0\n", "epochs"),
    "hidden1 negative": ("train", "[adversary]\nhidden1 = -1\n", "hidden1"),
    "hidden2 zero": ("train", "[adversary]\nhidden2 = 0\n", "hidden2"),
    "latent_dim zero": ("train", "[adversary]\nlatent_dim = 0\n", "latent_dim"),
    "window_len past the model": ("train", "[adversary]\nwindow_len = 100000\n", "window_len"),
    "window_len negative": ("train", "[adversary]\nwindow_len = -7\n", "window_len must be non-negative"),
    "latent_dim past in_dim": ("train", "[federation]\nin_dim = 24\n[adversary]\nlatent_dim = 30\n",
                               "latent_dim"),
    "stft_frame past in_dim": ("train", "[federation]\nin_dim = 24\n[adversary]\nstft_frame = 32\n",
                               "stft_frame"),
    "stft_hop zero": ("train", "[adversary]\nstft_hop = 0\n", "stft_hop"),
    "multiplier_high below multiplier_low": (
        "simulate", "[dram]\nmultiplier_low = 2.0\nmultiplier_high = 1.5\n", "multiplier_high"),
    "multiplier_low zero": ("simulate", "[dram]\nmultiplier_low = 0\n", "multiplier_low"),
    "vulnerable_probability past one": (
        "simulate", "[dram]\nvulnerable_probability = 1.5\n", "vulnerable_probability"),
    "capacity below the layout": ("simulate", "[memory]\ncapacity_bytes = 1048576\n", "huge pages"),
    "capacity negative": ("simulate", "[memory]\ncapacity_bytes = -1\n", "huge pages"),
    "capacity past the module": ("simulate", "[memory]\ncapacity_bytes = 1099511627776\n", "capacity_bytes"),
    "module smaller than a huge page": ("simulate", "[dram]\nrows_per_bank = 7\n", "huge pages"),
    "row larger than a huge page": ("simulate", "[dram]\nrow_size_bytes = 4194304\n", "row size"),
    "ingress_bytes zero": ("simulate", "[memory]\ningress_bytes = 0\n", "ingress_bytes"),
    "ingress smaller than an update": ("simulate", "[memory]\ningress_bytes = 16\n", "ingress_bytes"),
    "no activation per window": ("simulate", "[dram]\ntrc_effective_ns = 1e9\n", "trc_effective_s"),
    "metadata_bytes_per_entry negative": (
        "feasibility", "[metrics]\nmetadata_bytes_per_entry = -1\n", "metadata_bytes_per_entry"),
    "epsilon negative": ("train", "[adversary]\nepsilon = -1\n", "epsilon"),
    "row_fill past a byte": ("simulate", "[dram]\nrow_fill = 256\n", "row_fill"),
    "clip_ratio past one": ("train", "[adversary]\nclip_ratio = 1.5\n", "clip_ratio"),
    "discount past one": ("train", "[adversary]\ndiscount = 2\n", "discount"),
    "published_average below every threshold": (
        "feasibility", _threshold_source("# published_average=100000\n0xff,0x00,single,185000\n"
                                         "0xff,0x00,double,115000\n"), "published_average"),
    "threshold class missing a mode": (
        "train", _threshold_source("0xff,0x00,single,185000\n"), "missing a mode"),
    "threshold file missing": (
        "simulate", lambda tmp_path: f"[thresholds]\nsource = {tmp_path / 'absent.txt'}\n",
        "cannot read threshold file"),
    "noise_std not a number": ("train", "[channel]\nnoise_std = nan\n", "noise_std"),
    "learning_rate not a number": ("train", "[federation]\nlearning_rate = nan\n", "learning_rate"),
    "alpha infinite": ("train", "[adversary]\nalpha = inf\n", "alpha"),
    "act_cap overflows": ("simulate", "[dram]\nrefresh_period_s = 1e308\n", "bad [dram] settings"),
    "metadata_bytes negative": ("simulate", "[memory]\nmetadata_bytes = -64\n", "metadata_bytes"),
}


@pytest.mark.parametrize("case", list(REJECTED_AT_LOAD))
def test_config_that_would_fail_mid_run_is_rejected_at_load(tmp_path, capsys, case):
    command, text, message = REJECTED_AT_LOAD[case]
    path = _write_cfg(tmp_path, text(tmp_path) if callable(text) else text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


def test_load_config_draws_no_vulnerability_map(tmp_path, monkeypatch):
    # the [dram] range checks run without drawing a map the size of the module
    calls = []
    monkeypatch.setattr(VulnerabilityMap, "from_seed", classmethod(lambda cls, *a, **kw: calls.append(a)))
    load_config(None)
    load_config(_write_cfg(tmp_path, "[dram]\nrows_per_bank = 131072\nmultiplier_high = 1.3\n"))
    with pytest.raises(ConfigError, match="multiplier_high"):
        load_config(_write_cfg(tmp_path, "[dram]\nmultiplier_high = 0.5\n", "bad.ini"))
    assert calls == []


# A tiny train; every key of the sections train reads must change its output
LIVENESS_BASE = {
    "run": {"iterations": "2", "rounds_per_episode": "8"},
    "federation": {"in_dim": "24", "hidden_dim": "10", "shard_size": "6"},
    "adversary": {"stft_frame": "16", "stft_hop": "8", "warmup_rounds": "4"},
}
# key -> (non-default value, other keys it needs set in both runs)
LIVENESS_VALUES = {
    ("run", "seed"): ("2", {}),
    ("run", "iterations"): ("3", {}),
    ("run", "rounds_per_episode"): ("9", {}),
    ("run", "records_file"): ("other_records.txt", {}),
    ("federation", "in_dim"): ("20", {}),
    ("federation", "hidden_dim"): ("8", {}),
    ("federation", "out_dim"): ("2", {}),
    ("federation", "n_clients"): ("4", {}),
    ("federation", "shard_size"): ("5", {}),
    ("federation", "sparsity"): ("0.02", {}),
    ("federation", "learning_rate"): ("0.1", {}),
    ("channel", "modality"): ("image", {}),
    ("channel", "noise_std"): ("0.1", {}),
    # rates that keep 24 samples; 16001 Hz moves them too little to change a top-k set
    ("channel", "source_rate_hz"): ("15700", {}),
    ("channel", "target_rate_hz"): ("16300", {}),
    ("adversary", "latent_dim"): ("5", {}),
    ("adversary", "epsilon"): ("1.0", {}),
    ("adversary", "alpha"): ("0.5", {}),
    ("adversary", "beta"): ("0.5", {}),
    ("adversary", "gamma"): ("0.3", {}),
    ("adversary", "lambda1"): ("0.1", {}),
    ("adversary", "lambda2"): ("0.5", {}),
    ("adversary", "lambda_image"): ("0.4", {("channel", "modality"): "image"}),
    ("adversary", "stft_frame"): ("12", {}),
    ("adversary", "stft_hop"): ("4", {}),
    ("adversary", "hidden1"): ("8", {}),
    ("adversary", "hidden2"): ("8", {}),
    ("adversary", "learning_rate"): ("0.01", {}),
    ("adversary", "clip_ratio"): ("0.05", {}),
    ("adversary", "discount"): ("0.9", {}),
    ("adversary", "gae_lambda"): ("0.9", {}),
    ("adversary", "epochs"): ("2", {}),
    ("adversary", "minibatch_size"): ("4", {}),
    ("adversary", "entropy_coef"): ("0.1", {}),
    ("adversary", "value_coef"): ("0.5", {}),
    ("adversary", "log_std_init"): ("-1.0", {}),
    ("adversary", "max_grad_norm"): ("0", {}),
    ("adversary", "warmup_rounds"): ("3", {}),
    ("adversary", "window_len"): ("7", {}),
}
LIVENESS_SECTIONS = ("run", "federation", "channel", "adversary")


def _run_bytes(tmp_path, capsys, name, overrides, command="train", base=LIVENESS_BASE):
    """stdout and output files of a tiny run, less the bytes the config hash sets."""
    sections = {section: dict(keys) for section, keys in base.items()}
    for (section, key), value in overrides.items():
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in sections.items())
    out = tmp_path / name
    assert main([command, "--config", _write_cfg(tmp_path, text, f"{name}.ini"), "--out", str(out)]) == 0
    files = {"stdout": capsys.readouterr().out.encode()}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name in ("timing.txt", "config.txt"):
            continue  # wall clock, and the config itself
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["config_hash"]
            data = json.dumps(manifest, sort_keys=True).encode()
        elif path.name == "agent.ckpt":
            data = data[:8] + data[40:]  # bytes 8-40 hold the hash
        else:
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"# config_hash="))
        files[path.name] = data
    return files


def test_liveness_table_covers_the_sections_train_reads():
    assert set(LIVENESS_VALUES) == {(section, key) for section in LIVENESS_SECTIONS for key in SCHEMA[section]}
    for (section, key), (value, _) in LIVENESS_VALUES.items():
        assert value != str(SCHEMA[section][key][1]), (section, key)


@pytest.mark.parametrize("section", LIVENESS_SECTIONS)
def test_every_key_changes_train_output(tmp_path, capsys, section):
    bases = {}
    dead = []
    for (sec, key), (value, needs) in LIVENESS_VALUES.items():
        if sec != section:
            continue
        pairing = tuple(sorted(needs.items()))
        if pairing not in bases:
            bases[pairing] = _run_bytes(tmp_path, capsys, f"base{len(bases)}", needs)
        changed = _run_bytes(tmp_path, capsys, key, {**needs, (sec, key): value})
        if changed == bases[pairing]:
            dead.append(f"[{sec}] {key} = {value}")
    assert not dead, f"keys that change no output byte: {dead}"


def _edited_threshold_table(tmp_path):
    """A copy of the packaged threshold table with one count changed."""
    text = (Path(hammersim.__file__).parent / "data" / "thresholds_ddr4.txt").read_text()
    assert "0xff,0x00,single,185000\n" in text
    path = tmp_path / "thresholds.txt"
    path.write_text(text.replace("0xff,0x00,single,185000\n", "0xff,0x00,single,215000\n"))
    return str(path)


# keys of the sections only feasibility and simulate read, checked on feasibility
FEASIBILITY_LIVENESS = {
    ("metrics", "metadata_bytes_per_entry"): lambda tmp_path: "4",
    ("thresholds", "source"): _edited_threshold_table,
}


@pytest.mark.parametrize("key", list(FEASIBILITY_LIVENESS), ids="/".join)
def test_key_changes_feasibility_output(tmp_path, capsys, key):
    value = FEASIBILITY_LIVENESS[key](tmp_path)
    base = _run_bytes(tmp_path, capsys, "base", {}, command="feasibility", base={})
    changed = _run_bytes(tmp_path, capsys, "changed", {key: value}, command="feasibility", base={})
    assert changed != base, f"[{key[0]}] {key[1]} = {value} changes no output byte"


def _trained_simulate_base(tmp_path, capsys):
    """LIVENESS_BASE with a low threshold table, and a tiny train's records for simulate."""
    records = tmp_path / "records.txt"
    table = tmp_path / "thresholds.txt"
    table.write_text("".join(f"{victim},{aggressor},{mode},{count}\n" for victim, aggressor, counts in (
        ("0x00", "0x00", (6, 4)), ("0xff", "0x00", (5, 3)), ("0x55", "0x55", (7, 5)))
        for mode, count in zip(("single", "double"), counts)))
    base = {**LIVENESS_BASE, "run": {**LIVENESS_BASE["run"], "records_file": str(records)},
            "thresholds": {"source": str(table)}}
    _run_bytes(tmp_path, capsys, "train", {}, base=base)
    return base


def test_row_fill_changes_simulate_flips(tmp_path, capsys):
    """The module fill alone picks the threshold class of every flip."""
    base = _trained_simulate_base(tmp_path, capsys)
    flips = {}
    for fill in ("0x00", "0xff"):
        files = _run_bytes(tmp_path, capsys, f"sim-{fill}", {("dram", "row_fill"): fill},
                           command="simulate", base=base)
        rows = [line.split(",") for line in files["flips.txt"].decode().splitlines()
                if not line.startswith("#")]
        assert rows, fill
        flips[fill] = ({row[5] for row in rows}, {row[6] for row in rows})
    # (0x00, 0x00) flips at 6 or 4 with no differing bit; 0xff is nearest
    # (0xff, 0x00), which flips at 5 or 3 on all eight bits
    assert flips["0x00"][0] <= {"6", "4"} and flips["0x00"][1] == {""}
    assert flips["0xff"][0] <= {"5", "3"} and flips["0xff"][1] == {"0;1;2;3;4;5;6;7"}


# keys of the sections simulate reads -> (non-default value, other keys it
# needs set in both runs); row_fill has its own test above
SIMULATE_LIVENESS = {
    ("memory", "capacity_bytes"): ("536870912", {}),
    ("memory", "ingress_bytes"): ("128", {("dram", "row_size_bytes"): "256"}),
    ("memory", "metadata_bytes"): ("9000", {}),
    ("dram", "refresh_period_s"): ("0.032", {}),
    ("dram", "ref_commands"): ("67108864", {}),
    ("dram", "data_rate_mts"): ("3200", {}),
    ("dram", "bit_width"): ("32", {}),
    ("dram", "bank_count"): ("8", {}),
    ("dram", "rows_per_bank"): ("16384", {}),
    ("dram", "row_size_bytes"): ("4096", {}),
    ("dram", "bank_xor"): ("false", {}),
    ("dram", "vulnerable_probability"): ("0.5", {}),
    ("dram", "multiplier_low"): ("0.8", {}),
    ("dram", "multiplier_high"): ("1.3", {}),
    ("metrics", "metadata_bytes_per_entry"): ("4", {}),
}
# keys that act only across whole refresh windows, which the tiny base's
# 8 rounds do not span; they wait for simulate to replay whole windows
SIMULATE_WAITING = {("dram", "trc_effective_ns"), ("dram", "trr_capacity"), ("dram", "trr_neighbor_radius")}


def test_liveness_table_covers_the_sections_simulate_reads():
    covered = set(SIMULATE_LIVENESS) | SIMULATE_WAITING | {("dram", "row_fill")}
    assert covered == {(section, key) for section in ("memory", "dram", "metrics") for key in SCHEMA[section]}
    for (section, key), (value, _) in SIMULATE_LIVENESS.items():
        assert value != str(SCHEMA[section][key][1]).lower(), (section, key)


def test_every_key_changes_simulate_output(tmp_path, capsys):
    base = _trained_simulate_base(tmp_path, capsys)
    bases = {}
    dead = []
    for (section, key), (value, needs) in SIMULATE_LIVENESS.items():
        pairing = tuple(sorted(needs.items()))
        if pairing not in bases:
            bases[pairing] = _run_bytes(tmp_path, capsys, f"sim-base{len(bases)}", needs,
                                        command="simulate", base=base)
        changed = _run_bytes(tmp_path, capsys, f"sim-{key}", {**needs, (section, key): value},
                             command="simulate", base=base)
        if changed == bases[pairing]:
            dead.append(f"[{section}] {key} = {value}")
    assert not dead, f"keys that change no simulate output byte: {dead}"


def test_config_error_exit(tmp_path, capsys):
    path = _write_cfg(tmp_path, "[run]\nbogus = 1\n")
    assert main(["feasibility", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["train", "--baseline", "zeros"]) == 1
    capsys.readouterr()


def test_feasibility_output_files(tmp_path):
    out = tmp_path / "run"
    assert main(["feasibility", "--seed", "7", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "feasibility"
    assert manifest["seed"] == 7
    assert manifest["config_hash"] == load_config(None, {("run", "seed"): 7}).hash_hex
    for name in manifest["outputs"].values():
        assert (out / name).exists()
    rows = manifest["summary"]["rows"]
    assert len(rows) == 8
    assert all(r["verdict"] in ("feasible", "marginal", "infeasible") for r in rows)
    assert (out / "timing.txt").exists()


def _dir_bytes(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["feasibility", "--out", str(a)]) == 0
    assert main(["feasibility", "--out", str(b)]) == 0
    fa, fb = _dir_bytes(a), _dir_bytes(b)
    assert fa.keys() == fb.keys()
    for name in fa:
        if name == "timing.txt":
            continue  # wall clock lives outside the deterministic set
        assert fa[name] == fb[name], name


def test_simulate_timing_lists_its_stages(tmp_path, capsys):
    base = _trained_simulate_base(tmp_path, capsys)
    runs = [_run_bytes(tmp_path, capsys, name, {}, command="simulate", base=base) for name in ("a", "b")]
    assert runs[0] == runs[1]
    manifests = [(tmp_path / name / "manifest.json").read_bytes() for name in ("a", "b")]
    assert manifests[0] == manifests[1]
    assert set(json.loads(manifests[0])["summary"]) == {
        "rounds", "total_events", "total_acts", "h_max_analytic", "measured_max_row_acts", "act_ratio", "flips"}
    for name in ("a", "b"):
        timing = dict(line.split("=") for line in (tmp_path / name / "timing.txt").read_text().splitlines())
        assert list(timing) == ["elapsed_seconds", "trace_seconds", "engine_seconds", "peak_rss_mb"]
        elapsed, trace, engine, _ = map(float, timing.values())
        assert min(trace, engine) >= 0 and trace + engine <= elapsed + 0.002


def test_timing_ends_with_peak_rss(tmp_path):
    # every command's timing.txt ends with the process's peak RSS in MiB
    assert main(["feasibility", "--out", str(tmp_path)]) == 0
    name, value = (tmp_path / "timing.txt").read_text().splitlines()[-1].split("=")
    assert name == "peak_rss_mb" and float(value) > 0


def test_simulate_requires_records(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", str(tmp_path / "sim")]) == 1
    assert "records file" in capsys.readouterr().err


def test_simulate_rejects_records_of_another_model(tmp_path, capsys):
    records = tmp_path / "records.txt"

    def cfg(name, hidden_dim):
        return _write_cfg(tmp_path, f"""\
            [run]
            iterations = 1
            rounds_per_episode = 8
            records_file = {records}

            [federation]
            in_dim = 24
            hidden_dim = {hidden_dim}
            shard_size = 6

            [adversary]
            stft_frame = 16
            stft_hop = 8
            warmup_rounds = 4
            """, name)

    assert main(["train", "--config", cfg("train.ini", 10), "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    total = 24 * 10 + 10 + 10 * 3 + 3  # w1, b1, w2, b2 with the default 3 outputs
    assert f"# total_params={total}\n" in records.read_text()
    # a larger model holds every recorded index, a smaller one does not;
    # both are a different model from the one that wrote the records
    for name, hidden_dim in (("larger", 40), ("smaller", 2)):
        out = tmp_path / f"sim-{name}"
        assert main(["simulate", "--config", cfg(f"{name}.ini", hidden_dim), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"written for a {total}-parameter model" in err, err
        assert not out.exists()
    assert main(["simulate", "--config", cfg("same.ini", 10), "--out", str(tmp_path / "sim-same")]) == 0


BAD_RECORDS = {
    "negative index": ("0 -1 3 5\n", "records file {path!r}: round 0: index -1 outside the model [0, 283)"),
    "index past the model": ("1 3 999\n", "records file {path!r}: round 1: index 999 outside the model [0, 283)"),
    "not a number": ("0 x 3\n", "bad records file {path!r}: {path}:1: bad record line"),
    "round without indices": ("7\n", "records file {path!r}: round 7: empty record"),
    "no rounds": ("# total_params=283\n", "records file {path!r}: no rounds to replay"),
    "negative round": ("-3 1 2\n", "bad records file {path!r}: {path}:1: negative round -3"),
    "repeated round": ("4 1 2\n5 3\n4 1 2\n", "bad records file {path!r}: {path}:3: repeated round 4"),
}

SIM_CONFIG = """\
    [run]
    records_file = {records}

    [federation]
    in_dim = 24
    hidden_dim = 10

    [adversary]
    stft_frame = 16
    stft_hop = 8
    """


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_simulate_rejects_a_bad_records_file(tmp_path, capsys, case):
    text, message = BAD_RECORDS[case]
    records = tmp_path / "records.txt"
    records.write_text(text)
    cfg = _write_cfg(tmp_path, SIM_CONFIG.format(records=records))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message.format(path=str(records))}\n" == err, err
    assert not out.exists()


def test_simulate_checks_every_round_before_the_engine(tmp_path, capsys, monkeypatch):
    # the last of 10,000 rounds holds an index past the 283-parameter model
    records = tmp_path / "records.txt"
    lines = [f"{r} {r % 200} {r % 200 + 3} 250" for r in range(9999)] + ["9999 3 999"]
    records.write_text("# total_params=283\n" + "\n".join(lines) + "\n")
    fed = []
    monkeypatch.setattr(dram._ColumnEngine, "feed", lambda *args: fed.append(args))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", _write_cfg(tmp_path, SIM_CONFIG.format(records=records)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: records file {str(records)!r}: round 9999: index 999 outside the model [0, 283)\n"
    assert not out.exists() and fed == []


def test_simulate_rejects_a_round_larger_than_the_ingress_queue(tmp_path, capsys):
    # the config's own updates fit the queue (5 clients x 3 entries, 60
    # bytes), but the records file was written by a run with denser rounds
    records = tmp_path / "records.txt"
    records.write_text("# total_params=283\n0 1 2 3\n5 " + " ".join(map(str, range(200))) + "\n")
    cfg = _write_cfg(tmp_path, SIM_CONFIG.format(records=records) + "[memory]\n    ingress_bytes = 64\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: records file {str(records)!r}: "
                   "round 5: an update of 800 bytes does not fit the 64-byte ingress queue\n"), err
    assert not out.exists()


def test_report_without_manifests(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_on_mixed_config_hashes_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, """\
        [dram]
        row_fill = 255
        """)
    assert main(["feasibility", "--out", str(tmp_path / "runs" / "a")]) == 0
    assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / "runs" / "b")]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "runs")]) == 1
    assert "conflicting config hashes" in capsys.readouterr().err


def test_report_golden_without_feasibility_run(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        """\
        [run]
        iterations = 1
        rounds_per_episode = 8

        [federation]
        in_dim = 24
        hidden_dim = 10
        shard_size = 6

        [adversary]
        stft_frame = 16
        stft_hop = 8
        warmup_rounds = 4
        """,
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfg, "--golden", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "no feasibility run" in captured.err
    assert "all values match" not in captured.out


def test_train_simulate_report_end_to_end(tmp_path, capsys):
    records = tmp_path / "records.txt"
    cfg = _write_cfg(
        tmp_path,
        f"""\
        [run]
        seed = 5
        iterations = 3
        rounds_per_episode = 15
        records_file = {records}

        [federation]
        in_dim = 30
        hidden_dim = 12
        shard_size = 8

        [adversary]
        stft_frame = 16
        stft_hop = 8
        """,
    )
    train_dir = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(train_dir)]) == 0
    assert "mode=ppo" in capsys.readouterr().out
    assert (train_dir / "training_log.csv").exists()
    assert (train_dir / "agent.ckpt").exists()
    assert records.exists()

    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
    assert "rounds=15" in capsys.readouterr().out
    assert (sim_dir / "flips.txt").exists()
    assert (sim_dir / "windows.csv").exists()

    assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / "feas")]) == 0
    capsys.readouterr()

    assert main(["report", "--config", cfg, "--golden", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "config_hash:" in out
    assert "golden check: all values match" in out
    merged = json.loads((tmp_path / "report.json").read_text())
    assert len(merged["runs"]) == 3
    assert {r["command"] for r in merged["runs"]} == {"train", "simulate", "feasibility"}

    # a different seed means a different config hash; merging must refuse
    assert main(["report", "--config", cfg, "--seed", "999", "--out", str(tmp_path)]) == 1
    assert "different config" in capsys.readouterr().err


def _child_env():
    """Environment whose PYTHONPATH leads with the directory holding the
    imported ``hammersim``, so a child process runs the code under test
    whatever its working directory."""
    package_root = str(Path(hammersim.__file__).resolve().parent.parent)
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def _run_golden_feasibility(cmd, tmp_path):
    """Run ``cmd feasibility --golden`` as its own process and check it passes."""
    proc = subprocess.run(
        [*cmd, "feasibility", "--golden"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path, timeout=120,
    )
    detail = f"{cmd} exited {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, detail
    assert "golden check: all values match" in proc.stdout, detail


def test_console_script_installed(tmp_path):
    # an installed console script, where there is one, must work as shipped
    script = shutil.which("hammersim")
    if script is not None:
        _run_golden_feasibility([script], tmp_path)

    # the entry declared in pyproject.toml, run the way the generated
    # wrapper runs it, so a renamed or dangling entry fails without an install
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "hammersim" in scripts, f"no hammersim entry in [project.scripts]: {scripts}"
    module, sep, attr = scripts["hammersim"].partition(":")
    assert sep and module and attr.isidentifier(), scripts["hammersim"]
    wrapper = (
        f"import sys; sys.argv[0] = 'hammersim'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    _run_golden_feasibility([sys.executable, "-c", wrapper], tmp_path)


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(hammersim.__path__)]
    assert "federation" in modules and "cli" in modules
    for name in modules:
        module = importlib.import_module(f"hammersim.{name}")
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), f"hammersim.{name}.__all__ repeats a name"
        stale = [attr for attr in exported if not hasattr(module, attr)]
        assert not stale, f"hammersim.{name}.__all__ names missing {stale}"


def test_package_imports_numpy_only(tmp_path):
    # every module of the package, imported in a fresh interpreter, pulls
    # in nothing beyond the standard library and numpy
    code = textwrap.dedent("""\
        import importlib, json, pkgutil, sys
        before = set(sys.modules)
        import hammersim
        names = [m.name for m in pkgutil.iter_modules(hammersim.__path__)]
        for name in names:
            importlib.import_module("hammersim." + name)
        print(json.dumps({"modules": names, "scipy": "scipy" in sys.modules,
                          "new": sorted({m.split(".")[0] for m in set(sys.modules) - before})}))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "cli" in found["modules"] and "training" in found["modules"]
    assert not found["scipy"]
    foreign = set(found["new"]) - set(sys.stdlib_module_names) - {"hammersim", "numpy"}
    assert not foreign, f"hammersim imports {sorted(foreign)}"
