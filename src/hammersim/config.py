"""Experiment configuration: sectioned key/value files with a fixed schema.

Files use INI-style sections.  Every key has a declared type and default;
unknown sections or keys are rejected so that typos fail loudly.  The
effective (post-default, post-override) configuration has a canonical
text form whose SHA-256 ties every output file to the run that made it.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from fractions import Fraction
from typing import Any, Callable, TypeVar

from .adversary import PolicyConfig, RewardConfig
from .channel import ChannelConfig, resampled_length
from .dram import (DramConfig, RowContents, ThresholdTable, TrrConfig, VulnerabilityMap, builtin_thresholds,
                   read_threshold_file)
from .federation import PARAM_BITS, ModelSpec, make_mlp_spec
from .memlayout import DramMapping, MemoryLayout, build_layout
from .metrics import BandwidthModel, topk_count, update_bytes

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "SCHEMA"]


T = TypeVar("T")


class ConfigError(ValueError):
    """Bad configuration file or values (CLI exit code 1)."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_decimal(text: str) -> str:
    """Validate a decimal literal kept verbatim for exact arithmetic."""
    Fraction(text.strip())
    return text.strip()


_PARSERS = {
    "int": lambda s: int(s, 0),
    "float": _parse_float,
    "str": lambda s: s.strip(),
    "bool": _parse_bool,
    "decimal": _parse_decimal,
}

# section -> key -> (type, default)
SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "run": {
        "seed": ("int", 1),
        "iterations": ("int", 100),
        "rounds_per_episode": ("int", 100),
        "records_file": ("str", "records.txt"),
    },
    "federation": {
        "in_dim": ("int", 100),
        "hidden_dim": ("int", 96),
        "out_dim": ("int", 3),
        "n_clients": ("int", 5),
        "shard_size": ("int", 32),
        "sparsity": ("decimal", "0.01"),
        "learning_rate": ("float", 0.05),
    },
    "channel": {
        "modality": ("str", "audio"),
        "noise_std": ("float", 0.05),
        "source_rate_hz": ("int", 16000),
        "target_rate_hz": ("int", 16000),
    },
    # PPO knobs here are the desk-scale profile: tight credit horizon and
    # no value/entropy terms, which the short quasi-stationary episodes
    # need; the PolicyConfig dataclass keeps the conventional defaults.
    "adversary": {
        "latent_dim": ("int", 10),
        "epsilon": ("float", 3.0),
        "alpha": ("float", 1.0),
        "beta": ("float", 0.8),
        "gamma": ("float", 0.6),
        "lambda1": ("float", 0.05),
        "lambda2": ("float", 0.25),
        "lambda_image": ("float", 0.8),
        "stft_frame": ("int", 32),
        "stft_hop": ("int", 16),
        "hidden1": ("int", 64),
        "hidden2": ("int", 64),
        "learning_rate": ("float", 0.001),
        "clip_ratio": ("float", 0.2),
        "discount": ("float", 0.5),
        "gae_lambda": ("float", 0.5),
        "epochs": ("int", 4),
        "minibatch_size": ("int", 25),
        "entropy_coef": ("float", 0.0),
        "value_coef": ("float", 0.0),
        "log_std_init": ("float", -0.5),
        "max_grad_norm": ("float", 0.5),
        "warmup_rounds": ("int", 10),
        "window_len": ("int", 0),
    },
    "memory": {
        "capacity_bytes": ("int", 0),
        "ingress_bytes": ("int", 1048576),
        "metadata_bytes": ("int", 64),
    },
    "dram": {
        "refresh_period_s": ("float", 0.064),
        "ref_commands": ("int", 8192),
        "trc_effective_ns": ("float", 49.0),
        "data_rate_mts": ("int", 2400),
        "bit_width": ("int", 64),
        "bank_count": ("int", 16),
        "rows_per_bank": ("int", 8192),
        "row_size_bytes": ("int", 8192),
        "bank_xor": ("bool", True),
        "trr_capacity": ("int", 4),
        "trr_neighbor_radius": ("int", 1),
        "vulnerable_probability": ("float", 0.95),
        "multiplier_low": ("float", 1.0),
        "multiplier_high": ("float", 1.0),
        "row_fill": ("int", 0x00),
    },
    "thresholds": {
        "source": ("str", "builtin"),
    },
    "metrics": {
        "metadata_bytes_per_entry": ("int", 0),
    },
}


def _built(section: str, make: Callable[[], T]) -> T:
    """make(), its ValueError or ArithmeticError reported as a ConfigError against the config section."""
    try:
        return make()
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad [{section}] settings: {exc}") from exc


class ExperimentConfig:
    """Validated configuration with typed accessors and a stable hash; only load_config makes one."""

    def __init__(self, values: dict[tuple[str, str], Any]):
        self._values = dict(values)

    def get(self, section: str, key: str) -> Any:
        try:
            return self._values[(section, key)]
        except KeyError:
            raise ConfigError(f"no config key [{section}] {key}") from None

    def normalized_text(self) -> str:
        """Canonical serialization: schema order, one key per line."""
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (kind, _) in keys.items():
                value = self._values[(section, key)]
                if kind == "bool":
                    value = "true" if value else "false"
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    @property
    def hash_bytes(self) -> bytes:
        return hashlib.sha256(self.normalized_text().encode("ascii")).digest()

    @property
    def hash_hex(self) -> str:
        return self.hash_bytes.hex()

    # -- typed builders -------------------------------------------------
    def channel_config(self) -> ChannelConfig:
        g = self.get
        return _built("channel", lambda: ChannelConfig(
            modality=g("channel", "modality"),
            noise_std=g("channel", "noise_std"),
            source_rate_hz=g("channel", "source_rate_hz"),
            target_rate_hz=g("channel", "target_rate_hz"),
        ))

    def reward_config(self) -> RewardConfig:
        g = self.get
        return _built("adversary", lambda: RewardConfig(
            alpha=g("adversary", "alpha"),
            beta=g("adversary", "beta"),
            gamma=g("adversary", "gamma"),
            lambda1=g("adversary", "lambda1"),
            lambda2=g("adversary", "lambda2"),
            lambda_image=g("adversary", "lambda_image"),
            stft_frame=g("adversary", "stft_frame"),
            stft_hop=g("adversary", "stft_hop"),
        ))

    def policy_config(self, obs_dim: int, action_dim: int) -> PolicyConfig:
        g = self.get
        return _built("adversary", lambda: PolicyConfig(
            obs_dim=obs_dim,
            action_dim=action_dim,
            hidden1=g("adversary", "hidden1"),
            hidden2=g("adversary", "hidden2"),
            learning_rate=g("adversary", "learning_rate"),
            clip_ratio=g("adversary", "clip_ratio"),
            discount=g("adversary", "discount"),
            gae_lambda=g("adversary", "gae_lambda"),
            epochs=g("adversary", "epochs"),
            minibatch_size=g("adversary", "minibatch_size"),
            entropy_coef=g("adversary", "entropy_coef"),
            value_coef=g("adversary", "value_coef"),
            log_std_init=g("adversary", "log_std_init"),
            max_grad_norm=g("adversary", "max_grad_norm"),
        ))

    def model_spec(self) -> ModelSpec:
        g = self.get
        return _built("federation", lambda: make_mlp_spec(
            g("federation", "in_dim"), g("federation", "hidden_dim"), g("federation", "out_dim")))

    def dram_config(self) -> DramConfig:
        g = self.get
        return _built("dram", lambda: DramConfig(
            refresh_period_s=g("dram", "refresh_period_s"),
            ref_commands=g("dram", "ref_commands"),
            trc_effective_s=g("dram", "trc_effective_ns") * 1e-9,
        ))

    def dram_mapping(self) -> DramMapping:
        g = self.get
        return _built("dram", lambda: DramMapping(
            bank_count=g("dram", "bank_count"),
            rows_per_bank=g("dram", "rows_per_bank"),
            row_size_bytes=g("dram", "row_size_bytes"),
            bank_xor=g("dram", "bank_xor"),
        ))

    def layout(self, seed: int) -> MemoryLayout:
        """The server's buffers placed in the module; seed draws the page frames."""
        g = self.get
        spec, mapping = self.model_spec(), self.dram_mapping()
        return _built("memory", lambda: build_layout(
            spec, g("memory", "capacity_bytes") or None, mapping, seed,
            ingress_bytes=g("memory", "ingress_bytes"),
            metadata_bytes=g("memory", "metadata_bytes"),
        ))

    def vulnerability_map(self, seed: int) -> VulnerabilityMap:
        mapping = self.dram_mapping()
        return _built("dram", lambda: VulnerabilityMap.from_seed(mapping, seed, *self._vulnerability()))

    def _vulnerability(self) -> tuple[float, float, float]:
        """[dram] vulnerable_probability, multiplier_low and multiplier_high."""
        keys = ("vulnerable_probability", "multiplier_low", "multiplier_high")
        return tuple(self.get("dram", key) for key in keys)

    def row_contents(self) -> RowContents:
        return _built("dram", lambda: RowContents(self.get("dram", "row_fill")))

    def trr_config(self) -> TrrConfig:
        g = self.get
        return _built("dram", lambda: TrrConfig(
            capacity=g("dram", "trr_capacity"),
            neighbor_radius=g("dram", "trr_neighbor_radius"),
        ))

    def bandwidth(self) -> BandwidthModel:
        g = self.get
        return _built("dram", lambda: BandwidthModel(g("dram", "data_rate_mts"), g("dram", "bit_width")))

    def threshold_table(self) -> ThresholdTable:
        source = self.get("thresholds", "source")
        if source == "builtin":
            return builtin_thresholds()
        try:
            return read_threshold_file(source)
        except OSError as exc:
            raise ConfigError(f"cannot read threshold file {source!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad threshold file {source!r}: {exc}") from exc


def load_config(path: str | None = None,
                overrides: dict[tuple[str, str], Any] | None = None) -> ExperimentConfig:
    """Parse a config file (None: the defaults), apply overrides {(section, key): value} as text, validate."""
    values: dict[tuple[str, str], Any] = {
        (section, key): default
        for section, keys in SCHEMA.items()
        for key, (_, default) in keys.items()
    }
    texts: list[tuple[str, str, str, str]] = []  # (origin, section, key, raw text)
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as f:
                parser.read_file(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
                texts.append((path, section, key, raw))
    for (section, key), value in (overrides or {}).items():
        if (section, key) not in values:
            raise ConfigError(f"no config key [{section}] {key}")
        texts.append(("override", section, key, str(value)))
    for origin, section, key, raw in texts:
        kind, _ = SCHEMA[section][key]
        try:
            values[(section, key)] = _PARSERS[kind](raw)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{origin}: bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    cfg = ExperimentConfig(values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    g = cfg.get
    if g("run", "iterations") <= 0 or g("run", "rounds_per_episode") <= 0:
        raise ConfigError("[run] iterations and rounds_per_episode must be positive")
    for key in ("in_dim", "hidden_dim", "out_dim", "n_clients", "shard_size"):
        if g("federation", key) <= 0:
            raise ConfigError(f"[federation] {key} must be positive, got {g('federation', key)}")
    if g("federation", "learning_rate") < 0:
        raise ConfigError(
            f"[federation] learning_rate must be non-negative, got {g('federation', 'learning_rate')}")
    if g("adversary", "warmup_rounds") <= 0:
        raise ConfigError(f"[adversary] warmup_rounds must be positive, got {g('adversary', 'warmup_rounds')}")
    if g("adversary", "warmup_rounds") > g("run", "rounds_per_episode"):
        raise ConfigError("[adversary] warmup_rounds exceeds rounds_per_episode")
    if g("adversary", "epsilon") < 0:
        raise ConfigError(f"[adversary] epsilon must be non-negative, got {g('adversary', 'epsilon')}")
    # build every run object once so its own range checks run at load time;
    # the seed only draws page frames and susceptible rows
    channel = cfg.channel_config()
    reward = cfg.reward_config()
    spec = cfg.model_spec()
    in_dim = g("federation", "in_dim")
    cfg.policy_config(in_dim + spec.total_params, g("adversary", "latent_dim"))
    cfg.dram_config()
    cfg.trr_config()
    cfg.bandwidth()
    cfg.dram_mapping()
    _built("dram", lambda: VulnerabilityMap.check_parameters(*cfg._vulnerability()))
    cfg.row_contents()
    cfg.threshold_table()
    # every client row goes through the resampler before local training,
    # which needs exactly in_dim samples back
    resampled = resampled_length(in_dim, channel.source_rate_hz, channel.target_rate_hz)
    if resampled != in_dim:
        raise ConfigError(
            f"[channel] source_rate_hz = {channel.source_rate_hz} and target_rate_hz = "
            f"{channel.target_rate_hz} resample the {in_dim}-sample input to {resampled} "
            f"samples, but the model takes [federation] in_dim = {in_dim}"
        )
    # the latent action is upsampled to one input row
    if g("adversary", "latent_dim") > in_dim:
        raise ConfigError(
            f"[adversary] latent_dim = {g('adversary', 'latent_dim')} exceeds [federation] in_dim = {in_dim}")
    # the audio stealth term takes the spectrum of one input row
    if channel.modality == "audio" and reward.lambda1 != 0.0:
        if reward.stft_frame <= 0 or reward.stft_hop <= 0:
            raise ConfigError("[adversary] stft_frame and stft_hop must be positive when lambda1 != 0")
        if reward.stft_frame > in_dim:
            raise ConfigError(
                f"[adversary] stft_frame = {reward.stft_frame} is longer than the {in_dim}-sample "
                f"input ([federation] in_dim); lambda1 != 0 needs one full frame")

    # 0 picks the default target window (see training.train)
    if g("adversary", "window_len") < 0:
        raise ConfigError(f"[adversary] window_len must be non-negative, got {g('adversary', 'window_len')}")
    if g("adversary", "window_len") > spec.total_params:
        raise ConfigError(
            f"[adversary] window_len = {g('adversary', 'window_len')} exceeds the "
            f"model's {spec.total_params} parameters")
    # the buffers simulate lays out must fit the module, and the ingress
    # queue must hold the largest update train can record: the union of
    # every client's top-k set
    cfg.layout(0)
    k = _built("federation", lambda: topk_count(g("federation", "sparsity"), spec.total_params))
    entries = min(spec.total_params, g("federation", "n_clients") * k)
    largest = _built("metrics", lambda: update_bytes(entries, PARAM_BITS, g("metrics", "metadata_bytes_per_entry")))
    if largest > g("memory", "ingress_bytes"):
        raise ConfigError(
            f"[memory] ingress_bytes = {g('memory', 'ingress_bytes')} cannot hold an update of "
            f"{entries} entries ({largest} bytes)")
