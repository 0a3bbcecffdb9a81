"""Physical-channel emulation between a perturbation source and a sensor.

A low-dimensional latent action is decoded to an input-shaped perturbation,
clipped to an L-infinity budget, and pushed through a lossy audio channel:
additive Gaussian noise plus linear resampling.  Every client input goes
through the audio channel; the modality only selects the stealth term of
the adversary's reward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "decode_latent",
    "clip_linf",
    "resampled_length",
    "audio_channel",
    "stft",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters.

    Zero-mean Gaussian noise with noise_std is added before linear
    resampling from source_rate_hz to target_rate_hz.  modality ("audio"
    or "image") selects the adversary's perceptibility measure.
    """

    modality: str = "audio"
    noise_std: float = 0.0
    source_rate_hz: int = 16_000
    target_rate_hz: int = 16_000

    def __post_init__(self) -> None:
        if self.modality not in ("audio", "image"):
            raise ValueError(f"modality must be 'audio' or 'image', got {self.modality!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.source_rate_hz <= 0 or self.target_rate_hz <= 0:
            raise ValueError("sample rates must be positive")


def decode_latent(z: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
    """Segment-hold upsampling of a latent action to an input-shaped perturbation.

    Latent component i covers samples [floor(i*L/d), floor((i+1)*L/d)) of
    the 1-D target of length L.  Linear in z; no clipping here.
    """
    z = np.asarray(z, dtype=np.float64)
    if len(target_shape) != 1:
        raise ValueError(f"unsupported target rank {len(target_shape)}")
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"1-D target needs a flat nonempty latent, got shape {z.shape}")
    (length,) = target_shape
    if length < z.size:
        raise ValueError(f"latent dim {z.size} exceeds target length {length}")
    seg = (np.arange(length) * z.size) // length
    return z[seg]


def clip_linf(delta: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise clamp of a perturbation to [-epsilon, epsilon]."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return np.clip(np.asarray(delta, dtype=np.float64), -epsilon, epsilon)


def resampled_length(n: int, source_rate: int, target_rate: int) -> int:
    """Sample count of an n-sample signal after linear resampling."""
    return int(round(n * target_rate / source_rate))


def audio_channel(
    x: np.ndarray,
    delta: np.ndarray,
    cfg: ChannelConfig,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Air-gap audio path over a client stack: x + delta + noise, then resampling.

    x is (C, n, L): n signals of L samples for each of C clients.  delta
    is (C, L), one perturbation per client, added to every one of its
    signals.  noise is the (C, n, L) channel noise, drawn with standard
    deviation cfg.noise_std, or None when noise_std is 0; it is added
    after delta.  Linear resampling from source_rate_hz to target_rate_hz
    places output sample i at source position i * source/target; positions
    past the last input sample clamp to it.  With delta = 0, no noise and
    equal rates this is the identity map.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"audio stack must be (clients, signals, samples), got shape {x.shape}")
    clients, _, length = x.shape
    if delta.shape != (clients, length):
        raise ValueError(f"delta shape {delta.shape} does not match stack {x.shape}")
    if (noise is None) != (cfg.noise_std == 0):
        raise ValueError(f"noise must be given exactly when noise_std > 0 (noise_std = {cfg.noise_std})")
    y = x + delta[:, None, :]
    if noise is not None:
        if np.shape(noise) != x.shape:
            raise ValueError(f"noise shape {np.shape(noise)} does not match stack {x.shape}")
        y = y + noise
    if cfg.source_rate_hz != cfg.target_rate_hz:
        out_len = resampled_length(length, cfg.source_rate_hz, cfg.target_rate_hz)
        pos = np.arange(out_len) * (cfg.source_rate_hz / cfg.target_rate_hz)
        grid = np.arange(length)
        rows = [np.interp(pos, grid, row) for row in y.reshape(-1, length)]
        y = np.reshape(rows, y.shape[:2] + (out_len,))
    return y


def stft(x: np.ndarray, frame_len: int = 256, hop: int = 128) -> np.ndarray:
    """Short-time Fourier transform, Hann window, one-sided spectrum.

    Returns a complex array of shape (n_frames, frame_len // 2 + 1) with
    n_frames = 1 + (len(x) - frame_len) // hop.  No padding: the signal
    must be at least one frame long.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"stft input must be 1-D, got shape {x.shape}")
    if frame_len <= 0 or hop <= 0:
        raise ValueError("frame_len and hop must be positive")
    if x.size < frame_len:
        raise ValueError(f"signal of length {x.size} shorter than one frame ({frame_len})")
    window = np.hanning(frame_len)
    n_frames = 1 + (x.size - frame_len) // hop
    starts = np.arange(n_frames) * hop
    frames = x[starts[:, None] + np.arange(frame_len)[None, :]]
    return np.fft.rfft(frames * window[None, :], axis=1)
