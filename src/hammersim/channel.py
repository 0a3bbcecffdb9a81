"""Physical-channel emulation between a perturbation source and a sensor.

A low-dimensional latent action is decoded to an input-shaped perturbation,
clipped to an L-infinity budget, and pushed through a lossy channel model:
additive Gaussian noise plus linear resampling for audio-like 1-D signals,
or a print-and-photograph style pipeline (blur, paper texture, gamma,
rescale) for images.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

__all__ = [
    "ChannelConfig",
    "decode_latent",
    "clip_linf",
    "resampled_length",
    "audio_channel",
    "emulate_image_channel",
    "stft",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters for both modalities.

    Audio: zero-mean Gaussian noise with noise_std is added before linear
    resampling from source_rate_hz to target_rate_hz.
    Image: blur_radius selects a box blur of size 2r+1, texture_strength
    scales a seeded multiplicative texture field, gamma_value applies a
    power-law map, rescale_factor is a down/up-scale round trip.
    """

    modality: str = "audio"
    noise_std: float = 0.0
    source_rate_hz: int = 16_000
    target_rate_hz: int = 16_000
    blur_radius: int = 0
    texture_strength: float = 0.0
    gamma_value: float = 1.0
    rescale_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.modality not in ("audio", "image"):
            raise ValueError(f"modality must be 'audio' or 'image', got {self.modality!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.source_rate_hz <= 0 or self.target_rate_hz <= 0:
            raise ValueError("sample rates must be positive")
        if self.blur_radius < 0:
            raise ValueError("blur_radius must be >= 0")
        if not 0 <= self.texture_strength <= 1:
            raise ValueError("texture_strength must be in [0, 1]")
        if self.gamma_value <= 0:
            raise ValueError("gamma_value must be positive")
        if self.rescale_factor <= 0:
            raise ValueError("rescale_factor must be positive")


def decode_latent(z: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
    """Linear upsampling of a latent action to an input-shaped perturbation.

    1-D targets use segment-hold: latent component i covers samples
    [floor(i*L/d), floor((i+1)*L/d)).  2-D targets treat z as a g x g grid
    and nearest-neighbor upsample it.  Linear in z; no clipping here.
    """
    z = np.asarray(z, dtype=np.float64)
    if len(target_shape) == 1:
        if z.ndim != 1 or z.size == 0:
            raise ValueError(f"1-D target needs a flat nonempty latent, got shape {z.shape}")
        (length,) = target_shape
        if length < z.size:
            raise ValueError(f"latent dim {z.size} exceeds target length {length}")
        seg = (np.arange(length) * z.size) // length
        return z[seg]
    if len(target_shape) == 2:
        if z.ndim == 1:
            g = int(round(z.size ** 0.5))
            if g * g != z.size:
                raise ValueError(f"latent size {z.size} is not a square grid")
            z = z.reshape(g, g)
        elif z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"2-D target needs a square latent grid, got shape {z.shape}")
        h, w = target_shape
        g = z.shape[0]
        if h < g or w < g:
            raise ValueError(f"latent grid {g} exceeds target shape {target_shape}")
        rows = (np.arange(h) * g) // h
        cols = (np.arange(w) * g) // w
        return z[np.ix_(rows, cols)]
    raise ValueError(f"unsupported target rank {len(target_shape)}")


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
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Air-gap audio path over a client stack: x + delta + noise, then resampling.

    x is (C, n, L): n signals of L samples for each of C clients.  delta
    is (C, L), one perturbation per client, added to every one of its
    signals.  rngs holds one generator per client; client c's noise is
    drawn as one (n, L) block, the same stream as n draws of L samples in
    row order.  Linear resampling from source_rate_hz to target_rate_hz
    places output sample i at source position i * source/target; positions
    past the last input sample clamp to it.  With delta = 0, noise_std = 0
    and equal rates this is the identity map.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"audio stack must be (clients, signals, samples), got shape {x.shape}")
    clients, _, length = x.shape
    if delta.shape != (clients, length):
        raise ValueError(f"delta shape {delta.shape} does not match stack {x.shape}")
    if len(rngs) != clients:
        raise ValueError(f"need one generator per client, got {len(rngs)} for {clients}")
    y = x + delta[:, None, :]
    if cfg.noise_std > 0:
        y = y + np.stack([rng.normal(0.0, cfg.noise_std, size=x.shape[1:]) for rng in rngs])
    if cfg.source_rate_hz != cfg.target_rate_hz:
        out_len = resampled_length(length, cfg.source_rate_hz, cfg.target_rate_hz)
        pos = np.arange(out_len) * (cfg.source_rate_hz / cfg.target_rate_hz)
        grid = np.arange(length)
        rows = [np.interp(pos, grid, row) for row in y.reshape(-1, length)]
        y = np.reshape(rows, y.shape[:2] + (out_len,))
    return y


def _resize_linear_1d(x: np.ndarray, new_len: int, axis: int) -> np.ndarray:
    old_len = x.shape[axis]
    if new_len == old_len:
        return x
    if new_len == 1:
        pos = np.array([(old_len - 1) / 2.0])
    else:
        pos = np.arange(new_len) * ((old_len - 1) / (new_len - 1))
    x = np.moveaxis(x, axis, -1)
    out = np.empty(x.shape[:-1] + (new_len,), dtype=np.float64)
    lo = np.minimum(pos.astype(np.int64), old_len - 1)
    hi = np.minimum(lo + 1, old_len - 1)
    frac = pos - lo
    out[...] = x[..., lo] * (1.0 - frac) + x[..., hi] * frac
    return np.moveaxis(out, -1, axis)


def emulate_image_channel(
    x: np.ndarray,
    delta: np.ndarray,
    cfg: ChannelConfig,
    seed: np.random.Generator | int,
) -> np.ndarray:
    """Print-and-photograph path, stages in fixed order.

    add delta -> clamp to [0,1] -> box blur -> multiplicative texture ->
    gamma map -> rescale round trip -> clamp to [0,1].
    """
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {x.shape}")
    if delta.shape != x.shape:
        raise ValueError(f"delta shape {delta.shape} does not match image {x.shape}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    y = np.clip(x + delta, 0.0, 1.0)
    if cfg.blur_radius > 0:
        y = ndimage.uniform_filter(y, size=2 * cfg.blur_radius + 1, mode="reflect")
    if cfg.texture_strength > 0:
        texture = rng.uniform(-1.0, 1.0, size=y.shape)
        y = y * (1.0 + cfg.texture_strength * texture)
    if cfg.gamma_value != 1.0:
        y = np.power(np.maximum(y, 0.0), cfg.gamma_value)
    if cfg.rescale_factor != 1.0:
        h, w = y.shape
        h2 = max(1, int(round(h * cfg.rescale_factor)))
        w2 = max(1, int(round(w * cfg.rescale_factor)))
        y = _resize_linear_1d(y, h2, axis=0)
        y = _resize_linear_1d(y, w2, axis=1)
        y = _resize_linear_1d(y, h, axis=0)
        y = _resize_linear_1d(y, w, axis=1)
    return np.clip(y, 0.0, 1.0)


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
