"""Unit tests for latent decoding, the lossy audio channel and the spectrum."""
import numpy as np
import pytest

from hammersim.channel import (
    ChannelConfig,
    audio_channel,
    clip_linf,
    decode_latent,
    stft,
)
from hammersim.seeding import generator

import oracles
from oracles import emulate_audio_channel


# -- latent decoding --------------------------------------------------------

def test_decode_latent_1d_segment_hold():
    z = np.array([1.0, -2.0, 3.0])
    out = decode_latent(z, (6,))
    np.testing.assert_array_equal(out, [1.0, 1.0, -2.0, -2.0, 3.0, 3.0])


def test_decode_latent_1d_uneven_segments():
    z = np.array([5.0, 7.0])
    out = decode_latent(z, (5,))
    # floor(i * 2 / 5): 0 0 0 1 1
    np.testing.assert_array_equal(out, [5.0, 5.0, 5.0, 7.0, 7.0])


def test_decode_latent_is_linear():
    rng = generator(3, "decode-linear")
    z1 = rng.standard_normal(10)
    z2 = rng.standard_normal(10)
    lhs = decode_latent(2.0 * z1 + z2, (100,))
    rhs = 2.0 * decode_latent(z1, (100,)) + decode_latent(z2, (100,))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_decode_latent_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decode_latent(np.ones(10), (5,))
    with pytest.raises(ValueError):
        decode_latent(np.ones(4), (8, 8))  # images are not decoded
    with pytest.raises(ValueError):
        decode_latent(np.ones(4), (10, 10, 3))


def test_clip_linf():
    d = np.array([-5.0, -0.5, 0.0, 0.5, 5.0])
    np.testing.assert_array_equal(clip_linf(d, 1.0), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        clip_linf(d, -1.0)


# -- audio path -------------------------------------------------------------

def test_audio_channel_identity_when_clean():
    cfg = ChannelConfig()
    x = generator(4, "audio-id").standard_normal(256)
    out = emulate_audio_channel(x, np.zeros_like(x), cfg, seed=0)
    np.testing.assert_array_equal(out, x)


def test_audio_channel_noise_is_seeded():
    cfg = ChannelConfig(noise_std=0.1)
    x = np.zeros(128)
    d = np.zeros(128)
    a = emulate_audio_channel(x, d, cfg, seed=9)
    b = emulate_audio_channel(x, d, cfg, seed=9)
    c = emulate_audio_channel(x, d, cfg, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_audio_channel_resampling_length():
    cfg = ChannelConfig(source_rate_hz=16_000, target_rate_hz=8_000)
    x = np.sin(np.linspace(0, 20, 400))
    out = emulate_audio_channel(x, np.zeros_like(x), cfg, seed=0)
    assert out.shape == (200,)
    # downsampling keeps every other sample up to interpolation
    np.testing.assert_allclose(out, x[::2], atol=1e-12)


def test_audio_channel_shape_mismatch():
    cfg = ChannelConfig()
    with pytest.raises(ValueError):
        emulate_audio_channel(np.zeros(10), np.zeros(11), cfg, seed=0)


BATCH_CASES = {
    "clean": ChannelConfig(),
    "noise": ChannelConfig(noise_std=0.1),
    "noise, length-keeping resample": ChannelConfig(noise_std=0.1, target_rate_hz=16_050),
    "downsample": ChannelConfig(noise_std=0.02, source_rate_hz=16_000, target_rate_hz=8_000),
}


def client_noise(cfg, rngs, shape):
    """One (n, L) noise block per client generator, stacked; None without noise."""
    if cfg.noise_std == 0:
        return None
    return np.stack([rng.normal(0.0, cfg.noise_std, size=shape) for rng in rngs])


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_audio_channel_matches_per_row_reference(case):
    # each client's noise is drawn as one block, which must equal its rows
    # drawn one after another from the same generator
    cfg = BATCH_CASES[case]
    rng = generator(14, "audio-batch")
    x = rng.standard_normal((3, 5, 40))
    delta = rng.standard_normal((3, 40))
    noise = client_noise(cfg, [generator(14, "noise", c) for c in range(3)], (5, 40))
    got = audio_channel(x, delta, cfg, noise)
    for c in range(3):
        row_rng = generator(14, "noise", c)
        want = np.stack([emulate_audio_channel(row, delta[c], cfg, row_rng) for row in x[c]])
        np.testing.assert_array_equal(got[c], want)
    rngs = [generator(14, "noise", c) for c in range(3)]
    np.testing.assert_array_equal(got, oracles.audio_channel_reference(x, delta, cfg, rngs))


def test_batched_audio_channel_rejects_bad_shapes():
    cfg = ChannelConfig()
    noisy = ChannelConfig(noise_std=0.1)
    with pytest.raises(ValueError):
        audio_channel(np.zeros((4, 10)), np.zeros((2, 10)), cfg, None)
    with pytest.raises(ValueError):
        audio_channel(np.zeros((2, 4, 10)), np.zeros((2, 11)), cfg, None)
    with pytest.raises(ValueError, match="noise shape"):
        audio_channel(np.zeros((2, 4, 10)), np.zeros((2, 10)), noisy, np.zeros((1, 4, 10)))
    with pytest.raises(ValueError, match="noise shape"):
        audio_channel(np.zeros((2, 4, 10)), np.zeros((2, 10)), noisy, np.zeros((2, 10)))
    with pytest.raises(ValueError, match="exactly when"):
        audio_channel(np.zeros((2, 4, 10)), np.zeros((2, 10)), noisy, None)
    with pytest.raises(ValueError, match="exactly when"):
        audio_channel(np.zeros((2, 4, 10)), np.zeros((2, 10)), cfg, np.zeros((2, 4, 10)))


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(modality="video")
    with pytest.raises(ValueError):
        ChannelConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(source_rate_hz=0)


# -- spectrum ---------------------------------------------------------------

def test_stft_matches_direct_transform():
    rng = generator(8, "stft-test")
    x = rng.standard_normal(200)
    got = stft(x, frame_len=64, hop=16)
    want = oracles.stft_reference(x, 64, 16)
    assert got.shape == want.shape == (9, 33)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_stft_frame_count():
    x = np.zeros(256)
    assert stft(x, frame_len=256, hop=128).shape == (1, 129)
    assert stft(np.zeros(257), frame_len=256, hop=128).shape == (1, 129)
    assert stft(np.zeros(384), frame_len=256, hop=128).shape == (2, 129)
    with pytest.raises(ValueError):
        stft(np.zeros(100), frame_len=256, hop=128)
