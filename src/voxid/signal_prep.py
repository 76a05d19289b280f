"""Raw-audio conditioning: silence pruning, pre-emphasis, framing, windowing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AllSilence, AudioFormatError, EmptyInput, TooShort, check_types

# Every frame length, hop and lag is counted in samples at this rate, so the
# pipeline analyses audio at this rate only.
SAMPLE_RATE_HZ = 8000


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono waveform with its sampling rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioSignal expects a 1-D mono sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("AudioSignal samples must be finite")
        rate = self.sample_rate_hz
        # int() would cut 8000.9 to 8000 and turn "8000" or True into a rate.
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)):
            raise ValueError(f"sample_rate_hz must be an integer, got {rate!r}")
        if rate <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FrameConfig:
    """Framing and end-point detection parameters.

    Defaults give 20 ms frames with 50% overlap at 8 kHz, a 0.97
    pre-emphasis factor and a 6% relative energy gate.
    """

    frame_len_samples: int = 160
    hop_samples: int = 80
    preemphasis: float = 0.97
    energy_threshold_ratio: float = 0.06

    def __post_init__(self) -> None:
        check_types(self, "frame")
        if self.frame_len_samples <= 0 or self.hop_samples <= 0:
            raise ValueError("frame length and hop must be positive")
        if self.hop_samples > self.frame_len_samples:
            raise ValueError("hop_samples must not exceed frame_len_samples")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must lie in [0, 1)")
        if not 0.0 < self.energy_threshold_ratio < 1.0:
            raise ValueError("energy_threshold_ratio must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Windowed analysis frames, one per row."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("frames must be a 2-D array (frame index x sample)")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def preemphasize(signal: AudioSignal, alpha: float) -> AudioSignal:
    """First-order high-pass y[n] = x[n] - alpha*x[n-1], with y[0] = x[0]."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    x = signal.samples
    if x.size == 0:
        raise EmptyInput("cannot pre-emphasize an empty signal")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - alpha * x[:-1]
    return AudioSignal(y, signal.sample_rate_hz)


def remove_silence(signal: AudioSignal, cfg: FrameConfig) -> AudioSignal:
    """Drop frame-sized blocks below the utterance-relative energy threshold.

    The signal is first scaled by the power of two that puts its peak in
    [0.5, 1).  That scaling is exact, so audio at any gain 2**k gives the
    same samples, and no later stage sees subnormal or overflowing values.
    The trailing partial block is dropped, and a block is kept when its
    sum-of-squares energy reaches energy_threshold_ratio times the largest.
    """
    x = signal.samples
    if x.size == 0:
        raise EmptyInput("cannot run silence removal on an empty signal")
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    n = cfg.frame_len_samples
    blocks = x[: (x.size // n) * n].reshape(-1, n)
    energies = np.sum(blocks * blocks, axis=1)
    if energies.size == 0 or energies.max() <= 0.0:
        # Covers both a signal shorter than one block and pure digital silence.
        raise AllSilence("no block reached the energy threshold")
    keep = energies >= cfg.energy_threshold_ratio * energies.max()
    return AudioSignal(blocks[keep].reshape(-1), signal.sample_rate_hz)


@lru_cache(maxsize=8)
def hamming_window(n: int) -> np.ndarray:
    """Raised-cosine taper w(k) = 0.54 - 0.46*cos(2*pi*k/(n-1)), read-only:
    each length is built once."""
    if n < 1:
        raise ValueError("window length must be positive")
    if n == 1:
        window = np.ones(1)
    else:
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    window.flags.writeable = False
    return window


def frame_and_window(signal: AudioSignal, cfg: FrameConfig) -> FrameSequence:
    """Cut hop-spaced frames and taper each one; the trailing partial frame is dropped."""
    x = signal.samples
    n, hop = cfg.frame_len_samples, cfg.hop_samples
    if x.size < n:
        raise TooShort(f"signal of {x.size} samples is shorter than one {n}-sample frame")
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[::hop]
    frames = frames * hamming_window(n)
    return FrameSequence(frames)


def preprocess(signal: AudioSignal, cfg: FrameConfig | None = None) -> FrameSequence:
    """Full conditioning chain: silence removal, pre-emphasis, framing, windowing.

    Audio at any rate but SAMPLE_RATE_HZ is refused before any work.
    """
    if signal.sample_rate_hz != SAMPLE_RATE_HZ:
        raise AudioFormatError(
            f"audio at {signal.sample_rate_hz} Hz; voxid analyses {SAMPLE_RATE_HZ} Hz audio"
        )
    cfg = cfg if cfg is not None else FrameConfig()
    voiced = remove_silence(signal, cfg)
    emphasized = preemphasize(voiced, cfg.preemphasis)
    return frame_and_window(emphasized, cfg)

