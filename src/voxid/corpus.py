"""Synthetic speech-like signal generation for desk-scale experiments.

Each synthetic speaker is an order-10 all-pole resonator (a stand-in vocal
tract) excited by a jittered impulse train at a speaker-specific pitch
period.  Utterances vary realistically around the speaker: the tract wobbles
a little per utterance (articulation), the pitch drifts and undulates
(intonation), and pulses carry timing and amplitude noise.

Two designated speakers share one base resonator and differ only in pitch,
so envelope features cannot separate them reliably while source features
can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lp
from .signal_prep import SAMPLE_RATE_HZ

VOCAL_TRACT_ORDER = 10
REFLECTION_MAGNITUDE = 0.7
PITCH_PERIOD_RANGE = (40, 120)  # samples at 8 kHz: 66.7 to 200 Hz
TWIN_PERIODS = (72, 120)  # the shared-tract pair, isolated at the top
# Other speakers draw periods from below this bound so that pitch drift
# never blurs them into the twins (or each other; see assign_pitch_periods).
OTHERS_PERIOD_MAX = 62
SNR_DB = 30.0

PERIOD_JITTER = 0.03  # per-pulse timing noise
SHIMMER = 0.15  # per-pulse amplitude noise
PITCH_DRIFT = 0.05  # per-utterance base-pitch offset
VIBRATO_DEPTH = 0.05  # slow pitch undulation within a burst
VIBRATO_HZ = 3.0
TRACT_WOBBLE = 0.08  # per-utterance reflection-coefficient offset
REFLECTION_CLIP = 0.85

SPEECH_PEAK = 0.6
PAD_SECONDS = 0.25
GAP_SECONDS = 0.2
# The longest utterance: 480,000 samples (3.8 MB), about 0.1 s to synthesize:
# some 65 ms of pulse placement and 30 ms of all-pole filtering (a 2-vCPU
# x86 VM, one BLAS thread).
MAX_UTTERANCE_SECONDS = 60.0


@dataclass(frozen=True, eq=False)
class SpeakerVoice:
    """Fixed per-speaker generator parameters."""

    speaker_id: str
    reflections: np.ndarray  # base vocal-tract reflection coefficients
    pitch_period: int  # samples


def reflection_to_coefficients(reflection: np.ndarray) -> np.ndarray:
    """Step-up recursion from reflection coefficients to predictor taps."""
    reflection = np.asarray(reflection, dtype=np.float64)
    a = np.zeros(0)
    for i, k in enumerate(reflection, start=1):
        new_a = np.empty(i)
        new_a[: i - 1] = a - k * a[::-1]
        new_a[i - 1] = k
        a = new_a
    return a


def random_reflections(rng: np.random.Generator) -> np.ndarray:
    """Base reflection coefficients of a random stable vocal tract."""
    return rng.uniform(-REFLECTION_MAGNITUDE, REFLECTION_MAGNITUDE, VOCAL_TRACT_ORDER)


def wobbled_tract(rng: np.random.Generator, voice: SpeakerVoice) -> np.ndarray:
    """One utterance's tract: the base reflections nudged, still stable."""
    ks = voice.reflections + TRACT_WOBBLE * rng.uniform(-1.0, 1.0, voice.reflections.size)
    return reflection_to_coefficients(np.clip(ks, -REFLECTION_CLIP, REFLECTION_CLIP))


def impulse_train(rng: np.random.Generator, n_samples: int, period: float) -> np.ndarray:
    """Quasi-periodic excitation with vibrato plus per-pulse wobble."""
    excitation = np.zeros(n_samples, dtype=np.float64)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    position = rng.uniform(0.0, period)
    while position < n_samples:
        index = int(round(position))
        if index < n_samples:
            excitation[index] = 1.0 + SHIMMER * rng.uniform(-1.0, 1.0)
        undulation = 1.0 + VIBRATO_DEPTH * np.sin(
            2.0 * np.pi * VIBRATO_HZ * position / SAMPLE_RATE_HZ + phase
        )
        position += period * undulation * (1.0 + PERIOD_JITTER * rng.uniform(-1.0, 1.0))
    return excitation


def synth_speech_burst(
    rng: np.random.Generator,
    n_samples: int,
    tract: Callable[[np.ndarray], np.ndarray],
    period: float,
) -> np.ndarray:
    """One voiced burst through an utterance-specific tract realization,
    the all-pole filter that ``lp.all_pole_filter`` built for it."""
    excitation = impulse_train(rng, n_samples, period)
    speech = tract(excitation)
    peak = np.max(np.abs(speech))
    if peak > 0:
        speech = speech * (SPEECH_PEAK / peak)
    return speech


def utterance_layout(seconds: float, name: str = "seconds") -> tuple[int, int, int]:
    """(pad, gap, total) sample counts of an utterance of ``seconds``.

    A length that is not finite, is above MAX_UTTERANCE_SECONDS, or leaves
    no room for speech between the pads is refused with a ValueError that
    names the argument ``name``.
    """
    if not (np.isfinite(seconds) and seconds <= MAX_UTTERANCE_SECONDS):
        raise ValueError(
            f"{name} must be finite and at most {MAX_UTTERANCE_SECONDS:g} s, got {seconds}"
        )
    pad = int(round(PAD_SECONDS * SAMPLE_RATE_HZ))
    gap = int(round(GAP_SECONDS * SAMPLE_RATE_HZ))
    total = int(round(seconds * SAMPLE_RATE_HZ))
    if total - 2 * pad - gap < 2 * SAMPLE_RATE_HZ // 10:
        raise ValueError(f"{name}: {seconds} s leaves no room for speech between pads")
    return pad, gap, total


def synth_utterance(rng: np.random.Generator, voice: SpeakerVoice, seconds: float) -> np.ndarray:
    """A padded utterance at SAMPLE_RATE_HZ: noise-only lead-in, two speech
    bursts separated by a noise-only gap, and a noise-only tail, all at the
    configured SNR."""
    pad, gap, total = utterance_layout(seconds)
    speech_samples = total - 2 * pad - gap
    first = speech_samples // 2
    second = speech_samples - first

    tract = lp.all_pole_filter(wobbled_tract(rng, voice))
    period = voice.pitch_period * (1.0 + PITCH_DRIFT * rng.uniform(-1.0, 1.0))
    samples = np.zeros(total, dtype=np.float64)
    samples[pad : pad + first] = synth_speech_burst(rng, first, tract, period)
    samples[pad + first + gap : pad + first + gap + second] = synth_speech_burst(
        rng, second, tract, period
    )

    speech_rms = np.sqrt(np.mean(samples[pad : pad + first] ** 2))
    noise_sigma = speech_rms / (10.0 ** (SNR_DB / 20.0))
    samples += noise_sigma * rng.standard_normal(total)
    return samples


def assign_pitch_periods(n_speakers: int, rng: np.random.Generator) -> list[int]:
    """Distinct, well-spaced integer periods; speakers 0 and 1 take the twins.

    The source stream discriminates on pulse-rate statistics, so the grid
    step is kept as coarse as the speaker count allows; pitch drift then
    cannot blur neighboring speakers together.
    """
    low = PITCH_PERIOD_RANGE[0]
    needed = n_speakers - 2
    for step in (6, 5, 4, 3, 2, 1):
        pool = np.arange(low, OTHERS_PERIOD_MAX + 1, step)
        if pool.size >= needed:
            break
    if pool.size < needed:
        raise ValueError(f"cannot assign {n_speakers} distinct pitch periods")
    others = rng.choice(pool, size=needed, replace=False)
    return list(TWIN_PERIODS)[:n_speakers] + [int(p) for p in others]


def make_voices(n_speakers: int, seed: int) -> list[SpeakerVoice]:
    """Deterministic speaker set; speakers 0 and 1 share a vocal tract."""
    if n_speakers < 2:
        raise ValueError("need at least two speakers")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    periods = assign_pitch_periods(n_speakers, rng)
    voices = []
    shared = random_reflections(rng)
    for i in range(n_speakers):
        reflections = shared if i < 2 else random_reflections(rng)
        voices.append(
            SpeakerVoice(
                speaker_id=f"spk{i:02d}",
                reflections=reflections,
                pitch_period=periods[i],
            )
        )
    return voices


def utterance_rng(seed: int, speaker_index: int, utterance_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one utterance."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1, speaker_index, utterance_index))
    )
