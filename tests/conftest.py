"""Shared fixtures: random frame generators, a tiny on-disk corpus, and a
bound on how long one test may run."""

from __future__ import annotations

import faulthandler
import os
import struct

import numpy as np
import pytest

from voxid import corpus, lp
from voxid.signal_prep import AudioSignal, FrameConfig, preprocess


def random_ar_frame(
    rng: np.random.Generator, order: int, length: int = 160
) -> tuple[np.ndarray, np.ndarray]:
    """A synthetic autoregressive frame and the true predictor taps."""
    ks = rng.uniform(-0.8, 0.8, order)
    coeffs = corpus.reflection_to_coefficients(ks)
    excitation = rng.standard_normal(length + 4 * order)
    signal = lp.synthesize(excitation, coeffs)
    return signal[-length:], coeffs


# Config JSON whose integer settings are not JSON integers, with the key
# the error must name.
NON_INTEGER_CONFIGS = [
    ({"frame": {"hop_samples": 80.0}}, "frame.hop_samples"),
    ({"train": {"n_components": 8.0}}, "train.n_components"),
    ({"train": {"em_iterations": 2.5}}, "train.em_iterations"),
    ({"acrlag": {"max_lag": 12.0}}, "acrlag.max_lag"),
    ({"frame": {"hop_samples": True}}, "frame.hop_samples"),
]


# A variance that is positive and finite, but whose mean / var overflows.
DENORMAL_VARIANCE = 1e-320


def with_denormal_variance(blob: bytes, variance: float) -> bytes:
    """The blob with its one stored copy of variance set to DENORMAL_VARIANCE."""
    old = struct.pack("<d", variance)
    assert blob.count(old) == 1
    return blob.replace(old, struct.pack("<d", DENORMAL_VARIANCE))


def with_oversized_chunk(wav: bytes) -> bytes:
    """The WAV bytes with the chunk after the RIFF header renamed ``junk``
    and its size set past the RIFF chunk's end, so that skipping it seeks
    out of the file's RIFF chunk."""
    return wav[:12] + b"junk" + struct.pack("<I", 1_000_000) + wav[20:]


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# The longest one test may run, in seconds; the slowest takes under 10 s.
HANG_SECONDS = 300
TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is off here, so fd 2 is the terminal's stderr; a
    # test's captured stderr would swallow a hang's tracebacks.
    config.stash[TERMINAL_STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """A test still running after HANG_SECONDS, such as one waiting on a
    stream worker that died, dumps every thread's traceback and ends the
    run with a failing status instead of hanging it."""
    stderr = request.config.stash[TERMINAL_STDERR]
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test, independent of test order."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def speech_frames():
    """Preprocessed frames from one synthetic utterance."""
    voice = corpus.make_voices(2, seed=3)[0]
    samples = corpus.synth_utterance(corpus.utterance_rng(3, 0, 0), voice, 3.0)
    return preprocess(AudioSignal(samples, corpus.SAMPLE_RATE_HZ), FrameConfig())


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A 3-speaker corpus small enough for fast end-to-end tests."""
    from voxid.sid_pipeline import synth_corpus

    root = tmp_path_factory.mktemp("tiny_corpus")
    manifest, manifest_path = synth_corpus(
        root,
        n_speakers=3,
        train_utterances=3,
        test_utterances=2,
        train_seconds=2.5,
        test_seconds=2.0,
        seed=11,
    )
    return manifest, manifest_path


@pytest.fixture(scope="session")
def tiny_corpus_frames(tiny_corpus):
    """Every preprocessed frame of the tiny corpus, one per row, then a zero
    row and two constant rows."""
    from voxid import audio_io

    manifest, _ = tiny_corpus
    paths = [p for e in manifest.speakers for p in e.train_utterances + e.test_utterances]
    frames = np.concatenate([preprocess(audio_io.read_wav(p), FrameConfig()).frames for p in paths])
    n = frames.shape[1]
    return np.concatenate((frames, np.zeros((1, n)), np.full((1, n), 0.1), np.full((1, n), -3.0)))
