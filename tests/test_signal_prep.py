import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxid import corpus, gmm, lp
from voxid.errors import AllSilence, EmptyInput, TooShort
from voxid.features import FeatureKind, FeatureMatrix
from voxid.signal_prep import (
    AudioSignal,
    FrameConfig,
    FrameSequence,
    frame_and_window,
    hamming_window,
    preemphasize,
    preprocess,
    remove_silence,
)


def signal(samples, rate=8000):
    return AudioSignal(np.asarray(samples, dtype=np.float64), rate)


class TestPreemphasize:
    def test_alpha_zero_is_identity(self):
        x = signal([0.3, -0.1, 0.7])
        np.testing.assert_array_equal(preemphasize(x, 0.0).samples, x.samples)

    def test_constant_signal(self):
        out = preemphasize(signal([2.0, 2.0, 2.0, 2.0]), 0.97)
        np.testing.assert_allclose(out.samples, [2.0, 0.06, 0.06, 0.06])

    def test_direct_evaluation(self):
        out = preemphasize(signal([1.0, 1.0, 2.0]), 0.97)
        np.testing.assert_allclose(out.samples, [1.0, 0.03, 1.03])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            preemphasize(signal([]), 0.97)

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            preemphasize(signal([1.0]), 1.0)

    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=64),
        st.lists(st.floats(-1, 1), min_size=2, max_size=64),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        lhs = preemphasize(signal(a * x + b * y), 0.97).samples
        rhs = a * preemphasize(signal(x), 0.97).samples + b * preemphasize(
            signal(y), 0.97
        ).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestHammingWindow:
    def test_endpoints(self):
        w = hamming_window(160)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)

    def test_midpoint_odd_length(self):
        w = hamming_window(161)
        assert w[80] == pytest.approx(1.0)

    def test_built_once_per_length_and_read_only(self):
        w = hamming_window(160)
        assert hamming_window(160) is w and hamming_window(161) is not w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        np.testing.assert_array_equal(hamming_window(1), [1.0])

    @given(st.integers(2, 400))
    def test_symmetry(self, n):
        w = hamming_window(n)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)


class TestSilenceRemoval:
    def test_single_loud_block_retained(self):
        cfg = FrameConfig(frame_len_samples=4, hop_samples=2)
        x = np.zeros(20)
        x[8:12] = 1.0
        out = remove_silence(signal(x), cfg)
        # The peak of 1.0 is halved into [0.5, 1).
        np.testing.assert_array_equal(out.samples, 0.5 * x[8:12])

    def test_equal_energy_blocks_all_retained(self):
        cfg = FrameConfig(frame_len_samples=4, hop_samples=2)
        x = np.tile([0.5, -0.5, 0.5, -0.5], 5)
        out = remove_silence(signal(x), cfg)
        np.testing.assert_array_equal(out.samples, x)

    def test_retained_indices_match_brute_force(self, rng):
        # Oracle: an independent per-block energy scan with a plain loop.
        cfg = FrameConfig()
        n_blocks = 40
        x = rng.standard_normal(n_blocks * cfg.frame_len_samples) * np.repeat(
            rng.uniform(0.001, 1.0, n_blocks), cfg.frame_len_samples
        )
        energies = []
        for b in range(n_blocks):
            block = x[b * cfg.frame_len_samples : (b + 1) * cfg.frame_len_samples]
            energies.append(sum(v * v for v in block))
        expected = [
            b
            for b in range(n_blocks)
            if energies[b] >= cfg.energy_threshold_ratio * max(energies)
        ]
        out = remove_silence(signal(x), cfg)
        scale = 2.0 ** -np.frexp(np.abs(x).max())[1]
        np.testing.assert_array_equal(
            out.samples,
            scale
            * np.concatenate(
                [
                    x[b * cfg.frame_len_samples : (b + 1) * cfg.frame_len_samples]
                    for b in expected
                ]
            ),
        )
        assert 0.5 <= np.abs(out.samples).max() < 1.0

    def test_all_zero_signal_is_all_silence(self):
        with pytest.raises(AllSilence):
            remove_silence(signal(np.zeros(1000)), FrameConfig())

    def test_signal_shorter_than_one_block_is_all_silence(self):
        with pytest.raises(AllSilence):
            remove_silence(signal(np.ones(159)), FrameConfig())

    def test_loud_trailing_partial_block_alone_is_all_silence(self):
        cfg = FrameConfig(frame_len_samples=4, hop_samples=2)
        x = np.zeros(11)
        x[8:] = 1.0
        with pytest.raises(AllSilence):
            remove_silence(signal(x), cfg)

    def test_block_at_the_threshold_exactly_is_kept(self):
        # Scaled to a peak of 0.5 the energies are 0.25 and 0.0625, and the
        # threshold is 0.25 * 0.25 = 0.0625, all exact in binary.
        cfg = FrameConfig(frame_len_samples=4, hop_samples=2, energy_threshold_ratio=0.25)
        x = [1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
        out = remove_silence(signal(x), cfg)
        np.testing.assert_array_equal(out.samples, 0.5 * np.asarray(x))

    @pytest.mark.parametrize("k", [-1000, -400, 1, 400, 1000])
    def test_power_of_two_gain_gives_the_same_samples(self, rng, k):
        # Scaling by 2**k is exact while the samples stay normal, and the
        # rescale to a peak in [0.5, 1) undoes it exactly.
        x = rng.uniform(-1.0, 1.0, 1000)
        base = remove_silence(signal(x), FrameConfig()).samples
        scaled = remove_silence(signal(np.ldexp(x, k)), FrameConfig()).samples
        np.testing.assert_array_equal(scaled, base)

    def test_largest_and_subnormal_peaks_are_rescaled(self):
        x = np.tile([1.0, -0.5, 0.25, 0.0], 250)
        for top in (np.finfo(np.float64).max, 5e-324):
            out = remove_silence(signal(x * top), FrameConfig()).samples
            assert 0.5 <= np.abs(out).max() < 1.0

    @given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_output_length_multiple_of_block(self, n, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal(n) * r.uniform(0.0, 1.0, n)
        cfg = FrameConfig(frame_len_samples=16, hop_samples=8)
        try:
            out = remove_silence(signal(x), cfg)
        except AllSilence:
            return
        assert len(out) % cfg.frame_len_samples == 0
        assert len(out) <= n


class TestFraming:
    def test_frame_count(self):
        cfg = FrameConfig()
        x = signal(np.ones(400))
        frames = frame_and_window(x, cfg)
        assert frames.n_frames == 4  # floor((400 - 160) / 80) + 1

    @given(st.integers(160, 4000))
    @settings(max_examples=30)
    def test_frame_count_formula(self, n):
        cfg = FrameConfig()
        frames = frame_and_window(signal(np.ones(n)), cfg)
        assert frames.n_frames == (n - cfg.frame_len_samples) // cfg.hop_samples + 1

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            frame_and_window(signal(np.ones(100)), FrameConfig())

    def test_frames_are_windowed_hops(self, rng):
        cfg = FrameConfig(frame_len_samples=16, hop_samples=4)
        x = rng.standard_normal(64)
        frames = frame_and_window(signal(x), cfg)
        w = hamming_window(16)
        for i in range(frames.n_frames):
            np.testing.assert_allclose(frames.frames[i], x[i * 4 : i * 4 + 16] * w)


class TestPreprocess:
    def test_chain_matches_stepwise(self, rng):
        cfg = FrameConfig()
        x = np.zeros(8000)
        x[2000:6000] = rng.standard_normal(4000)
        sig = signal(x)
        got = preprocess(sig, cfg)
        expected = frame_and_window(
            preemphasize(remove_silence(sig, cfg), cfg.preemphasis), cfg
        )
        np.testing.assert_array_equal(got.frames, expected.frames)

    def test_silence_blocks_are_dropped(self, rng):
        cfg = FrameConfig()
        x = np.zeros(16000)
        x[4000:8000] = rng.standard_normal(4000)
        frames = preprocess(signal(x), cfg)
        full = frame_and_window(preemphasize(signal(x), cfg.preemphasis), cfg)
        assert 0 < frames.n_frames < full.n_frames


class TestTypes:
    def test_audio_signal_validation(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros((2, 2)), 8000)
        with pytest.raises(ValueError):
            AudioSignal(np.zeros(4), 0)

    @pytest.mark.parametrize("rate", [8000.9, 8000.0, "8000", True])
    def test_rate_must_be_an_integer(self, rate):
        # Not truncated or parsed into a rate that would then be analysed.
        with pytest.raises(ValueError, match=f"must be an integer, got {rate!r}$"):
            AudioSignal(np.zeros(4), rate)

    def test_numpy_integer_rate_becomes_an_int(self):
        audio = AudioSignal(np.zeros(4), np.int64(8000))
        assert type(audio.sample_rate_hz) is int and audio.sample_rate_hz == 8000
        assert preprocess(AudioSignal(np.ones(800), np.int64(8000))).n_frames > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(800)
        samples[400] = bad
        with pytest.raises(ValueError, match="finite"):
            AudioSignal(samples, 8000)

    def test_frame_config_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(hop_samples=200)
        with pytest.raises(ValueError):
            FrameConfig(preemphasis=1.0)
        with pytest.raises(ValueError):
            FrameConfig(energy_threshold_ratio=0.0)

    def test_frame_sequence_shape_validation(self):
        with pytest.raises(ValueError):
            FrameSequence(np.zeros(100))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AudioSignal(np.ones(8), 8000),
            lambda: FrameSequence(np.ones((2, 4))),
            lambda: FeatureMatrix(FeatureKind.MFCC, np.ones((2, 3))),
            lambda: gmm.GmmModel(FeatureKind.MFCC, [0.5, 0.5], np.zeros((2, 3)), np.ones((2, 3))),
            lambda: gmm.stack_models([gmm.GmmModel(FeatureKind.MFCC, [1.0], [[0.0]], [[1.0]])]),
            lambda: lp.levinson_durbin(np.array([1.0, 0.5, 0.1]), 2),
            lambda: lp.analyze_frame(np.hamming(64) * np.cos(0.3 * np.arange(64)), 4),
            lambda: corpus.make_voices(2, seed=0)[0],
        ],
        ids=[
            "AudioSignal", "FrameSequence", "FeatureMatrix", "GmmModel", "ModelStack",
            "LevinsonResult", "LpAnalysis", "SpeakerVoice",
        ],
    )
    def test_records_holding_arrays_compare_by_identity(self, make):
        # A generated __eq__ over an array field would raise on ==, and
        # leave the record unhashable.
        record = make()
        twin = copy.copy(record)
        assert record == record
        assert record != twin
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2
