import numpy as np
import pytest

from voxid import corpus, lp
from voxid.signal_prep import AudioSignal, FrameConfig, preprocess, remove_silence


class TestVoices:
    def test_deterministic(self):
        a = corpus.make_voices(10, seed=7)
        b = corpus.make_voices(10, seed=7)
        for va, vb in zip(a, b):
            assert va.speaker_id == vb.speaker_id
            assert va.pitch_period == vb.pitch_period
            np.testing.assert_array_equal(va.reflections, vb.reflections)

    def test_seed_changes_voices(self):
        a = corpus.make_voices(10, seed=7)
        b = corpus.make_voices(10, seed=8)
        assert any(
            not np.array_equal(va.reflections, vb.reflections) for va, vb in zip(a, b)
        )

    def test_twins_share_tract_but_not_pitch(self):
        voices = corpus.make_voices(10, seed=0)
        np.testing.assert_array_equal(voices[0].reflections, voices[1].reflections)
        assert voices[0].pitch_period != voices[1].pitch_period
        for v in voices[2:]:
            assert not np.array_equal(v.reflections, voices[0].reflections)

    def test_pitch_periods_distinct_and_in_range(self):
        voices = corpus.make_voices(10, seed=3)
        periods = [v.pitch_period for v in voices]
        assert len(set(periods)) == len(periods)
        low, high = corpus.PITCH_PERIOD_RANGE
        assert all(low <= p <= high for p in periods)

    def test_reflections_stay_stable(self):
        for seed in range(5):
            for v in corpus.make_voices(10, seed=seed):
                assert np.all(np.abs(v.reflections) < 1.0)

    def test_too_few_speakers(self):
        with pytest.raises(ValueError):
            corpus.make_voices(1, seed=0)


class TestReflectionStepUp:
    def test_order_one(self):
        np.testing.assert_allclose(
            corpus.reflection_to_coefficients(np.array([0.5])), [0.5]
        )

    def test_matches_lp_round_trip(self, rng):
        # Synthesize with the step-up taps, analyze with LP, and recover the
        # reflection coefficients.
        from voxid import lp

        refl = rng.uniform(-0.6, 0.6, 6)
        coeffs = corpus.reflection_to_coefficients(refl)
        excitation = rng.standard_normal(8000)
        x = lp.synthesize(excitation, coeffs)[1000:]
        r = lp.autocorr(x, 6)
        est = lp.levinson_durbin(r, 6)
        np.testing.assert_allclose(est.reflection, refl, atol=0.05)


class TestUtterances:
    def test_deterministic(self):
        voice = corpus.make_voices(4, seed=2)[2]
        a = corpus.synth_utterance(corpus.utterance_rng(2, 2, 0), voice, 2.0)
        b = corpus.synth_utterance(corpus.utterance_rng(2, 2, 0), voice, 2.0)
        np.testing.assert_array_equal(a, b)

    def test_each_burst_is_synthesized_from_zero_history(self):
        # The utterance as first written: each burst through lp.synthesize,
        # with the same draws in the same order.
        voice = corpus.make_voices(4, seed=2)[1]
        got = corpus.synth_utterance(corpus.utterance_rng(2, 1, 0), voice, 2.0)
        rng = corpus.utterance_rng(2, 1, 0)
        pad, gap, total = corpus.utterance_layout(2.0)
        first = (total - 2 * pad - gap) // 2
        starts_and_lengths = ((pad, first), (pad + first + gap, total - 2 * pad - gap - first))
        tract = corpus.wobbled_tract(rng, voice)
        period = voice.pitch_period * (1.0 + corpus.PITCH_DRIFT * rng.uniform(-1.0, 1.0))
        expected = np.zeros(total)
        for start, n in starts_and_lengths:
            speech = lp.synthesize(corpus.impulse_train(rng, n, period), tract)
            expected[start : start + n] = speech * (corpus.SPEECH_PEAK / np.max(np.abs(speech)))
        speech_rms = np.sqrt(np.mean(expected[pad : pad + first] ** 2))
        expected += speech_rms / (10.0 ** (corpus.SNR_DB / 20.0)) * rng.standard_normal(total)
        assert got.tobytes() == expected.tobytes()

    def test_different_indices_differ(self):
        voice = corpus.make_voices(4, seed=2)[2]
        a = corpus.synth_utterance(corpus.utterance_rng(2, 2, 0), voice, 2.0)
        b = corpus.synth_utterance(corpus.utterance_rng(2, 2, 1), voice, 2.0)
        assert not np.array_equal(a, b)

    def test_length_and_stability(self):
        voice = corpus.make_voices(4, seed=5)[3]
        x = corpus.synth_utterance(corpus.utterance_rng(5, 3, 1), voice, 3.0)
        assert x.shape == (24000,)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(x)) <= 1.0

    def test_too_short_rejected(self):
        voice = corpus.make_voices(4, seed=5)[0]
        with pytest.raises(ValueError):
            corpus.synth_utterance(corpus.utterance_rng(5, 0, 0), voice, 0.5)

    def test_length_above_the_cap_or_not_finite_rejected(self):
        assert corpus.utterance_layout(corpus.MAX_UTTERANCE_SECONDS)[2] == 480_000
        above = np.nextafter(corpus.MAX_UTTERANCE_SECONDS, np.inf)
        for seconds in (above, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^length must be finite and at most 60 s"):
                corpus.utterance_layout(seconds, "length")

    def test_silence_removal_engages(self):
        # The layout embeds noise-only pads and a gap, so the energy gate
        # must discard part of the signal.
        voice = corpus.make_voices(4, seed=9)[2]
        x = corpus.synth_utterance(corpus.utterance_rng(9, 2, 0), voice, 3.0)
        signal = AudioSignal(x, corpus.SAMPLE_RATE_HZ)
        kept = remove_silence(signal, FrameConfig())
        assert 0 < len(kept.samples) < len(x)

    def test_preprocess_yields_frames(self):
        voice = corpus.make_voices(4, seed=9)[1]
        x = corpus.synth_utterance(corpus.utterance_rng(9, 1, 0), voice, 2.0)
        frames = preprocess(AudioSignal(x, corpus.SAMPLE_RATE_HZ))
        assert frames.n_frames > 100

    def test_twins_separate_in_residual_features(self):
        # Twins share a tract, so only the excitation tells them apart: their
        # mean residual-lag vectors must sit farther apart than two
        # utterances of the same twin do.
        from voxid.acrlag import extract_acrlag

        voices = corpus.make_voices(4, seed=0)

        def mean_acrlag(vi, ui):
            x = corpus.synth_utterance(corpus.utterance_rng(0, vi, ui), voices[vi], 3.0)
            frames = preprocess(AudioSignal(x, corpus.SAMPLE_RATE_HZ))
            return extract_acrlag(frames).values.mean(axis=0)

        within = np.linalg.norm(mean_acrlag(0, 0) - mean_acrlag(0, 1))
        between = np.linalg.norm(mean_acrlag(0, 0) - mean_acrlag(1, 0))
        assert between > 1.5 * within


class TestPeriodAssignment:
    def test_twins_first(self):
        rng = np.random.default_rng(0)
        periods = corpus.assign_pitch_periods(10, rng)
        assert tuple(periods[:2]) == corpus.TWIN_PERIODS

    def test_others_spaced_below_twins(self):
        rng = np.random.default_rng(4)
        periods = corpus.assign_pitch_periods(10, rng)
        others = sorted(periods[2:])
        assert others[-1] <= corpus.OTHERS_PERIOD_MAX
        assert min(np.diff(others)) >= 2
