import numpy as np
import pytest

from tests.conftest import random_ar_frame
from voxid import lp
from voxid.acrlag import (
    AcrlagConfig,
    _normalize_rows,
    acrlag_feature,
    extract_acrlag,
    normalize_residual,
)
from voxid.errors import DegenerateResidual, NoFeatures
from voxid.features import FeatureKind
from voxid.signal_prep import FrameSequence


class TestNormalizeResidual:
    def test_two_point(self):
        np.testing.assert_allclose(normalize_residual(np.array([2.0, 4.0])), [-1, 1])

    def test_already_normalized_is_fixed_point(self):
        e = np.array([-1.0, 0.5, 1.0, -0.5])
        np.testing.assert_allclose(normalize_residual(e), e, atol=1e-15)

    def test_ramp(self):
        got = normalize_residual(np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, [-1, -1 / 3, 1 / 3, 1])

    def test_output_range_and_mean(self, rng):
        e = rng.standard_normal(200) * 7 + 3
        z = normalize_residual(e)
        assert np.max(np.abs(z)) == pytest.approx(1.0)
        assert abs(np.mean(z)) < 1.0

    def test_constant_rejected(self):
        with pytest.raises(DegenerateResidual):
            normalize_residual(np.full(10, 4.2))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateResidual):
            normalize_residual(np.array([]))


def normalize_rows_oracle(e: np.ndarray, valid: np.ndarray):
    """_normalize_rows as first written, with a temporary for each step."""
    centered = e - e.mean(axis=1, keepdims=True)
    peaks = np.max(np.abs(centered), axis=1)
    floors = np.max(np.abs(e), axis=1) * 1e-12
    valid = valid & (peaks > floors) & np.isfinite(peaks)
    return centered[valid] / peaks[valid, None], valid


class TestNormalizeRowsOracle:
    """The row normalization of the residual stream has the oracle's bits,
    on the tiny corpus's frames and residuals."""

    def residuals(self, frames: np.ndarray):
        coeffs, _, _, valid = lp._levinson_batch(lp._autocorr_batch(frames, 13))
        return lp._residual_batch(frames, coeffs), valid

    def test_bits_equal_the_oracle(self, tiny_corpus_frames):
        e, lp_valid = self.residuals(tiny_corpus_frames)
        frames = tiny_corpus_frames
        every = np.ones(len(frames), dtype=bool)
        # LP analysis drops the zero row. Normalized as they are, the frames'
        # last three rows, zero and constant, are dropped, and the others
        # all kept, which the normalization divides in place.
        assert not lp_valid[-3] and lp_valid[-2:].all()
        assert not _normalize_rows(frames, every)[1][-3:].any()
        assert _normalize_rows(frames[:-3], every[:-3])[1].all()
        for rows, valid in ((e, lp_valid), (frames, every), (frames[:-3], every[:-3])):
            got, got_valid = _normalize_rows(rows, valid)
            expected, expected_valid = normalize_rows_oracle(rows, valid)
            np.testing.assert_array_equal(got_valid, expected_valid)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_the_callers_rows_are_left_alone(self, tiny_corpus_frames):
        e, _ = self.residuals(tiny_corpus_frames[:-3])
        before = e.copy()
        _normalize_rows(e, np.ones(len(e), dtype=bool))
        assert e.tobytes() == before.tobytes()
        for row in e[::50]:
            normalize_residual(row)
        assert e.tobytes() == before.tobytes()
        x = np.array([2.0, 4.0, -1.0])
        normalize_residual(x)
        assert x.tolist() == [2.0, 4.0, -1.0]


class TestAcrlagFeature:
    def test_default_dimension(self, rng):
        e = rng.standard_normal(160)
        assert acrlag_feature(e).shape == (13,)

    def test_impulse(self):
        e = np.zeros(160)
        e[80] = 1.0
        got = acrlag_feature(e)
        # After mean removal the impulse still dominates: lag 0 carries nearly
        # all the energy and higher lags are tiny.
        assert got[0] == pytest.approx(np.max(got))
        assert np.all(np.abs(got[1:]) < 0.05 * got[0])

    def test_pulse_train_peaks_at_period(self):
        period = 10
        e = np.zeros(160)
        e[::period] = 1.0
        got = acrlag_feature(e)
        interior = got[1:]
        assert np.argmax(interior) + 1 == period

    def test_matches_brute_force(self, rng):
        e = rng.standard_normal(160)
        z = e - np.mean(e)
        z = z / np.max(np.abs(z))
        expected = [
            sum(z[n] * z[n + m] for n in range(z.size - m)) for m in range(13)
        ]
        np.testing.assert_allclose(acrlag_feature(e), expected, atol=1e-12)

    def test_scale_invariance(self, rng):
        e = rng.standard_normal(160)
        base = acrlag_feature(e)
        for c in (1e-4, 0.5, 3.0, 1e5):
            np.testing.assert_allclose(acrlag_feature(c * e), base, atol=1e-10)

    def test_mean_shift_invariance(self, rng):
        e = rng.standard_normal(160)
        base = acrlag_feature(e)
        for b in (-20.0, -0.3, 0.7, 100.0):
            np.testing.assert_allclose(acrlag_feature(e + b), base, atol=1e-10)

    def test_custom_lag_count(self, rng):
        e = rng.standard_normal(160)
        cfg = AcrlagConfig(lp_order=10, max_lag=5)
        assert cfg.dim == 6
        assert acrlag_feature(e, cfg).shape == (6,)


class TestAcrlagVector:
    """The feature vector of one windowed frame: LP residual, then its
    lag-bounded autocorrelation."""

    def test_runs_full_chain(self, rng):
        frame, _ = random_ar_frame(rng, 13)
        v = extract_acrlag(FrameSequence(frame[None, :])).values[0]
        assert v.shape == (13,)
        # First element is the full energy of the normalized residual.
        assert v[0] > 0
        assert np.all(np.abs(v[1:]) <= v[0] + 1e-12)

    def test_equals_manual_chain(self, rng):
        frame, _ = random_ar_frame(rng, 13)
        e = lp.analyze_frame(frame, 13).residual
        np.testing.assert_allclose(
            extract_acrlag(FrameSequence(frame[None, :])).values[0], acrlag_feature(e)
        )

    def test_matches_batch_rows(self, rng):
        # Non-degenerate frames survive extraction, so row i is frame i.  The
        # scaled frames have r[0] down to about 1e-15; LP analysis takes any
        # positive energy, in one frame as in the batch.
        frames = np.vstack([random_ar_frame(rng, 4 + i % 17)[0] for i in range(40)])
        frames[::4] *= np.logspace(-6, -9, 10)[:, None]
        for cfg in (AcrlagConfig(), AcrlagConfig(lp_order=8, max_lag=20)):
            batch = extract_acrlag(FrameSequence(frames), cfg).values
            assert batch.shape == (40, cfg.dim)
            for frame, row in zip(frames, batch):
                e = lp.analyze_frame(frame, cfg.lp_order).residual
                np.testing.assert_array_equal(acrlag_feature(e, cfg), row)


class TestExtractAcrlag:
    def test_shape(self, speech_frames):
        feats = extract_acrlag(speech_frames)
        assert feats.kind is FeatureKind.ACRLAG
        assert feats.dim == 13
        assert 0 < feats.n_frames <= speech_frames.n_frames

    def test_degenerate_frames_skipped(self, rng):
        frames = np.zeros((5, 160))
        frames[2] = rng.standard_normal(160)
        frame, _ = random_ar_frame(rng, 13)
        frames[4] = frame
        feats = extract_acrlag(FrameSequence(frames))
        assert feats.n_frames == 2

    def test_all_degenerate_raises(self):
        with pytest.raises(NoFeatures):
            extract_acrlag(FrameSequence(np.zeros((4, 160))))
