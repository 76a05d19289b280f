import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from voxid.errors import (
    BadFileFormat,
    DimError,
    FeatureKindMismatch,
    InsufficientData,
)
from voxid.features import FeatureKind, FeatureMatrix
from voxid.gmm import (
    GmmModel,
    TrainConfig,
    em_fit,
    em_step,
    lbg_init,
    load_model,
    log_density,
    model_from_bytes,
    model_to_bytes,
    save_model,
    train_gmm,
    SCORE_BLOCK,
    utterance_score,
    utterance_scores,
    variance_floor,
)

KIND = FeatureKind.ACRLAG


def feats(values: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(KIND, values)


def two_clouds(rng, n_per=400, dim=3, separation=8.0):
    a = rng.standard_normal((n_per, dim)) * 0.5
    b = rng.standard_normal((n_per, dim)) * 0.5
    b[:, 0] += separation
    return feats(np.vstack([a, b]))


def mixture_log_density_oracle(model: GmmModel, x: np.ndarray) -> float:
    """Oracle: direct evaluation of log sum_i w_i N(x; mu_i, diag var_i)."""
    total = 0.0
    for w, mu, var in zip(model.weights, model.means, model.variances):
        quad = np.sum((x - mu) ** 2 / var)
        norm = np.prod(2 * np.pi * var) ** -0.5
        total += w * norm * np.exp(-0.5 * quad)
    return float(np.log(total))


def one_model_score_reference(model: GmmModel, data: np.ndarray) -> float:
    """Reference: one model scored alone, in the same arithmetic as the
    stacked kernel, so stacking must not change a single bit."""
    inv_var = 1.0 / model.variances
    log_norm = -0.5 * (model.dim * np.log(2.0 * np.pi) + np.log(model.variances).sum(axis=1))
    quad = (
        (data * data) @ inv_var.T
        - 2.0 * data @ (model.means * inv_var).T
        + (model.means * model.means * inv_var).sum(axis=1)[None, :]
    )
    weighted = log_norm[None, :] - 0.5 * quad + np.log(model.weights)[None, :]
    return float(logsumexp(weighted, axis=1).sum())


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmModel(KIND, np.array([0.7, 0.7]), np.zeros((2, 1)), np.ones((2, 1)))

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmModel(KIND, np.array([1.0]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    def test_shape_consistency(self):
        with pytest.raises(ValueError):
            GmmModel(KIND, np.array([1.0]), np.zeros((2, 3)), np.ones((1, 3)))

    @pytest.mark.parametrize(
        "weights, means",
        [
            ([np.nan, 1.0], [[0.0], [1.0]]),
            ([0.5, 0.5], [[np.nan], [1.0]]),
            ([0.5, 0.5], [[np.inf], [1.0]]),
        ],
    )
    def test_non_finite_weights_and_means_rejected(self, weights, means):
        with pytest.raises(ValueError, match="finite"):
            GmmModel(KIND, np.array(weights), np.array(means), np.ones((2, 1)))


class TestTrainConfig:
    def test_rejects_non_power_of_two(self):
        for bad in (3, 5, 6, 7, 12, 100):
            with pytest.raises(ValueError):
                TrainConfig(n_components=bad)

    def test_allowed_counts(self):
        for m in (2, 4, 8, 16, 32, 64):
            assert TrainConfig(n_components=m).n_components == m


class TestVarianceFloor:
    def test_scales_global_variance(self, rng):
        data = rng.standard_normal((500, 2)) * np.array([1.0, 10.0])
        floor = variance_floor(feats(data), 1e-3)
        np.testing.assert_allclose(floor, 1e-3 * data.var(axis=0))

    def test_zero_variance_dim_gets_positive_floor(self, rng):
        data = np.column_stack([rng.standard_normal(100), np.full(100, 2.0)])
        floor = variance_floor(feats(data), 1e-3)
        assert np.all(floor > 0)


class TestLbgInit:
    def test_single_component_is_global_stats(self, rng):
        data = rng.standard_normal((300, 4)) * 2.0 + 1.0
        model = lbg_init(feats(data), 1)
        assert model.n_components == 1
        np.testing.assert_allclose(model.weights, [1.0])
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.variances[0], data.var(axis=0), atol=1e-12)

    def test_two_clouds_found(self, rng):
        fm = two_clouds(rng)
        model = lbg_init(fm, 2)
        centers = model.means[np.argsort(model.means[:, 0])]
        data = fm.values
        lo = data[data[:, 0] < 4.0].mean(axis=0)
        hi = data[data[:, 0] >= 4.0].mean(axis=0)
        np.testing.assert_allclose(centers[0], lo, atol=1e-3)
        np.testing.assert_allclose(centers[1], hi, atol=1e-3)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=1e-6)

    def test_weights_form_simplex(self, rng):
        data = rng.standard_normal((256, 5))
        for m in (2, 4, 8):
            model = lbg_init(feats(data), m)
            assert model.weights.sum() == pytest.approx(1.0)
            assert np.all(model.weights >= 0)
            assert model.n_components == m

    def test_rejects_non_power_of_two(self, rng):
        with pytest.raises(ValueError):
            lbg_init(feats(rng.standard_normal((64, 2))), 3)

    def test_insufficient_data(self, rng):
        with pytest.raises(InsufficientData):
            lbg_init(feats(rng.standard_normal((3, 2))), 4)

    def test_floors_variances_at_configured_ratio(self, rng):
        # The clouds lie 8 apart along dimension 0, so cluster variances there
        # sit far below half the global variance until the floor lifts them.
        fm = two_clouds(rng)
        data = fm.values
        model = lbg_init(fm, 4, variance_floor_ratio=0.5)
        assert np.all(model.variances >= 0.5 * data.var(axis=0)[None, :])

    def test_train_gmm_seeds_with_configured_ratio(self, rng):
        fm = two_clouds(rng)
        cfg = TrainConfig(n_components=2, variance_floor_ratio=0.5)
        trained = train_gmm(fm, cfg)
        expected = em_fit(fm, lbg_init(fm, 2, variance_floor_ratio=0.5), cfg)
        default_seeded = em_fit(fm, lbg_init(fm, 2), cfg)
        np.testing.assert_array_equal(trained.variances, expected.variances)
        assert not np.array_equal(trained.variances, default_seeded.variances)

    def test_deterministic(self, rng):
        data = rng.standard_normal((512, 6))
        a = lbg_init(feats(data), 8)
        b = lbg_init(feats(data), 8)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.variances, b.variances)


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        model = GmmModel(KIND, np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
        assert log_density(model, np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_d_dimensional_standard_normal(self):
        d = 7
        model = GmmModel(KIND, np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))
        assert log_density(model, np.zeros(d)) == pytest.approx(-d / 2 * np.log(2 * np.pi))

    def test_matches_direct_oracle(self, rng):
        d, m = 4, 3
        w = rng.uniform(0.1, 1.0, m)
        model = GmmModel(
            KIND,
            w / w.sum(),
            rng.standard_normal((m, d)),
            rng.uniform(0.2, 2.0, (m, d)),
        )
        for _ in range(25):
            x = rng.standard_normal(d) * 2
            assert log_density(model, x) == pytest.approx(
                mixture_log_density_oracle(model, x), abs=1e-10
            )

    def test_component_permutation_invariance(self, rng):
        d, m = 3, 4
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        means = rng.standard_normal((m, d))
        variances = rng.uniform(0.5, 1.5, (m, d))
        model = GmmModel(KIND, w, means, variances)
        perm = rng.permutation(m)
        shuffled = GmmModel(KIND, w[perm], means[perm], variances[perm])
        x = rng.standard_normal(d)
        assert log_density(model, x) == pytest.approx(log_density(shuffled, x), abs=1e-12)

    def test_dim_error(self):
        model = GmmModel(KIND, np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(DimError):
            log_density(model, np.zeros(2))


class TestEm:
    def test_monotone_log_likelihood(self, rng):
        fm = two_clouds(rng, n_per=200)
        floor = variance_floor(fm, 1e-3)
        model = lbg_init(fm, 4)
        previous = None
        for _ in range(10):
            model, ll = em_step(fm, model, floor)
            if previous is not None:
                assert ll >= previous - 1e-8 * abs(previous)
            previous = ll

    def test_single_component_fixed_point(self, rng):
        data = rng.standard_normal((300, 2))
        fm = feats(data)
        floor = variance_floor(fm, 1e-3)
        model = lbg_init(fm, 1)
        stepped, _ = em_step(fm, model, floor)
        np.testing.assert_allclose(stepped.means, model.means, atol=1e-9)
        np.testing.assert_allclose(stepped.variances, model.variances, atol=1e-9)

    def test_fit_runs_requested_iterations_exactly(self, rng, monkeypatch):
        import voxid.gmm as gmm_module

        fm = two_clouds(rng, n_per=100)
        calls = []
        original = gmm_module.em_step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gmm_module, "em_step", counting)
        em_fit(fm, lbg_init(fm, 2), TrainConfig(n_components=2, em_iterations=10))
        assert len(calls) == 10

    def test_recovers_two_component_mixture(self, rng):
        n = 5000
        w_true = np.array([0.3, 0.7])
        mu_true = np.array([[0.0, 0.0], [6.0, -6.0]])
        sd_true = np.array([[1.0, 0.5], [0.7, 1.2]])
        counts = rng.multinomial(n, w_true)
        parts = [
            rng.standard_normal((counts[i], 2)) * sd_true[i] + mu_true[i]
            for i in range(2)
        ]
        fm = feats(np.vstack(parts))
        model = train_gmm(fm, TrainConfig(n_components=2))
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.weights[order], w_true, atol=0.05)
        for i, j in enumerate(order):
            np.testing.assert_allclose(
                model.means[j], mu_true[i], atol=0.1 * sd_true[i].max()
            )

    def test_variance_floor_enforced(self, rng):
        # One dimension is almost constant inside each cloud; the floor from
        # the global spread must prop up every component variance.
        data = np.column_stack(
            [rng.standard_normal(400), np.repeat([0.0, 100.0], 200)]
        )
        fm = feats(data)
        model = train_gmm(fm, TrainConfig(n_components=2))
        floor = variance_floor(fm, 1e-3)
        assert np.all(model.variances >= floor[None, :] * (1 - 1e-12))

    def test_kind_mismatch(self, rng):
        fm = two_clouds(rng, n_per=50)
        other = FeatureMatrix(FeatureKind.MFCC, fm.values)
        model = lbg_init(fm, 2)
        with pytest.raises(FeatureKindMismatch):
            em_fit(other, model, TrainConfig(n_components=2))

    def test_train_deterministic(self, rng):
        fm = two_clouds(rng, n_per=300)
        a = train_gmm(fm, TrainConfig(n_components=4))
        b = train_gmm(fm, TrainConfig(n_components=4))
        assert model_to_bytes(a) == model_to_bytes(b)


class TestUtteranceScore:
    def make_model(self, rng, d=3, m=2):
        w = rng.uniform(0.2, 1.0, m)
        return GmmModel(
            KIND, w / w.sum(), rng.standard_normal((m, d)), rng.uniform(0.3, 2.0, (m, d))
        )

    def test_single_frame_equals_log_density(self, rng):
        model = self.make_model(rng)
        x = rng.standard_normal(3)
        got = utterance_score(model, feats(x[None, :]))
        assert got == pytest.approx(log_density(model, x), abs=1e-12)

    def test_sums_per_frame_logs(self, rng):
        model = self.make_model(rng)
        data = rng.standard_normal((40, 3))
        expected = sum(log_density(model, row) for row in data)
        assert utterance_score(model, feats(data)) == pytest.approx(expected, abs=1e-9)

    def test_concatenation_additivity(self, rng):
        model = self.make_model(rng)
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal((25, 3))
        whole = utterance_score(model, feats(np.vstack([a, b])))
        assert whole == pytest.approx(
            utterance_score(model, feats(a)) + utterance_score(model, feats(b)),
            abs=1e-9,
        )

    def test_kind_and_dim_guards(self, rng):
        model = self.make_model(rng)
        with pytest.raises(FeatureKindMismatch):
            utterance_score(model, FeatureMatrix(FeatureKind.MFCC, np.zeros((2, 3))))
        with pytest.raises(DimError):
            utterance_score(model, feats(np.zeros((2, 4))))

    def test_stacked_scores_equal_one_model_reference(self, rng):
        # More models than one block holds, so a block boundary is crossed.
        models = [self.make_model(rng, d=5, m=4) for _ in range(2 * SCORE_BLOCK + 3)]
        data = rng.standard_normal((60, 5))
        got = utterance_scores(models, feats(data))
        expected = [one_model_score_reference(model, data) for model in models]
        np.testing.assert_array_equal(got, expected)
        assert [utterance_score(model, feats(data)) for model in models] == expected

    def test_mixed_component_counts_rejected(self, rng):
        models = [self.make_model(rng, m=2), self.make_model(rng, m=4)]
        with pytest.raises(DimError, match="components"):
            utterance_scores(models, feats(rng.standard_normal((5, 3))))


# Means and variances in [1, 2): one bit flip can turn any of them into
# inf or NaN (the top exponent bit).
FLIP_BLOB = model_to_bytes(
    GmmModel(
        FeatureKind.MFCC,
        np.array([0.25, 0.75]),
        1.0 + np.arange(6.0).reshape(2, 3) / 8,
        1.5 - np.arange(6.0).reshape(2, 3) / 16,
    )
)


class TestPersistence:
    def make_model(self, rng):
        fm = two_clouds(rng, n_per=100)
        return train_gmm(fm, TrainConfig(n_components=2))

    def test_bytes_round_trip_bit_exact(self, rng):
        model = self.make_model(rng)
        back = model_from_bytes(model_to_bytes(model))
        assert back.feature_kind is model.feature_kind
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)

    def test_file_round_trip(self, rng, tmp_path):
        model = self.make_model(rng)
        path = tmp_path / "model.gmm"
        save_model(model, path)
        back = load_model(path)
        assert model_to_bytes(back) == model_to_bytes(model)

    def test_corrupted_magic_rejected(self, rng):
        blob = bytearray(model_to_bytes(self.make_model(rng)))
        blob[0] ^= 0xFF
        with pytest.raises(BadFileFormat, match="magic"):
            model_from_bytes(bytes(blob))

    def test_unknown_version_rejected(self, rng):
        blob = bytearray(model_to_bytes(self.make_model(rng)))
        blob[6:8] = (99).to_bytes(2, "little")
        with pytest.raises(BadFileFormat, match="version"):
            model_from_bytes(bytes(blob))

    def test_truncation_rejected(self, rng):
        blob = model_to_bytes(self.make_model(rng))
        with pytest.raises(BadFileFormat):
            model_from_bytes(blob[: len(blob) - 3])

    def test_trailing_bytes_rejected(self, rng):
        blob = model_to_bytes(self.make_model(rng))
        with pytest.raises(BadFileFormat):
            model_from_bytes(blob + b"\x00")

    def test_every_truncation_rejected(self, rng):
        blob = model_to_bytes(self.make_model(rng))
        for n in range(len(blob)):
            with pytest.raises(BadFileFormat):
                model_from_bytes(blob[:n])

    def test_non_finite_payload_rejected(self, rng):
        model = self.make_model(rng)
        blob = bytearray(model_to_bytes(model))
        payload = len(blob) - 8 * (model.n_components + 2 * model.means.size)
        struct.pack_into("<d", blob, payload + 8 * model.n_components, np.nan)  # first mean
        with pytest.raises(BadFileFormat, match="finite"):
            model_from_bytes(bytes(blob))

    def test_non_utf8_kind_rejected(self, rng):
        blob = bytearray(model_to_bytes(self.make_model(rng)))
        blob[12] = 0xFF  # first byte of the feature-kind name
        with pytest.raises(BadFileFormat):
            model_from_bytes(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(bit=st.integers(0, 8 * len(FLIP_BLOB) - 1))
    def test_bit_flip_loads_or_raises_bad_file_format(self, bit):
        blob = bytearray(FLIP_BLOB)
        blob[bit // 8] ^= 1 << (bit % 8)
        try:
            model_from_bytes(bytes(blob))
        except BadFileFormat:
            pass
