import struct
import warnings

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
from voxid.features import FeatureKind, FeatureMatrix, pack_text
from voxid.gmm import (
    ALLOWED_COMPONENT_COUNTS,
    EXP_CLAMP,
    GmmModel,
    TrainConfig,
    em_fit,
    em_step,
    lbg_init,
    model_from_bytes,
    model_to_bytes,
    stack_models,
    stack_scores,
    train_gmm,
    LBG_MAX_PASSES,
    LBG_SHIFT_TOLERANCE,
    LBG_SPLIT_EPSILON,
    LOG_TWO_PI,
    _assign,
    _logsumexp,
    _moments,
    _score_block,
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


def _component_log_densities(
    means: np.ndarray, variances: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """log N(x_t | mu_i, diag sigma_i) for every frame and component row, (T, K)."""
    inv_var = 1.0 / variances
    log_norm = -0.5 * (means.shape[1] * LOG_TWO_PI + np.log(variances).sum(axis=1))
    quad = (
        (data * data) @ inv_var.T
        - 2.0 * data @ (means * inv_var).T
        + (means * means * inv_var).sum(axis=1)[None, :]
    )
    return log_norm[None, :] - 0.5 * quad


def model_score(model: GmmModel, data: np.ndarray) -> float:
    """One model's score of the rows of data, through a one-model stack."""
    return float(stack_scores(stack_models([model]), feats(np.atleast_2d(data)))[0])


def em_step_frame_major_reference(
    features: FeatureMatrix, model: GmmModel, floor: np.ndarray
) -> tuple[GmmModel, float]:
    """Reference EM step with the log-sum-exp and the responsibilities in
    the (T, M) layout, one row of components per frame."""
    data = features.values
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    weighted = _component_log_densities(model.means, model.variances, data) + log_weights
    frame_ll = _logsumexp(weighted.copy(), axis=1)
    resp = np.exp(weighted - frame_ll[:, None])
    occupancy, means, variances = _moments(resp, data)
    empty = np.isnan(means)
    new_means = np.where(empty, model.means, means)
    new_vars = np.maximum(np.where(empty, model.variances, variances), floor[None, :])
    stepped = GmmModel(model.feature_kind, occupancy / occupancy.sum(), new_means, new_vars)
    return stepped, float(frame_ll.sum())


def lbg_reference(data: np.ndarray, m: int) -> tuple[GmmModel, list[np.ndarray], int]:
    """Reference LBG: a one-hot assignment through the scoring kernel at unit
    variance and full moments on every Lloyd pass, as the algorithm is
    written.  Returns the model, the centroids of every assignment in order,
    and how many empty clusters were repaired."""
    seen = []

    def assign(centroids):
        seen.append(centroids.copy())
        log_dens = _component_log_densities(centroids, np.ones_like(centroids), data)
        return np.eye(centroids.shape[0])[np.argmax(log_dens, axis=1)]

    spread = data.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    repairs = 0
    counts, centroids, variances = _moments(np.ones((data.shape[0], 1)), data)
    while centroids.shape[0] < m:
        centroids = np.vstack(
            [centroids + LBG_SPLIT_EPSILON * spread, centroids - LBG_SPLIT_EPSILON * spread]
        )
        k = centroids.shape[0]
        for _ in range(LBG_MAX_PASSES):
            resp = assign(centroids)
            for _ in range(k):
                counts = resp.sum(axis=0)
                if counts.all():
                    break
                empty, busiest = np.argmin(counts), np.argmax(counts)
                centroids[empty] = centroids[busiest] + LBG_SPLIT_EPSILON * spread
                centroids[busiest] = centroids[busiest] - LBG_SPLIT_EPSILON * spread
                resp = assign(centroids)
                repairs += 1
            counts, means, variances = _moments(resp, data)
            assert counts.all()
            shift = np.max(np.abs(means - centroids))
            centroids = means
            if shift < LBG_SHIFT_TOLERANCE:
                break
    floor = variance_floor(feats(data), 1e-3)
    variances = np.maximum(variances, floor[None, :])
    return GmmModel(KIND, counts / counts.sum(), centroids, variances), seen, repairs


def repeated_rows_and_loose_ones(rng, rows: int, copies: int, loose: int, dim: int) -> np.ndarray:
    """copies of each of rows distinct frames, then loose single frames."""
    distinct = rng.standard_normal((rows, dim))
    return np.vstack([np.repeat(distinct, copies, axis=0), rng.standard_normal((loose, dim))])


def traced_lbg_init(monkeypatch, data: np.ndarray, m: int) -> tuple[GmmModel, list[np.ndarray]]:
    """lbg_init, and the centroids of every assignment it made in order.
    The terms hoisted out of the assignment must equal the scoring kernel's."""
    import voxid.gmm as gmm_module

    seen = []
    original = gmm_module._assign

    def recording(twice_data, unit_quad, centroids):
        inv_var = 1.0 / np.ones_like(centroids)
        np.testing.assert_array_equal(unit_quad, (data * data) @ inv_var.T)
        np.testing.assert_array_equal(twice_data, 2.0 * data)
        seen.append(centroids.copy())
        return original(twice_data, unit_quad, centroids)

    monkeypatch.setattr(gmm_module, "_assign", recording)
    return lbg_init(feats(data), m), seen


def assert_same_lbg_run(got, expected):
    model, seen = got
    reference, reference_seen, _ = expected
    assert model_to_bytes(model) == model_to_bytes(reference)
    assert len(seen) == len(reference_seen)
    for centroids, reference_centroids in zip(seen, reference_seen):
        np.testing.assert_array_equal(centroids, reference_centroids)


# One row per frame; a -inf entry is what a zero mixture weight contributes.
EDGE_ROWS = np.array(
    [
        [-np.inf, -np.inf, -np.inf],
        [np.nan, 0.0, 1.0],
        [np.nan, -np.inf, -np.inf],
        [np.inf, 0.0, 1.0],
        [np.inf, -np.inf, np.inf],
        [-np.inf, 2.0, -np.inf],
    ]
)
EDGE_ROWS_EXPECTED = [-np.inf, np.nan, np.nan, np.inf, np.inf, 2.0]


class TestLogSumExp:
    def test_matches_scipy_on_random_blocks(self, rng):
        for shape in [(231, 16, 8), (40, 3, 2), (7, 1, 64)]:
            a = rng.standard_normal(shape) * rng.uniform(1.0, 300.0)
            for axis in range(3):
                np.testing.assert_allclose(
                    _logsumexp(a.copy(), axis), logsumexp(a, axis=axis), rtol=1e-12, atol=0
                )

    def test_edge_rows_match_scipy_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(EDGE_ROWS.copy(), 1)
        np.testing.assert_array_equal(got, logsumexp(EDGE_ROWS, axis=1))
        np.testing.assert_array_equal(got, EDGE_ROWS_EXPECTED)

    @pytest.mark.parametrize(
        "layout, axis",
        [
            (lambda rows: np.ascontiguousarray(rows.T), 0),
            (lambda rows: np.ascontiguousarray(rows.T)[None], 1),
        ],
        ids=["M-T", "block-M-T"],
    )
    def test_component_major_edge_rows_match_scipy_without_warnings(self, layout, axis):
        # The layouts em_step and the scoring blocks reduce over.
        a = layout(EDGE_ROWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(a.copy(), axis)
        np.testing.assert_array_equal(got, logsumexp(a, axis=axis))
        np.testing.assert_array_equal(got.ravel(), EDGE_ROWS_EXPECTED)


def logsumexp_plain_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """Oracle: the shifted log-sum-exp with a plain np.exp of every term."""
    peak = a.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def far_component_block(rng, shape: tuple, axis: int, share: float) -> np.ndarray:
    """Log-densities in which about `share` of the max-shifted entries lie in
    [-760, -690], around the subnormal range of exp, and each row along
    axis holds one exact-0 maximum; the rest lie in [-40, 0)."""
    shifted = np.where(
        rng.random(shape) < share, rng.uniform(-760.0, -690.0, shape), rng.uniform(-40.0, 0.0, shape)
    )
    winner = rng.integers(0, shape[axis], size=shape[:axis] + (1,) + shape[axis + 1 :])
    np.put_along_axis(shifted, winner, 0.0, axis=axis)
    # Half the rows sit at a level where the shift is exact, half need not be.
    level_shape = shape[:axis] + (1,) + shape[axis + 1 :]
    level = np.where(rng.random(level_shape) < 0.5, 0.0, rng.uniform(-80.0, 20.0, level_shape))
    return shifted + level


def clamp_edge_rows() -> np.ndarray:
    """Rows of log-densities around the values the clamp separates, each
    with an exact-0 maximum, then rows whose maximum is not finite."""
    tiny_log = np.log(np.finfo(np.float64).tiny)
    near = [
        EXP_CLAMP,
        np.nextafter(EXP_CLAMP, -np.inf),
        np.nextafter(EXP_CLAMP, np.inf),
        tiny_log,
        np.nextafter(tiny_log, -np.inf),
        np.nextafter(tiny_log, np.inf),
        -745.2,
        -745.1,
        -1e300,
        -np.inf,
    ]
    rows = [[0.0, x, x] for x in near] + [[x, 0.0, y] for x in near for y in near]
    rows += [
        [0.0, -np.inf, -np.inf],
        [-np.inf, -np.inf, -np.inf],
        [np.nan, EXP_CLAMP, -np.inf],
        [np.nan, -np.inf, -np.inf],
        [np.inf, EXP_CLAMP - 1.0, -np.inf],
        [np.inf, -np.inf, np.inf],
    ]
    return np.array(rows)


class TestClampedExp:
    """_logsumexp raises the max-shifted terms below EXP_CLAMP to it before
    its exp; those terms vanish against each row's exact 1.0, so the sums
    keep the bits of a plain np.exp."""

    def test_clamp_is_normal_and_below_two_to_the_minus_1000(self):
        assert np.finfo(np.float64).tiny < np.exp(EXP_CLAMP) < 2.0**-1000

    @pytest.mark.parametrize("m", ALLOWED_COMPONENT_COUNTS)
    @pytest.mark.parametrize("layout", ["block-M-T", "M-T"])
    def test_matches_plain_exp_bit_for_bit(self, rng, m, layout):
        # A scoring block of a 231-frame utterance, or an EM step's (M, T).
        if layout == "block-M-T":
            shape, axis = (_score_block(m, 231), m, 231), 1
        else:
            shape, axis = (m, 231), 0
        for share in (0.1, 0.3, 0.5, 0.7, 0.9):
            # One entry in m of a row is its maximum.
            expected = min(share, 1.0 - 1.0 / m)
            a = far_component_block(rng, shape, axis, min(1.0, share * m / (m - 1)))
            shifted = a - a.max(axis=axis, keepdims=True)
            in_range = np.mean((shifted >= -760.0) & (shifted <= -690.0))
            assert abs(in_range - expected) < 0.05
            saved = a.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp(a, axis)
            np.testing.assert_array_equal(got, logsumexp_plain_exp(saved, axis))

    @pytest.mark.parametrize(
        "layout, axis",
        [
            (lambda rows: np.ascontiguousarray(rows.T), 0),
            (lambda rows: np.ascontiguousarray(np.stack([rows.T, rows.T - 3.0])), 1),
        ],
        ids=["M-T", "block-M-T"],
    )
    @pytest.mark.parametrize("level", [0.0, -0.375, 20.0, -80.0])
    def test_edge_rows_match_plain_exp_without_warnings(self, layout, axis, level):
        a = layout(clamp_edge_rows() + level)
        saved = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(a, axis)
            expected = logsumexp_plain_exp(saved, axis)
        np.testing.assert_array_equal(got, expected)
        # All-(-inf) rows give -inf, not log(M * exp(EXP_CLAMP)).
        assert np.count_nonzero(got == -np.inf) == np.count_nonzero(
            np.all(saved == -np.inf, axis=axis)
        ) > 0

    def test_scoring_and_em_leave_their_inputs_untouched(self, rng):
        d, m = 4, 8
        w = rng.uniform(0.2, 1.0, m)
        model = GmmModel(KIND, w / w.sum(), rng.standard_normal((m, d)), rng.uniform(0.3, 2.0, (m, d)))
        # Far frames put many terms below EXP_CLAMP.
        fm = feats(rng.standard_normal((300, d)) * 40.0)
        saved = (fm.values.copy(), model.weights.copy(), model.means.copy(), model.variances.copy())
        # Two whole blocks and one model more.
        stack = stack_models([model] * (2 * _score_block(m, 300) + 1))
        stack_scores(stack, fm)
        em_step(fm, model, variance_floor(fm, 1e-3))
        for array, before in zip((fm.values, model.weights, model.means, model.variances), saved):
            np.testing.assert_array_equal(array, before)


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

    def test_denormal_variance_rejected_without_warnings(self):
        # 1e-320 is positive and finite, but mean / var and -0.5 / var overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mean / var"):
                GmmModel(KIND, np.array([1.0]), np.ones((1, 2)), np.array([[1.0, 1e-320]]))

    def test_overflowing_row_sum_rejected_built_and_loaded(self):
        # Each mean^2 / var is finite, but component 0's sum, the offset
        # that stack_models scores with, overflows.
        weights, variances = np.array([0.5, 0.5]), np.ones((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"mean\^2 / var must be finite"):
                GmmModel(KIND, weights, np.array([[1e154, 1e154], [0.0, 0.0]]), variances)
            blob = model_to_bytes(GmmModel(KIND, weights, [[2.0, 2.0], [0.0, 0.0]], variances))
            huge = blob.replace(struct.pack("<d", 2.0), struct.pack("<d", 1e154))
            with pytest.raises(BadFileFormat, match=r"mean\^2 / var must be finite"):
                model_from_bytes(huge)


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

    def test_too_few_distinct_frames_raises(self):
        # Two distinct rows cannot fill four clusters however they are split.
        data = np.repeat([[0.0, 0.0], [1.0, 1.0]], 50, axis=0)
        with pytest.raises(InsufficientData, match="2 distinct frames cannot fill 4 clusters"):
            lbg_init(feats(data), 4)

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                repeated_rows_and_loose_ones(np.random.default_rng(12345), 24, 40, 8, 3),
                "k-means left 1 of 16 clusters empty after 16 repairs (32 distinct frames)",
            ),
            (
                np.random.default_rng(12345).integers(0, 4, (600, 2)).astype(np.float64),
                "k-means left 3 of 16 clusters empty after 16 repairs (16 distinct frames)",
            ),
        ],
        ids=["32-distinct", "16-distinct"],
    )
    def test_repair_limit_named_when_frames_suffice(self, data, message):
        # Enough distinct frames exist, so the failure is the repair's limit.
        with pytest.raises(InsufficientData) as caught:
            lbg_init(feats(data), 16)
        assert str(caught.value) == message

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_nearest_mean_partition_oracle(self, rng, m):
        data = rng.standard_normal((600, 3)) * np.array([1.0, 3.0, 0.5]) + 2.0
        fm = feats(data)
        model = lbg_init(fm, m)
        # Oracle: partition by nearest final mean, then per-cluster numpy stats.
        distances = np.linalg.norm(data[:, None, :] - model.means[None, :, :], axis=2)
        assign = np.argmin(distances, axis=1)
        weights = np.array([np.mean(assign == i) for i in range(m)])
        variances = np.vstack([data[assign == i].var(axis=0) for i in range(m)])
        floored = np.maximum(variances, variance_floor(fm, 1e-3)[None, :])
        np.testing.assert_allclose(model.weights, weights, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.variances, floored, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_bit_identical_to_reference(self, rng, monkeypatch, m):
        # Every Lloyd pass must assign against the same centroid bits: a
        # drift of one ulp there rarely changes a label, so the model alone
        # would not show it.
        data = rng.standard_normal((1500, 13)) * rng.uniform(0.1, 3.0, 13) + rng.normal(0, 2, 13)
        assert_same_lbg_run(traced_lbg_init(monkeypatch, data, m), lbg_reference(data, m))

    def test_bit_identical_to_reference_through_repairs(self, rng, monkeypatch):
        # Ten copies each of 12 rows plus 8 loose ones: splits leave clusters
        # empty, and the repair must refill them the same way.
        data = repeated_rows_and_loose_ones(rng, 12, 10, 8, 3)
        expected = lbg_reference(data, 16)
        assert expected[2] > 0
        assert_same_lbg_run(traced_lbg_init(monkeypatch, data, 16), expected)

    def test_assign_matches_reference_at_near_ties(self, rng):
        # Each frame lies within 1e-8 of four centroids, so their unit-variance
        # log-densities differ in the last bits, or not at all; the labels must
        # be the reference's argmax, first index winning a tie.
        d = 19
        base = rng.standard_normal((3, d))
        centroids = np.repeat(base, 4, axis=0) + 1e-8 * rng.standard_normal((12, d))
        data = np.repeat(base, 50, axis=0) + 1e-8 * rng.standard_normal((150, d))
        log_dens = _component_log_densities(centroids, np.ones_like(centroids), data)
        labels = _assign(2.0 * data, (data * data) @ np.ones((12, d)).T, centroids)
        np.testing.assert_array_equal(labels, np.argmax(log_dens, axis=1))

    def test_assign_takes_the_first_nan_like_argmax(self, rng):
        # np.argmax returns the first NaN of a row: a NaN frame goes to
        # centroid 0, and with NaN centroids 2 and 4 every other frame to 2.
        d = 5
        centroids = rng.standard_normal((6, d))
        centroids[[2, 4], 1] = np.nan
        data = rng.standard_normal((40, d))
        data[7, 3] = np.nan
        log_dens = _component_log_densities(centroids, np.ones_like(centroids), data)
        labels = _assign(2.0 * data, (data * data) @ np.ones((6, d)).T, centroids)
        np.testing.assert_array_equal(labels, np.argmax(log_dens, axis=1))
        np.testing.assert_array_equal(labels, np.where(np.arange(40) == 7, 0, 2))

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
        assert model_score(model, np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_d_dimensional_standard_normal(self):
        d = 7
        model = GmmModel(KIND, np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))
        assert model_score(model, np.zeros(d)) == pytest.approx(-d / 2 * np.log(2 * np.pi))

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
            assert model_score(model, x) == pytest.approx(
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
        assert model_score(model, x) == pytest.approx(model_score(shuffled, x), abs=1e-12)

    def test_dim_error(self):
        model = GmmModel(KIND, np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(DimError):
            model_score(model, np.zeros(2))


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

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_step_matches_frame_major_reference(self, rng, m):
        # The kernel reduces over components in the (M, T) layout; only the
        # order of the sums over components may move the last bits.
        data = rng.standard_normal((3000, 5)) * rng.uniform(0.2, 2.0, 5) + 1.5
        fm = feats(data)
        floor = variance_floor(fm, 1e-3)
        w = rng.uniform(0.2, 1.0, m)
        w[-1] = 0.0
        model = GmmModel(
            KIND, w / w.sum(), rng.standard_normal((m, 5)) + 1.5, rng.uniform(0.3, 2.0, (m, 5))
        )
        got, ll = em_step(fm, model, floor)
        expected, expected_ll = em_step_frame_major_reference(fm, model, floor)
        for name in ("weights", "means", "variances"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(expected, name), rtol=1e-12, atol=0, err_msg=name
            )
        assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0)

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

    def test_train_gmm_calls_lbg_and_em_through_the_module(self, rng, monkeypatch):
        # A tracer wraps the module attributes; a direct reference would
        # leave its spans reading 0.
        import voxid.gmm as gmm_module

        calls = []
        for name in ("lbg_init", "em_fit"):
            original = getattr(gmm_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(gmm_module, name, counting)
        train_gmm(two_clouds(rng, n_per=100), TrainConfig(n_components=2))
        assert calls == ["lbg_init", "em_fit"]

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
        got = model_score(model, x[None, :])
        assert got == pytest.approx(mixture_log_density_oracle(model, x), abs=1e-10)

    def test_sums_per_frame_logs(self, rng):
        model = self.make_model(rng)
        data = rng.standard_normal((40, 3))
        expected = sum(model_score(model, row) for row in data)
        assert model_score(model, data) == pytest.approx(expected, abs=1e-9)

    def test_concatenation_additivity(self, rng):
        model = self.make_model(rng)
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal((25, 3))
        whole = model_score(model, np.vstack([a, b]))
        assert whole == pytest.approx(
            model_score(model, a) + model_score(model, b),
            abs=1e-9,
        )

    def test_zero_frames_score_zero_per_model(self, rng):
        # The empty sum, in one block and across two block boundaries.
        model = self.make_model(rng, m=4)
        for n_models in (1, 2 * _score_block(4, 0) + 3):
            stack = stack_models([model] * n_models)
            got = stack_scores(stack, feats(np.zeros((0, 3))))
            np.testing.assert_array_equal(got, np.zeros(n_models))

    def test_kind_and_dim_guards(self, rng):
        stack = stack_models([self.make_model(rng)])
        with pytest.raises(FeatureKindMismatch):
            stack_scores(stack, FeatureMatrix(FeatureKind.MFCC, np.zeros((2, 3))))
        with pytest.raises(DimError):
            stack_scores(stack, feats(np.zeros((2, 4))))

    def assert_stacked_equal_alone(self, pool, n_models, data):
        """n_models drawn from pool in turn score in one stack what each
        scores alone, bit for bit."""
        alone = [model_score(model, data) for model in pool]
        models = [pool[i % len(pool)] for i in range(n_models)]
        got = stack_scores(stack_models(models), feats(data))
        np.testing.assert_array_equal(got, [alone[i % len(pool)] for i in range(n_models)])

    # (13, 8) and (19, 8) are the default residual and spectral streams.  A
    # one-frame product takes another BLAS path, seen at M=2.
    @pytest.mark.parametrize("d, m", [(5, 4), (13, 8), (19, 8), (13, 2), (19, 2)])
    def test_stacked_scores_equal_one_model_reference(self, rng, d, m):
        pool = [self.make_model(rng, d=d, m=m) for _ in range(37)]
        for n_frames in (1, 60):
            # Two whole blocks and a partial one.
            n_models = 2 * _score_block(m, n_frames) + 3
            self.assert_stacked_equal_alone(pool, n_models, rng.standard_normal((n_frames, d)))

    # Blocks of one model each, and one block of 600 models and more: the
    # budget's two ends.  In a product of 1,206 columns (603 models at M=2),
    # the last columns' sums differed from the one-model sums for about 4
    # in 10 draws of the frames, so each case scores 10 draws.
    @pytest.mark.parametrize(
        "m, n_frames, n_models", [(64, 1500, 5), (2, 12, 603)], ids=["one-model", "wide"]
    )
    @pytest.mark.parametrize("d", [13, 19])
    def test_stacked_scores_equal_one_model_reference_at_the_budget_ends(
        self, rng, d, m, n_frames, n_models
    ):
        pool = [self.make_model(rng, d=d, m=m) for _ in range(n_models)]
        for _ in range(10):
            self.assert_stacked_equal_alone(pool, n_models, rng.standard_normal((n_frames, d)))

    # The corpus's utterances keep about 231 frames: every frame count mod 8
    # around it, against the benchmark's 100 speakers, for both streams.
    @pytest.mark.parametrize("n_frames", range(224, 240))
    @pytest.mark.parametrize("d", [13, 19])
    def test_stacked_scores_equal_one_model_reference_at_corpus_frame_counts(
        self, rng, d, n_frames
    ):
        models = [self.make_model(rng, d=d, m=8) for _ in range(100)]
        data = rng.standard_normal((n_frames, d))
        got = stack_scores(stack_models(models), feats(data))
        expected = [model_score(model, data) for model in models]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_stacked_scores_match_direct_oracle(self, rng, m):
        # Two whole blocks and a partial one, of 37 distinct models in turn.
        pool = [self.make_model(rng, d=3, m=m) for _ in range(37)]
        data = rng.standard_normal((12, 3))
        oracle = [sum(mixture_log_density_oracle(model, x) for x in data) for model in pool]
        n_models = 2 * _score_block(m, 12) + 3
        got = stack_scores(stack_models([pool[i % 37] for i in range(n_models)]), feats(data))
        expected = [oracle[i % 37] for i in range(n_models)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_zero_weight_component_scores_as_if_removed(self, rng):
        full = self.make_model(rng, d=3, m=3)
        zeroed = GmmModel(KIND, np.array([0.6, 0.0, 0.4]), full.means, full.variances)
        removed = GmmModel(KIND, np.array([0.6, 0.4]), full.means[[0, 2]], full.variances[[0, 2]])
        data = rng.standard_normal((50, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model_score(zeroed, data) == model_score(removed, data)
            assert model_score(zeroed, data[0]) == model_score(removed, data[0])
            stepped, _ = em_step(feats(data), zeroed, variance_floor(feats(data), 1e-3))
        assert stepped.weights[1] == 0.0

    def test_mixed_component_counts_rejected(self, rng):
        models = [self.make_model(rng, m=2), self.make_model(rng, m=4)]
        with pytest.raises(DimError, match="components"):
            stack_models(models)


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

    def test_zero_dimension_blob_rejected(self):
        blob = (
            b"VOXGMM"
            + struct.pack("<H", 1)
            + pack_text(KIND.value)
            + struct.pack("<II", 1, 0)
            + struct.pack("<d", 1.0)
        )
        with pytest.raises(BadFileFormat, match="dimension"):
            model_from_bytes(blob)

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
