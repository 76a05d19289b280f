"""Diagonal-covariance Gaussian mixture speaker models.

Training follows the classical recipe: a codebook grown by LBG binary
splitting seeds the mixture, then a fixed number of EM iterations refine
weights, means, and diagonal variances.  Scoring is the log-sum-exp of the
weighted component log-densities, summed over frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadFileFormat,
    DimError,
    FeatureKindMismatch,
    InsufficientData,
    NumericalFailure,
    check_types,
    named,
)
from .features import BlobReader, FeatureKind, FeatureMatrix, pack_text

MODEL_MAGIC = b"VOXGMM"
MODEL_VERSION = 1

ALLOWED_COMPONENT_COUNTS = (2, 4, 8, 16, 32, 64)

LBG_SPLIT_EPSILON = 0.01
LBG_SHIFT_TOLERANCE = 1e-6
LBG_MAX_PASSES = 100

LOG_TWO_PI = float(np.log(2.0 * np.pi))

DEFAULT_VARIANCE_FLOOR_RATIO = 1e-3

# Float64 entries in one block's (T, models * M) scoring product: 512 KB.
# Blocks of a fixed 16 models grew with M and T, to 49 MB a product at M=64
# and 6,000 frames.  Both streams against 100 speakers at once, on two
# threads with one BLAS thread (2-core Xeon VM, one process per run,
# medians of 8 alternating runs), took this many ms with blocks of 16, and
# with this budget and one scratch buffer per call:
#     T frames       100          231           600
#     M=8       3.24 -> 1.70   4.06 -> 2.56   7.93 -> 6.31
#     M=32      5.48 -> 4.53  10.56 -> 8.91   31.5 -> 19.7
#     M=64      9.60 -> 6.88  18.8 -> 15.0    64.8 -> 42.1
# With new memory for each block's products instead, the budget was up to
# 9% slower than blocks of 16 (M=32, T=231): each block faulted in fresh
# pages.
SCORE_BUDGET = 2**16

# np.exp of an input below log(tiny), about -708.40, is subnormal or 0, and
# NumPy's exp takes a slow path for it: near -720 about 100 ns an element,
# and 5.5 ns even for -inf, against 0.7 ns for a normal result (Xeon,
# AVX-512).  Against 100 speakers, 13-20% of a block's max-shifted
# log-densities lie below it, so the log-sum-exp raises every term to this
# clamp first: exp(-700) is normal and below 2**-1000.
EXP_CLAMP = -700.0

# Stacked scores equal one-model scores only below this feature dimension
# (see _weighted_log_densities); the pipeline refuses wider streams.
EXACT_STACK_DIM = 32


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Mixture weights, means, and diagonal variances for one feature stream."""

    feature_kind: FeatureKind
    weights: np.ndarray  # (M,)
    means: np.ndarray  # (M, d)
    variances: np.ndarray  # (M, d), strictly positive

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        variances = np.ascontiguousarray(self.variances, dtype=np.float64)
        if weights.ndim != 1 or means.ndim != 2 or variances.ndim != 2:
            raise ValueError("weights must be 1-D; means and variances 2-D")
        if means.shape != variances.shape or means.shape[0] != weights.size:
            raise ValueError("weights, means, and variances disagree on shape")
        if means.shape[1] < 1:
            raise ValueError("means and variances need at least one dimension")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(means))):
            raise ValueError("weights and means must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
            raise ValueError("variances must be finite and strictly positive")
        # A denormal variance passes the test above but overflows the terms
        # that stack_models scores with; among them each component's row sum
        # of mean^2 / var, which overflows whenever one of its terms does.
        with np.errstate(over="ignore"):
            scaled_means = means / variances
            terms = (0.5 / variances, scaled_means, (means * scaled_means).sum(axis=1))
        if not all(np.all(np.isfinite(t)) for t in terms):
            raise ValueError("-0.5 / var, mean / var and mean^2 / var must be finite")
        object.__setattr__(self, "feature_kind", FeatureKind(self.feature_kind))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Mixture-training settings."""

    n_components: int = 8
    em_iterations: int = 10
    variance_floor_ratio: float = DEFAULT_VARIANCE_FLOOR_RATIO

    def __post_init__(self) -> None:
        check_types(self, "train")
        if self.n_components not in ALLOWED_COMPONENT_COUNTS:
            raise ValueError(
                f"n_components must be one of {ALLOWED_COMPONENT_COUNTS}"
            )
        if self.em_iterations < 1:
            raise ValueError("em_iterations must be at least 1")
        if not 0 < self.variance_floor_ratio < 1:
            raise ValueError("variance_floor_ratio must lie in (0, 1)")


def variance_floor(features: FeatureMatrix, ratio: float) -> np.ndarray:
    """Per-dimension floor: ratio times the global data variance."""
    global_var = features.values.var(axis=0)
    positive = global_var[global_var > 0]
    fallback = positive.min() if positive.size else 1.0
    return ratio * np.where(global_var > 0, global_var, fallback)


# The largest sum of squares of all features that training takes. A
# distance |x|^2 - 2 x.c + |c|^2 between a frame and a centroid (a mean of
# frames) has terms whose magnitudes add up to at most 4 times that sum;
# a factor of 8 leaves room for rounding.
_MAX_SQUARES = float(np.finfo(np.float64).max) / 8.0


def _check_trainable(features: FeatureMatrix) -> None:
    """Refuse features that training cannot take: a NaN or an inf, or
    values so large that a squared distance between them could overflow
    (see ``_MAX_SQUARES``)."""
    data = features.values
    if not np.isfinite(data).all():
        cause = "a NaN" if np.isnan(data).any() else "an infinite value"
        raise NumericalFailure(f"features hold {cause}")
    with np.errstate(over="ignore"):
        total = np.square(data).sum()
    if not total <= _MAX_SQUARES:
        raise NumericalFailure(
            "features are too large: the sum of their squares exceeds float64's maximum / 8"
        )


def _assign(twice_data: np.ndarray, unit_quad: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label of the nearest centroid for every frame, (T,); the first wins a tie.

    The labels are the argmax of the unit-variance log-density
    -0.5 * (d log 2 pi + |x|^2 - 2 x . c + |c|^2), in that arithmetic:
    twice_data is 2.0 * data and unit_quad is (data * data) @ ones((k, d)).T,
    both fixed while k is.
    """
    log_norm = -0.5 * (centroids.shape[1] * LOG_TWO_PI)
    # Each step in the product's own buffer, in the order written above.
    log_dens = twice_data @ centroids.T
    np.subtract(unit_quad, log_dens, out=log_dens)
    log_dens += (centroids * centroids).sum(axis=1)
    log_dens *= 0.5
    np.subtract(log_norm, log_dens, out=log_dens)
    return np.argmax(log_dens, axis=1)


def _moments(resp: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy and the weighted mean and variance of the data under each
    column of a (T, M) responsibility matrix; NaN rows where none is occupied."""
    occupancy = resp.sum(axis=0)
    active = occupancy > 1e-10
    means = np.full((resp.shape[1], data.shape[1]), np.nan)
    variances = means.copy()
    means[active] = (resp.T[active] @ data) / occupancy[active, None]
    second = (resp.T[active] @ (data * data)) / occupancy[active, None]
    variances[active] = second - means[active] ** 2
    return occupancy, means, variances


def _kmeans_refine(
    data: np.ndarray, centroids: np.ndarray, spread: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations over k centroids until they stop moving; returns the
    moments of the last assignment.  Up to k times per pass an empty cluster
    is repaired by resplitting the most populated one."""
    k, d = centroids.shape
    centroids = centroids.copy()
    twice_data = 2.0 * data
    unit_quad = (data * data) @ np.ones((k, d)).T
    for _ in range(LBG_MAX_PASSES):
        labels = _assign(twice_data, unit_quad, centroids)
        counts = np.bincount(labels, minlength=k)
        for _ in range(k):
            if counts.all():
                break
            empty, busiest = np.argmin(counts), np.argmax(counts)
            centroids[empty] = centroids[busiest] + LBG_SPLIT_EPSILON * spread
            centroids[busiest] = centroids[busiest] - LBG_SPLIT_EPSILON * spread
            labels = _assign(twice_data, unit_quad, centroids)
            counts = np.bincount(labels, minlength=k)
        if not counts.all():
            distinct = len(np.unique(data, axis=0))
            if distinct < k:
                raise InsufficientData(f"{distinct} distinct frames cannot fill {k} clusters")
            raise InsufficientData(
                f"k-means left {k - np.count_nonzero(counts)} of {k} clusters empty "
                f"after {k} repairs ({distinct} distinct frames)"
            )
        # The (k, T) layout _moments hands BLAS, so the means keep their bits.
        members = (labels == np.arange(k)[:, None]).astype(np.float64)
        means = (members @ data) / counts[:, None]
        shift = np.max(np.abs(means - centroids))
        centroids = means
        if shift < LBG_SHIFT_TOLERANCE:
            break
    # Only the last assignment's variances are kept, so only they are computed.
    return _moments(members.T, data)


def lbg_init(
    features: FeatureMatrix,
    n_components: int,
    variance_floor_ratio: float = DEFAULT_VARIANCE_FLOOR_RATIO,
) -> GmmModel:
    """Seed a mixture by LBG binary splitting with k-means refinement.

    The procedure is deterministic.  Component variances are floored at
    variance_floor_ratio times the global per-dimension variance.
    """
    if n_components < 1 or n_components & (n_components - 1):
        raise ValueError("n_components must be a power of two")
    data = features.values
    if data.shape[0] < n_components:
        raise InsufficientData(
            f"{data.shape[0]} frames cannot seed {n_components} components"
        )
    _check_trainable(features)
    spread = data.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    floor = variance_floor(features, variance_floor_ratio)

    counts, centroids, variances = _moments(np.ones((data.shape[0], 1)), data)
    while centroids.shape[0] < n_components:
        centroids = np.vstack(
            [
                centroids + LBG_SPLIT_EPSILON * spread,
                centroids - LBG_SPLIT_EPSILON * spread,
            ]
        )
        counts, centroids, variances = _kmeans_refine(data, centroids, spread)
    variances = np.maximum(variances, floor[None, :])
    return GmmModel(features.kind, counts / counts.sum(), centroids, variances)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum; a is
    overwritten.

    A non-finite maximum is replaced by 0, so a NaN gives NaN and +inf gives
    +inf, and a row of only -inf is set to -inf, all without a warning.
    Every other row holds its maximum as an exact 0, so its sum has a term
    of exactly 1.0; the terms raised to EXP_CLAMP are below 2**-1000 before
    and after and vanish against it, so the sums keep the bits of a plain
    np.exp.
    """
    peak = a.max(axis=axis, keepdims=True)
    empty = peak == -np.inf
    peak[~np.isfinite(peak)] = 0.0
    a -= peak
    np.maximum(a, EXP_CLAMP, out=a)
    total = np.log(np.exp(a, out=a).sum(axis=axis, keepdims=True))
    total += peak
    total[empty] = -np.inf
    return np.squeeze(total, axis=axis)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """Log mixture weights; a zero weight gives -inf without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


@dataclass(frozen=True, eq=False)
class ModelStack:
    """Models of one kind, dimension and component count, row-stacked as
    the per-component terms of their weighted log-densities:

        log w_i + log N(x | mu_i, diag var_i)
            = (x * x) . half_precisions_i + x . scaled_means_i + offsets_i

    Rows m * M to (m + 1) * M hold model m's components.  The arrays are
    read-only, so a stack can be built once and scored many times.
    """

    feature_kind: FeatureKind
    n_components: int
    half_precisions: np.ndarray  # (S * M, d): -0.5 / var
    scaled_means: np.ndarray  # (S * M, d): mean / var
    offsets: np.ndarray  # (S * M,): log w + log normalizer - 0.5 * sum(mean^2 / var)

    @property
    def n_models(self) -> int:
        return self.offsets.size // self.n_components

    @property
    def dim(self) -> int:
        return self.half_precisions.shape[1]


def stack_models(models: Sequence[GmmModel]) -> ModelStack:
    """One ModelStack of models that share kind, dimension and component count."""
    if not models:
        raise ValueError("no models to stack")
    first = models[0]
    for model in models:
        if model.feature_kind is not first.feature_kind:
            raise FeatureKindMismatch(
                f"models mix {first.feature_kind.value} and {model.feature_kind.value}"
            )
        if model.dim != first.dim:
            raise DimError(f"models mix dimensions {first.dim} and {model.dim}")
        if model.n_components != first.n_components:
            raise DimError(
                f"models mix {first.n_components} and {model.n_components} components"
            )
    means = np.concatenate([m.means for m in models])
    variances = np.concatenate([m.variances for m in models])
    scaled_means = means / variances
    log_norm = -0.5 * (first.dim * LOG_TWO_PI + np.log(variances).sum(axis=1))
    offsets = (
        _log_weights(np.concatenate([m.weights for m in models]))
        + log_norm
        - 0.5 * (means * scaled_means).sum(axis=1)
    )
    terms = (-0.5 / variances, scaled_means, offsets)
    for array in terms:
        array.flags.writeable = False
    return ModelStack(first.feature_kind, first.n_components, *terms)


def _weighted_log_densities(
    stack: ModelStack,
    data: np.ndarray,
    squares: np.ndarray,
    start: int = 0,
    stop: int | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """log w_i + log N(x_t | mu_i, diag var_i) for the components of models
    start to stop of the stack, mixture-major: (models, M, T) C-contiguous.

    squares is data * data.  Each entry is two dot products of length d
    and one add.  With d < EXACT_STACK_DIM and a power-of-two M (every
    count training allows), a model's entries were found not to depend on
    which other models share the product (OpenBLAS, one thread); otherwise
    BLAS may sum a dot product in another order, a last-bit difference.

    Given scratch, (2, >= T * models * M), the products are written to
    C-contiguous prefixes of its rows and the result is a view of its
    second row; without it, they are new arrays.
    """
    m = stack.n_components
    rows = slice(start * m, None if stop is None else stop * m)
    half_precisions = stack.half_precisions[rows]
    n_frames, width = data.shape[0], half_precisions.shape[0]
    first = second = None
    if scratch is not None:
        first, second = (row.reshape(n_frames, width) for row in scratch[:, : n_frames * width])
    weighted = np.matmul(squares, half_precisions.T, out=first)
    weighted += np.matmul(data, stack.scaled_means[rows].T, out=second)
    weighted += stack.offsets[rows]
    # The second product is spent: its buffer takes the mixture-major copy,
    # whose explicit model count reshapes a product of 0 frames too.
    major = np.empty((width, n_frames)) if scratch is None else second.reshape(width, n_frames)
    np.copyto(major, weighted.T)
    return major.reshape(width // m, m, n_frames)


def _block_unit(n_components: int) -> int:
    """Models that span 8 product columns, or one model at M >= 8.  A
    product of more than about 190 columns whose count is not a multiple of
    8 was found to sum its last columns in another order than a one-model
    product does (OpenBLAS, AVX-512), so a block of several models is a
    multiple of this many."""
    return max(1, 8 // n_components)


def _score_block(n_components: int, n_frames: int) -> int:
    """Models per block of an n_frames utterance: as many as keep a block's
    product within SCORE_BUDGET entries, a multiple of _block_unit, and at
    least one."""
    block = SCORE_BUDGET // (n_components * max(n_frames, 1))
    return max(1, block - block % _block_unit(n_components))


def _frame_log_densities(stack: ModelStack, data: np.ndarray) -> np.ndarray:
    """log p(x_t | model) for every model of the stack and frame, (S, T).

    _score_block(M, T) models at a time share one pair of products; the
    models past the last multiple of _block_unit(M) score one at a time.
    The log-sum-exp over components then works on whole rows of T frames,
    and each model's output row is contiguous, so summing it adds the
    frames in the same order as a one-model call does.
    """
    if data.shape[0] == 1:
        # A one-row product takes another BLAS path, whose sums were found to
        # depend on the model count by an ulp; two equal rows take the usual one.
        return _frame_log_densities(stack, np.repeat(data, 2, axis=0))[:, :1]
    m, n_models = stack.n_components, stack.n_models
    block = _score_block(m, data.shape[0])
    aligned = n_models - n_models % _block_unit(m)
    starts = [*range(0, aligned, block), *range(aligned, n_models + 1)]
    squares = data * data
    out = np.empty((n_models, data.shape[0]))
    # Blocks share one scratch buffer, so a call takes new memory once, not
    # once a block.  A single block takes new arrays: scoring 10 speakers at
    # M=8 in a scratch buffer read 10% slower in 11 of 12 runs.
    scratch = np.empty((2, data.shape[0] * m * block)) if len(starts) > 2 else None
    for start, stop in zip(starts, starts[1:]):
        weighted = _weighted_log_densities(stack, data, squares, start, stop, scratch)
        out[start:stop] = _logsumexp(weighted, axis=1)
    return out


def em_step(
    features: FeatureMatrix, model: GmmModel, floor: np.ndarray
) -> tuple[GmmModel, float]:
    """One EM iteration.  Returns the updated model and the total
    log-likelihood of the data under the INPUT model.

    The weighted component log-densities come from the scoring kernel
    through a one-model stack, mixture-major (M, T), so the log-sum-exp and
    the responsibilities work on whole rows of T frames; _moments gets the
    responsibilities as a (T, M) view.
    """
    data = features.values
    weighted = _weighted_log_densities(stack_models([model]), data, data * data)[0]
    frame_ll = _logsumexp(weighted.copy(), axis=0)
    total_ll = float(frame_ll.sum())

    # Plain np.exp: clamping a responsibility could move a weight whose
    # occupancy is subnormal.
    resp = np.exp(weighted - frame_ll[None, :])
    if not np.all(np.isfinite(resp)):
        raise NumericalFailure("non-finite responsibilities in the E-step")

    occupancy, means, variances = _moments(resp.T, data)
    empty = np.isnan(means)  # a component with no occupancy keeps its parameters
    new_means = np.where(empty, model.means, means)
    new_vars = np.maximum(np.where(empty, model.variances, variances), floor[None, :])
    return GmmModel(model.feature_kind, occupancy / occupancy.sum(), new_means, new_vars), total_ll


def em_fit(features: FeatureMatrix, init: GmmModel, cfg: TrainConfig) -> GmmModel:
    """Run exactly cfg.em_iterations EM updates from the given start."""
    if features.kind is not init.feature_kind:
        raise FeatureKindMismatch(
            f"features are {features.kind.value}, model is {init.feature_kind.value}"
        )
    if features.dim != init.dim:
        raise DimError(f"feature dim {features.dim} != model dim {init.dim}")
    if features.n_frames < init.n_components:
        raise InsufficientData(
            f"{features.n_frames} frames cannot fit {init.n_components} components"
        )
    _check_trainable(features)
    floor = variance_floor(features, cfg.variance_floor_ratio)
    model = init
    for iteration in range(cfg.em_iterations):
        with named(f"EM iteration {iteration}", NumericalFailure):
            model, _ = em_step(features, model, floor)
    return model


def train_gmm(features: FeatureMatrix, cfg: TrainConfig) -> GmmModel:
    """LBG initialization followed by EM refinement."""
    init = lbg_init(features, cfg.n_components, cfg.variance_floor_ratio)
    return em_fit(features, init, cfg)


def stack_scores(stack: ModelStack, features: FeatureMatrix) -> np.ndarray:
    """Sum of per-frame log-densities under each model of the stack, (S,)."""
    if features.kind is not stack.feature_kind:
        raise FeatureKindMismatch(
            f"features are {features.kind.value}, model is {stack.feature_kind.value}"
        )
    if features.dim != stack.dim:
        raise DimError(f"feature dim {features.dim} != model dim {stack.dim}")
    return _frame_log_densities(stack, features.values).sum(axis=1)


def model_to_bytes(model: GmmModel) -> bytes:
    header = (
        MODEL_MAGIC
        + struct.pack("<H", MODEL_VERSION)
        + pack_text(model.feature_kind.value)
        + struct.pack("<II", model.n_components, model.dim)
    )
    body = (
        model.weights.astype("<f8").tobytes()
        + model.means.astype("<f8").tobytes(order="C")
        + model.variances.astype("<f8").tobytes(order="C")
    )
    return header + body


def model_from_bytes(blob: bytes) -> GmmModel:
    reader = BlobReader(blob, "model", MODEL_MAGIC)
    (version,) = reader.unpack("<H")
    if version != MODEL_VERSION:
        raise BadFileFormat(f"unsupported model version {version}, expected {MODEL_VERSION}")
    kind = FeatureKind.parse(reader.text())
    m, d = reader.unpack("<II")
    weights = reader.floats(m)
    means = reader.floats(m * d).reshape(m, d)
    variances = reader.floats(m * d).reshape(m, d)
    reader.end()
    with named(None, ValueError, BadFileFormat):  # values GmmModel rejects
        return GmmModel(kind, weights, means, variances)
