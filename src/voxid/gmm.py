"""Diagonal-covariance Gaussian mixture speaker models.

Training follows the classical recipe: a codebook grown by LBG binary
splitting seeds the mixture, then a fixed number of EM iterations refine
weights, means, and diagonal variances.  Scoring is the log-sum-exp of the
weighted component log-densities, summed over frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import (
    BadFileFormat,
    DimError,
    FeatureKindMismatch,
    InsufficientData,
    NumericalFailure,
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

# At most this many models are stacked into one scoring product.  scipy's
# logsumexp allocates about 5.6 times its input, so a single product over
# 100 speakers (8 components, ~230 frames) needed about 8 MB more peak
# memory than scoring one model at a time; blocks of 16 need no more.
SCORE_BLOCK = 16


@dataclass(frozen=True)
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
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(means))):
            raise ValueError("weights and means must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
            raise ValueError("variances must be finite and strictly positive")
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


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (data * data).sum(axis=1)[:, None]
        - 2.0 * data @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_refine(data: np.ndarray, centroids: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Lloyd iterations until centroid movement stalls; empty clusters are
    repaired by resplitting the most populated one."""
    centroids = centroids.copy()
    for _ in range(LBG_MAX_PASSES):
        assign = np.argmin(_squared_distances(data, centroids), axis=1)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        while np.any(counts == 0):
            empty = int(np.argmin(counts))
            busiest = int(np.argmax(counts))
            centroids[empty] = centroids[busiest] + LBG_SPLIT_EPSILON * spread
            centroids[busiest] = centroids[busiest] - LBG_SPLIT_EPSILON * spread
            assign = np.argmin(_squared_distances(data, centroids), axis=1)
            counts = np.bincount(assign, minlength=centroids.shape[0])
        updated = np.vstack(
            [data[assign == i].mean(axis=0) for i in range(centroids.shape[0])]
        )
        shift = np.max(np.abs(updated - centroids))
        centroids = updated
        if shift < LBG_SHIFT_TOLERANCE:
            break
    return centroids


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
    spread = data.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    floor = variance_floor(features, variance_floor_ratio)

    centroids = data.mean(axis=0, keepdims=True)
    while centroids.shape[0] < n_components:
        centroids = np.vstack(
            [
                centroids + LBG_SPLIT_EPSILON * spread,
                centroids - LBG_SPLIT_EPSILON * spread,
            ]
        )
        centroids = _kmeans_refine(data, centroids, spread)

    assign = np.argmin(_squared_distances(data, centroids), axis=1)
    counts = np.bincount(assign, minlength=n_components)
    weights = counts / counts.sum()
    variances = np.vstack(
        [
            data[assign == i].var(axis=0) if counts[i] else np.zeros(data.shape[1])
            for i in range(n_components)
        ]
    )
    variances = np.maximum(variances, floor[None, :])
    return GmmModel(features.kind, weights, centroids, variances)


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


def _frame_log_densities(models: Sequence[GmmModel], data: np.ndarray) -> np.ndarray:
    """log p(x_t | model) for every model and frame, (S, T).

    Models of one component count are stacked SCORE_BLOCK at a time into
    one product.  Each model's row is contiguous, so summing it adds the
    frames in the same order as a one-model call does.
    """
    out = np.empty((len(models), data.shape[0]))
    for start in range(0, len(models), SCORE_BLOCK):
        block = models[start : start + SCORE_BLOCK]
        means = np.concatenate([m.means for m in block])
        variances = np.concatenate([m.variances for m in block])
        log_weights = np.log(np.concatenate([m.weights for m in block]))
        weighted = _component_log_densities(means, variances, data) + log_weights[None, :]
        per_model = weighted.reshape(data.shape[0], len(block), -1)
        out[start : start + len(block)] = logsumexp(per_model, axis=2).T
    return out


def log_density(model: GmmModel, x: np.ndarray) -> float:
    """Log of the mixture density at one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.dim:
        raise DimError(f"expected a {model.dim}-dimensional vector, got shape {x.shape}")
    return float(_frame_log_densities([model], x[None, :])[0, 0])


def em_step(
    features: FeatureMatrix, model: GmmModel, floor: np.ndarray
) -> tuple[GmmModel, float]:
    """One EM iteration.  Returns the updated model and the total
    log-likelihood of the data under the INPUT model."""
    data = features.values
    weighted = (
        _component_log_densities(model.means, model.variances, data)
        + np.log(model.weights)[None, :]
    )
    frame_ll = logsumexp(weighted, axis=1)
    total_ll = float(frame_ll.sum())

    resp = np.exp(weighted - frame_ll[:, None])
    if not np.all(np.isfinite(resp)):
        raise NumericalFailure("non-finite responsibilities in the E-step")

    occupancy = resp.sum(axis=0)
    active = occupancy > 1e-10
    new_weights = occupancy / data.shape[0]
    new_means = model.means.copy()
    new_vars = model.variances.copy()
    new_means[active] = (resp.T[active] @ data) / occupancy[active, None]
    second = (resp.T[active] @ (data * data)) / occupancy[active, None]
    new_vars[active] = second - new_means[active] ** 2
    new_vars = np.maximum(new_vars, floor[None, :])
    new_weights = new_weights / new_weights.sum()
    return (
        GmmModel(model.feature_kind, new_weights, new_means, new_vars),
        total_ll,
    )


def em_fit(features: FeatureMatrix, init: GmmModel, cfg: TrainConfig) -> GmmModel:
    """Run exactly cfg.em_iterations EM updates from the given start."""
    if features.kind is not init.feature_kind:
        raise FeatureKindMismatch(
            f"features are {features.kind.value}, model is {init.feature_kind.value}"
        )
    if features.n_frames < init.n_components:
        raise InsufficientData(
            f"{features.n_frames} frames cannot fit {init.n_components} components"
        )
    floor = variance_floor(features, cfg.variance_floor_ratio)
    model = init
    for iteration in range(cfg.em_iterations):
        try:
            model, _ = em_step(features, model, floor)
        except NumericalFailure as exc:
            raise NumericalFailure(f"EM iteration {iteration}: {exc}") from None
    return model


def train_gmm(features: FeatureMatrix, cfg: TrainConfig) -> GmmModel:
    """LBG initialization followed by EM refinement."""
    init = lbg_init(features, cfg.n_components, cfg.variance_floor_ratio)
    return em_fit(features, init, cfg)


def utterance_scores(models: Sequence[GmmModel], features: FeatureMatrix) -> np.ndarray:
    """Sum of per-frame log-densities under each model, (S,)."""
    for model in models:
        if features.kind is not model.feature_kind:
            raise FeatureKindMismatch(
                f"features are {features.kind.value}, model is {model.feature_kind.value}"
            )
        if features.dim != model.dim:
            raise DimError(f"feature dim {features.dim} != model dim {model.dim}")
        if model.n_components != models[0].n_components:
            raise DimError(
                f"models mix {models[0].n_components} and {model.n_components} components"
            )
    return _frame_log_densities(models, features.values).sum(axis=1)


def utterance_score(model: GmmModel, features: FeatureMatrix) -> float:
    """Sum of per-frame log-densities."""
    return float(utterance_scores([model], features)[0])


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
    try:
        return GmmModel(kind, weights, means, variances)
    except ValueError as exc:  # values GmmModel rejects
        raise BadFileFormat(f"model: {exc}") from None


def save_model(model: GmmModel, path: str | Path) -> None:
    Path(path).write_bytes(model_to_bytes(model))


def load_model(path: str | Path) -> GmmModel:
    return model_from_bytes(Path(path).read_bytes())


__all__ = [
    "GmmModel",
    "TrainConfig",
    "lbg_init",
    "log_density",
    "em_step",
    "em_fit",
    "train_gmm",
    "utterance_score",
    "utterance_scores",
    "variance_floor",
    "save_model",
    "load_model",
    "model_to_bytes",
    "model_from_bytes",
]
