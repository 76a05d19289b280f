"""Vocal-tract feature extraction: filterbank cepstra (MFCC, LFCC),
perceptual LP cepstra (PLPCC), and LP-transform features (LPCC, LSF, LAR).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import lp
from .errors import NoFeatures, check_types
from .features import FeatureKind, FeatureMatrix
from .signal_prep import SAMPLE_RATE_HZ, FrameSequence

# Each frame's filterbank energies are floored at LOG_FLOOR times the frame's
# peak energy before the log, so silent bands stay finite and a gain applied
# to the audio moves the floor with it.
LOG_FLOOR = 1e-10

NYQUIST_HZ = SAMPLE_RATE_HZ / 2.0

# The largest FFT a config may ask for: 2 s frames at 8 kHz.  A filterbank
# config keeps its (n_filters, fft_size // 2 + 1) matrix, so an unbounded
# size read from a database header could ask for any amount of memory.
MAX_FFT_SIZE = 2**14

# The largest LP model order or cepstrum length a config may ask for.  LSF
# time grows about as the cube of the order: on a 3 s utterance (231 frames
# of 160 samples, one Xeon core, one BLAS thread) order 64 takes 0.34 s,
# against 2.6 s at 96 and 10 s at 159; PLPCC at model order or n_cep 64
# takes under 4 ms.
MAX_LP_ORDER = 64


class FrequencyScale(str, Enum):
    MEL = "mel"
    HERTZ = "hertz"


def mel_from_hertz(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hertz_from_mel(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def bark_from_hertz(f: np.ndarray | float) -> np.ndarray | float:
    return 6.0 * np.arcsinh(np.asarray(f, dtype=np.float64) / 600.0)


def _check_fft_size(n: int) -> None:
    if not (n > 0 and (n & (n - 1)) == 0):
        raise ValueError("fft_size must be a power of two")
    if n > MAX_FFT_SIZE:
        raise ValueError(f"fft_size {n} is above the largest FFT size, {MAX_FFT_SIZE}")


def _check_order(name: str, value: int) -> None:
    if value > MAX_LP_ORDER:
        raise ValueError(
            f"{name} {value} is above {MAX_LP_ORDER}, the largest LP order or cepstrum length"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FilterbankConfig:
    """Triangular-filterbank cepstrum settings (MFCC when mel, LFCC when hertz).

    The filterbank and DCT basis are built once per config, read-only.
    """

    n_filters: int = 20
    scale: FrequencyScale = FrequencyScale.MEL
    f_low_hz: float = 0.0
    f_high_hz: float | None = None  # None means the Nyquist frequency
    n_cep: int = 19
    fft_size: int = 512

    def __post_init__(self) -> None:
        check_types(self, "filterbank")
        object.__setattr__(self, "scale", FrequencyScale(self.scale))
        if self.n_filters < 1:
            raise ValueError("need at least one filter")
        if self.n_cep < 1:
            raise ValueError("need at least one cepstral coefficient")
        if self.n_cep >= self.n_filters:
            raise ValueError("n_cep must be smaller than n_filters")
        _check_fft_size(self.fft_size)
        high = NYQUIST_HZ if self.f_high_hz is None else self.f_high_hz
        if not 0.0 <= self.f_low_hz < high <= NYQUIST_HZ:
            raise ValueError(
                f"band edges ({self.f_low_hz}, {high}) must satisfy "
                f"0 <= low < high <= {NYQUIST_HZ}"
            )
        # Filter i is positive on the bins strictly between its outer points.
        # Filters 0, 2, 4, ... have disjoint supports, so with more filters
        # than bins one of the first bins + 1 covers fewer than 2: only those
        # are counted, and no (n_filters, bins) array is built.
        n_bins = self.fft_size // 2 + 1
        points = _boundary_points(self, min(self.n_filters, n_bins + 1) + 2)
        bin_hz = _bin_hz(self.fft_size)
        covered = np.searchsorted(bin_hz, points[2:]) - np.searchsorted(
            bin_hz, points[:-2], side="right"
        )
        too_narrow = np.flatnonzero(covered < 2)
        if too_narrow.size:
            raise ValueError(
                f"filter {too_narrow[0]} covers fewer than 2 of the {n_bins} "
                "FFT bins; increase fft_size or reduce n_filters"
            )

    @property
    def feature_kind(self) -> FeatureKind:
        return FeatureKind.MFCC if self.scale is FrequencyScale.MEL else FeatureKind.LFCC

    @cached_property
    def filterbank(self) -> np.ndarray:
        return _read_only(build_filterbank(self))

    @cached_property
    def dct_basis(self) -> np.ndarray:
        """Orthonormal DCT-II rows 1 to n_cep, (n_cep, n_filters)."""
        k, n = np.arange(1, self.n_cep + 1)[:, None], np.arange(self.n_filters)
        basis = np.sqrt(2.0 / self.n_filters) * np.cos(
            np.pi * k * (2 * n + 1) / (2 * self.n_filters)
        )
        return _read_only(basis)


def _bin_hz(fft_size: int) -> np.ndarray:
    """The frequency of each of an FFT's fft_size // 2 + 1 bins."""
    return np.arange(fft_size // 2 + 1) * (SAMPLE_RATE_HZ / fft_size)


def _boundary_points(cfg: FilterbankConfig, count: int) -> np.ndarray:
    """The first ``count`` of the n_filters + 2 filter boundary points, in
    hertz, spaced equally on the configured scale.  Point k is
    ``low + k * step`` and the last of the full set is ``high``, as
    np.linspace computes them, so a prefix costs only its own length."""
    low = cfg.f_low_hz
    high = NYQUIST_HZ if cfg.f_high_hz is None else cfg.f_high_hz
    if cfg.scale is FrequencyScale.MEL:
        low, high = mel_from_hertz(low), mel_from_hertz(high)
    n_points = cfg.n_filters + 2
    points = low + np.arange(count) * ((high - low) / (n_points - 1))
    if count == n_points:
        points[-1] = high
    return hertz_from_mel(points) if cfg.scale is FrequencyScale.MEL else points


def build_filterbank(cfg: FilterbankConfig) -> np.ndarray:
    """Triangular filter matrix of shape (n_filters, fft_size // 2 + 1).

    Boundary points are spaced equally on the configured scale; filter i
    rises linearly in hertz from point i to point i+1 (its center) and falls
    to point i+2, so adjacent filters overlap by construction.
    """
    points = _boundary_points(cfg, cfg.n_filters + 2)
    bin_hz = _bin_hz(cfg.fft_size)
    left, center, right = points[:-2, None], points[1:-1, None], points[2:, None]
    rising = (bin_hz - left) / (center - left)
    falling = (right - bin_hz) / (right - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def _power_spectra(frames: np.ndarray, fft_size: int) -> np.ndarray:
    # rfft would silently cut a longer frame to its first fft_size samples.
    # PipelineConfig refuses that pairing; a FilterbankConfig or PlpConfig
    # passed to an extractor directly can still ask for it.
    if frames.shape[1] > fft_size:
        raise ValueError(
            f"frames of {frames.shape[1]} samples do not fit a {fft_size}-point FFT"
        )
    spectra = np.fft.rfft(frames, n=fft_size, axis=1)
    power = np.square(spectra.real)
    power += np.square(spectra.imag)
    return power


def fb_cepstra(frames: FrameSequence, cfg: FilterbankConfig = FilterbankConfig()) -> FeatureMatrix:
    """Filterbank cepstra: |FFT|^2 -> filterbank -> log -> orthonormal DCT-II, c0 dropped."""
    power = _power_spectra(frames.frames, cfg.fft_size)
    energies = power @ cfg.filterbank.T
    floor = np.maximum(LOG_FLOOR * energies.max(axis=1, keepdims=True), np.finfo(float).tiny)
    log_energies = np.log(np.maximum(energies, floor))
    return FeatureMatrix(cfg.feature_kind, log_energies @ cfg.dct_basis.T)


@dataclass(frozen=True)
class PlpConfig:
    """Perceptual-LP cepstrum settings.

    The band weights and their areas are built once per config, read-only.
    """

    model_order: int = 19
    n_cep: int = 19
    fft_size: int = 512

    def __post_init__(self) -> None:
        check_types(self, "plp")
        if self.model_order < 1:
            raise ValueError("model_order must be at least 1")
        if self.n_cep < 1:
            raise ValueError("need at least one cepstral coefficient")
        _check_order("model_order", self.model_order)
        _check_order("n_cep", self.n_cep)
        _check_fft_size(self.fft_size)

    @property
    def resolved_bands(self) -> int:
        nyquist_bark = float(bark_from_hertz(NYQUIST_HZ))
        # The band samples become the autocorrelation support, so the count
        # must exceed the model order with a little headroom.
        return max(int(np.ceil(nyquist_bark)) + 1, self.model_order + 2)

    @cached_property
    def band_weights(self) -> np.ndarray:
        """Critical-band weights times the equal-loudness curve,
        (resolved_bands, fft_size // 2 + 1)."""
        bin_hz = _bin_hz(self.fft_size)
        weights = bark_filterbank(self.resolved_bands, self.fft_size)
        return _read_only(weights * np.asarray(equal_loudness(bin_hz))[None, :])

    @cached_property
    def band_areas(self) -> np.ndarray:
        """Each weighted band's area, the divisor of its energy."""
        return _read_only(self.band_weights.sum(axis=1))


def equal_loudness(f: np.ndarray | float) -> np.ndarray | float:
    """Equal-loudness weight, the classical rational approximation.

    E(f) = (f^2 / (f^2 + 1.6e5))^2 * (f^2 + 1.44e6) / (f^2 + 9.61e6)
    """
    fsq = np.square(np.asarray(f, dtype=np.float64))
    return (fsq / (fsq + 1.6e5)) ** 2 * (fsq + 1.44e6) / (fsq + 9.61e6)


def bark_filterbank(n_bands: int, fft_size: int) -> np.ndarray:
    """Critical-band weights of shape (n_bands, fft_size // 2 + 1).

    Band centers sit equally spaced on the Bark axis from 0 to the Nyquist
    Bark.  Each band is flat within +-0.5 Bark of its center and falls off
    exponentially outside: 10 dB per Bark below, 25 dB per Bark above.
    """
    bin_bark = np.asarray(bark_from_hertz(_bin_hz(fft_size)))
    centers = np.linspace(0.0, float(bark_from_hertz(NYQUIST_HZ)), n_bands)
    lo = bin_bark[None, :] - centers[:, None] - 0.5
    hi = bin_bark[None, :] - centers[:, None] + 0.5
    return 10.0 ** np.minimum(0.0, np.minimum(hi, -2.5 * lo))


def plpcc(frames: FrameSequence, cfg: PlpConfig = PlpConfig()) -> FeatureMatrix:
    """Perceptual LP cepstra: Bark integration, equal loudness, cube-root
    loudness, all-pole fit, cepstral recursion; frames with no stable fit
    are dropped.

    The equal-loudness curve is folded into the band weights, and each band
    energy is divided by that weighted band area.  A flat power spectrum
    therefore maps to a flat auditory spectrum (the weighting's own response
    is divided out), and onward to near-zero predictor coefficients.
    """
    n_bands = cfg.resolved_bands
    power = _power_spectra(frames.frames, cfg.fft_size)
    auditory = (power @ cfg.band_weights.T) / cfg.band_areas[None, :]
    loudness = np.cbrt(auditory)
    # Band samples stand in for the warped spectrum on [0, pi]; the inverse
    # real FFT of that half-spectrum is the model autocorrelation.
    r = np.fft.irfft(loudness, n=2 * (n_bands - 1), axis=1)[:, : cfg.model_order + 1]
    coeffs, _, _, valid = lp._levinson_batch(r)
    if not np.any(valid):
        raise NoFeatures("no frame supported a perceptual LP fit")
    return FeatureMatrix(FeatureKind.PLPCC, lp._lpcc_batch(coeffs[valid], cfg.n_cep))


def _lsf_rows(coeffs: np.ndarray, reflection: np.ndarray) -> np.ndarray:
    freqs, valid = lp._lsf_batch(coeffs)
    if not np.any(valid):
        raise NoFeatures("no frame yielded line spectral frequencies")
    return freqs[valid]


@dataclass(frozen=True)
class LpTransformConfig:
    """LPCC, LSF and LAR settings: the LP order, also the feature dimension."""

    order: int = 19

    def __post_init__(self) -> None:
        check_types(self, "lp_transform")
        if self.order < 1:
            raise ValueError("order must be at least 1")
        _check_order("order", self.order)


def extract_lp_features(
    frames: FrameSequence, kind: FeatureKind, cfg: LpTransformConfig = LpTransformConfig()
) -> FeatureMatrix:
    """LP-transform features (LPCC, LSF, or LAR) at the model order ``cfg.order``."""
    kind, order = FeatureKind(kind), cfg.order
    if kind is FeatureKind.LPCC:
        transform = lambda coeffs, reflection: lp._lpcc_batch(coeffs, order)
    elif kind is FeatureKind.LAR:
        transform = lambda coeffs, reflection: lp.lar(reflection)
    elif kind is FeatureKind.LSF:
        transform = _lsf_rows
    else:
        raise ValueError(f"{kind.value} is not an LP-transform feature")
    r = lp._autocorr_batch(frames.frames, order)
    coeffs, reflection, _, valid = lp._levinson_batch(r)
    if not np.any(valid):
        raise NoFeatures("no frame supported an LP fit")
    return FeatureMatrix(kind, transform(coeffs[valid], reflection[valid]))
