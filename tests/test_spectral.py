import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from voxid import lp, spectral
from voxid.errors import NoFeatures
from voxid.features import FeatureKind, FeatureMatrix
from voxid.signal_prep import FrameSequence
from voxid.spectral import (
    LP_ORDER,
    MAX_FFT_SIZE,
    FilterbankConfig,
    FrequencyScale,
    bark_filterbank,
    build_filterbank,
    equal_loudness,
    extract_lp_features,
    fb_cepstra,
    plpcc,
)

RATE = 8000


def make_frames(data: np.ndarray) -> FrameSequence:
    return FrameSequence(np.atleast_2d(data))


def dense_cepstra(frames: np.ndarray, cfg: FilterbankConfig, rate: int) -> np.ndarray:
    """Oracle: the whole chain in plain loops with an explicit DCT matrix."""
    n_bins = cfg.fft_size // 2 + 1
    low, high = cfg.f_low_hz, (cfg.f_high_hz or rate / 2.0)
    if cfg.scale is FrequencyScale.MEL:
        to_scale = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
        from_scale = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        pts = [
            from_scale(to_scale(low) + (to_scale(high) - to_scale(low)) * k / (cfg.n_filters + 1))
            for k in range(cfg.n_filters + 2)
        ]
    else:
        pts = [low + (high - low) * k / (cfg.n_filters + 1) for k in range(cfg.n_filters + 2)]

    out = np.zeros((frames.shape[0], cfg.n_cep))
    for t, frame in enumerate(frames):
        spectrum = np.fft.fft(frame, cfg.fft_size)
        power = np.abs(spectrum[:n_bins]) ** 2
        energies = np.zeros(cfg.n_filters)
        for i in range(cfg.n_filters):
            for j in range(n_bins):
                f = j * rate / cfg.fft_size
                if pts[i] <= f <= pts[i + 1]:
                    w = (f - pts[i]) / (pts[i + 1] - pts[i])
                elif pts[i + 1] < f <= pts[i + 2]:
                    w = (pts[i + 2] - f) / (pts[i + 2] - pts[i + 1])
                else:
                    w = 0.0
                energies[i] += w * power[j]
        floor = max(1e-10 * energies.max(), np.finfo(float).tiny)
        logs = np.log(np.maximum(energies, floor))
        n = cfg.n_filters
        for m in range(1, cfg.n_cep + 1):
            basis = np.cos(np.pi * m * (2 * np.arange(n) + 1) / (2 * n))
            out[t, m - 1] = np.sqrt(2.0 / n) * np.dot(logs, basis)
    return out


class TestScaleConversions:
    def test_mel_of_700(self):
        assert spectral.mel_from_hertz(700.0) == pytest.approx(781.17, abs=0.01)

    def test_mel_round_trip(self):
        f = np.linspace(0, 4000, 33)
        np.testing.assert_allclose(
            spectral.hertz_from_mel(spectral.mel_from_hertz(f)), f, atol=1e-9
        )

    def test_bark_of_known_frequencies(self):
        z = np.linspace(0, 17, 35)
        np.testing.assert_allclose(
            spectral.bark_from_hertz(600.0 * np.sinh(z / 6.0)), z, atol=1e-12
        )

    def test_mel_monotone(self):
        f = np.linspace(0, 4000, 100)
        assert np.all(np.diff(spectral.mel_from_hertz(f)) > 0)


class TestFilterbank:
    def test_hertz_centers_evenly_spaced(self):
        cfg = FilterbankConfig(scale=FrequencyScale.HERTZ)
        bank = build_filterbank(cfg)
        assert bank.shape == (20, 257)
        bin_hz = np.arange(257) * RATE / 512
        for i in range(20):
            center_hz = 4000.0 * (i + 1) / 21.0
            peak_bin = np.argmax(bank[i])
            assert abs(bin_hz[peak_bin] - center_hz) <= RATE / 512

    def test_support_stays_inside_band(self):
        cfg = FilterbankConfig(scale=FrequencyScale.MEL, f_low_hz=200.0, f_high_hz=3400.0)
        bank = build_filterbank(cfg)
        bin_hz = np.arange(257) * RATE / 512
        covered = np.flatnonzero(bank.sum(axis=0) > 0)
        assert bin_hz[covered[0]] > 200.0
        assert bin_hz[covered[-1]] < 3400.0

    def test_weights_in_unit_interval(self):
        for scale in FrequencyScale:
            bank = build_filterbank(FilterbankConfig(scale=scale))
            assert np.all(bank >= 0) and np.all(bank <= 1 + 1e-12)

    def test_adjacent_filters_overlap(self):
        bank = build_filterbank(FilterbankConfig(scale=FrequencyScale.HERTZ))
        for i in range(19):
            assert np.any((bank[i] > 0) & (bank[i + 1] > 0))

    def test_too_dense_rejected(self):
        with pytest.raises(ValueError, match="^filter 0 covers fewer than 2 of the 65 FFT bins"):
            FilterbankConfig(n_filters=100, n_cep=19, fft_size=128)

    @pytest.mark.parametrize("scale", list(FrequencyScale))
    def test_too_many_filters_refused_without_building_them(self, scale, monkeypatch):
        def build_filterbank(cfg):
            raise AssertionError("the filterbank was built")

        monkeypatch.setattr(spectral, "build_filterbank", build_filterbank)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^filter 0 covers fewer than 2 of the 257 FFT bins"):
                FilterbankConfig(n_filters=10**9, scale=scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("scale", list(FrequencyScale))
    @pytest.mark.parametrize("fft_size", [32, 64, 128])
    def test_narrow_filters_found_as_in_the_built_matrix(self, scale, fft_size):
        # The config counts each filter's bins from its edges, and past
        # n_bins filters only the first n_bins + 1; the first filter with
        # fewer than 2 nonzero weights in the built matrix is the one named.
        n_bins = fft_size // 2 + 1
        for n_filters, (low, high) in itertools.product(
            range(2, 2 * n_bins + 2), [(0.0, None), (300.0, 3400.0)]
        ):
            settings = dict(n_filters=n_filters, f_low_hz=low, f_high_hz=high, fft_size=fft_size)
            bank = build_filterbank(SimpleNamespace(scale=scale, **settings))
            narrow = np.flatnonzero(np.count_nonzero(bank, axis=1) < 2)
            if narrow.size:
                reason = f"^filter {narrow[0]} covers fewer than 2 of the {n_bins} FFT bins"
                with pytest.raises(ValueError, match=reason):
                    FilterbankConfig(scale=scale, n_cep=1, **settings)
            else:
                FilterbankConfig(scale=scale, n_cep=1, **settings)

    def test_built_once_per_config_and_read_only(self):
        cfg = FilterbankConfig(scale=FrequencyScale.HERTZ, n_filters=24, n_cep=12)
        assert cfg.filterbank is cfg.filterbank and cfg.dct_basis is cfg.dct_basis
        np.testing.assert_array_equal(cfg.filterbank, build_filterbank(cfg))
        assert cfg.dct_basis.shape == (12, 24)
        for matrix in (cfg.filterbank, cfg.dct_basis):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        assert FilterbankConfig() == FilterbankConfig()
        assert hash(FilterbankConfig()) == hash(FilterbankConfig())

    @pytest.mark.parametrize("fft_size", [2**18, 2**30])
    @pytest.mark.parametrize(
        "build",
        [
            lambda fft_size: FilterbankConfig(fft_size=fft_size),
            lambda fft_size: plpcc(make_frames(np.ones(160)), fft_size),
        ],
        ids=["FilterbankConfig", "plpcc"],
    )
    def test_fft_size_above_the_cap_refused_before_allocating(self, build, fft_size):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^fft_size {fft_size} is above .* {MAX_FFT_SIZE}"):
                build(fft_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_fft_size_at_the_cap_accepted(self):
        assert FilterbankConfig(fft_size=MAX_FFT_SIZE).filterbank.shape == (20, MAX_FFT_SIZE // 2 + 1)
        frames = make_frames(np.random.default_rng(0).standard_normal(160))
        assert plpcc(frames, MAX_FFT_SIZE).dim == LP_ORDER

    @pytest.mark.parametrize("scale", list(FrequencyScale))
    def test_boundary_points_are_linspace_and_prefixes_its_start(self, rng, scale):
        # The full set is np.linspace on the scale bit for bit, and each
        # prefix is the start of the full set.
        nyquist = spectral.NYQUIST_HZ
        for _ in range(50):
            low, high = np.sort(rng.uniform(0.0, nyquist, 2))
            high = None if rng.random() < 0.25 else float(high)
            n_filters = int(rng.integers(1, 300))
            cfg = SimpleNamespace(scale=scale, f_low_hz=float(low), f_high_hz=high, n_filters=n_filters)
            edges = np.array([cfg.f_low_hz, nyquist if high is None else high])
            if scale is FrequencyScale.MEL:
                mel = spectral.mel_from_hertz(edges)
                expected = spectral.hertz_from_mel(np.linspace(mel[0], mel[1], cfg.n_filters + 2))
            else:
                expected = np.linspace(edges[0], edges[1], cfg.n_filters + 2)
            full = spectral._boundary_points(cfg, cfg.n_filters + 2)
            assert full.tobytes() == expected.tobytes()
            for count in range(cfg.n_filters + 2):
                prefix = spectral._boundary_points(cfg, count)
                assert prefix.tobytes() == full[:count].tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterbankConfig(n_cep=20, n_filters=20)
        with pytest.raises(ValueError):
            FilterbankConfig(fft_size=500)
        with pytest.raises(ValueError):
            FilterbankConfig(f_low_hz=5000.0)


@pytest.mark.parametrize(
    "extract",
    [
        lambda frames: fb_cepstra(frames, FilterbankConfig(fft_size=128)),
        lambda frames: plpcc(frames, 128),
    ],
    ids=["fb_cepstra", "plpcc"],
)
def test_frames_longer_than_the_fft_refused(rng, extract):
    # PipelineConfig keeps this pairing from the pipeline; a config passed
    # straight to an extractor meets this guard, not rfft's silent cut.
    with pytest.raises(ValueError, match="^frames of 160 samples do not fit a 128-point FFT$"):
        extract(make_frames(rng.standard_normal((3, 160))))


def test_power_spectra_bits_equal_the_oracle(tiny_corpus_frames):
    for fft_size in (256, 512):
        spectra = np.fft.rfft(tiny_corpus_frames, n=fft_size, axis=1)
        expected = spectra.real**2 + spectra.imag**2
        got = spectral._power_spectra(tiny_corpus_frames, fft_size)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestFbCepstra:
    def test_matches_dense_oracle(self, rng):
        frames = rng.standard_normal((4, 160))
        for scale in FrequencyScale:
            cfg = FilterbankConfig(scale=scale)
            got = fb_cepstra(make_frames(frames), cfg)
            np.testing.assert_allclose(
                got.values, dense_cepstra(frames, cfg, RATE), atol=1e-10
            )

    def test_shapes_and_kind(self, speech_frames):
        mfcc = fb_cepstra(speech_frames, FilterbankConfig(scale=FrequencyScale.MEL))
        lfcc = fb_cepstra(speech_frames, FilterbankConfig(scale=FrequencyScale.HERTZ))
        assert mfcc.kind is FeatureKind.MFCC
        assert lfcc.kind is FeatureKind.LFCC
        assert mfcc.dim == lfcc.dim == 19
        assert mfcc.n_frames == lfcc.n_frames == speech_frames.n_frames

    def test_frame_scaling_only_moves_dropped_c0(self, rng):
        # A gain change shifts every log energy equally, which lands entirely
        # on the dropped c0 term.
        frame = rng.standard_normal(160)
        base = fb_cepstra(make_frames(frame)).values
        scaled = fb_cepstra(make_frames(8.0 * frame)).values
        np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_hertz_config_equals_lfcc(self, speech_frames):
        # The string form, as config JSON and CLI flags give it, picks LFCC too.
        a = fb_cepstra(speech_frames, FilterbankConfig(scale="hertz"))
        b = fb_cepstra(speech_frames, FilterbankConfig(scale=FrequencyScale.HERTZ))
        assert a.kind is b.kind is FeatureKind.LFCC
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("gain", [1e-5, 1e-8, 1e-150])
    def test_quiet_frames_only_move_dropped_c0(self, rng, gain):
        # The log floor scales with each frame's peak energy, so it never
        # binds on these frames, however quiet.
        frames = rng.standard_normal((3, 160))
        base = fb_cepstra(make_frames(frames)).values
        quiet = fb_cepstra(make_frames(gain * frames)).values
        np.testing.assert_allclose(quiet, base, atol=1e-10)

    def test_silence_hits_log_floor_not_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fb_cepstra(make_frames(np.zeros((2, 160)))).values
        assert np.all(np.isfinite(got))


def dense_plpcc(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """Oracle: PLPCC frame by frame, with the model autocorrelation as an
    explicit cosine sum over the bands and the normal equations solved as a
    Toeplitz system; frames with no stable fit are dropped."""
    bin_hz = np.arange(fft_size // 2 + 1) * RATE / fft_size
    weights = bark_filterbank(spectral.PLP_BANDS, fft_size) * equal_loudness(bin_hz)
    n = 2 * (spectral.PLP_BANDS - 1)
    band = np.arange(spectral.PLP_BANDS)
    # The inverse real FFT counts the first and last bands once, the others twice.
    twice = np.where((band == 0) | (band == spectral.PLP_BANDS - 1), 1.0, 2.0)
    rows = []
    for frame in frames:
        power = np.abs(np.fft.fft(frame, fft_size)[: fft_size // 2 + 1]) ** 2
        loudness = np.cbrt((weights @ power) / weights.sum(axis=1))
        r = np.array(
            [
                np.sum(twice * loudness * np.cos(2 * np.pi * band * k / n)) / n
                for k in range(LP_ORDER + 1)
            ]
        )
        if lp._levinson_batch(r[None, :])[3][0]:
            coeffs = scipy.linalg.solve_toeplitz(r[:LP_ORDER], r[1:])
            rows.append(lp._lpcc_batch(coeffs[None, :], LP_ORDER)[0])
    return np.array(rows)


class TestPlp:
    @pytest.mark.parametrize("fft_size", [256, 512, 1024, 2048])
    def test_matches_dense_oracle_at_each_fft_size(self, speech_frames, fft_size):
        # The pipeline passes filterbank.fft_size; each size builds its own
        # band weights.
        got = plpcc(speech_frames, fft_size)
        assert got.kind is FeatureKind.PLPCC and got.dim == LP_ORDER
        np.testing.assert_allclose(
            got.values, dense_plpcc(speech_frames.frames, fft_size), rtol=1e-9, atol=1e-12
        )

    def test_flat_spectrum_gives_tiny_cepstra(self):
        frame = np.zeros(160)
        frame[0] = 1.0
        got = plpcc(make_frames(frame))
        assert got.kind is FeatureKind.PLPCC
        assert got.values.shape == (1, 19)
        assert np.max(np.abs(got.values)) < 0.1

    def test_speech_shape(self, speech_frames):
        got = plpcc(speech_frames)
        assert got.dim == 19
        assert 0 < got.n_frames <= speech_frames.n_frames

    def test_gain_invariance(self, speech_frames):
        base = plpcc(speech_frames).values
        scaled_frames = FrameSequence(speech_frames.frames * 12.5)
        np.testing.assert_allclose(plpcc(scaled_frames).values, base, atol=1e-8)

    def test_equal_loudness_shape(self):
        f = np.array([100.0, 1000.0, 3000.0])
        w = equal_loudness(f)
        assert w.shape == (3,)
        assert np.all(w > 0)
        assert w[1] > w[0]  # low frequencies are attenuated

    def test_band_count_covers_order(self):
        assert spectral.PLP_BANDS >= LP_ORDER + 2

    def test_band_weights_built_once_per_fft_size_and_read_only(self):
        band_weights, band_areas = spectral._plp_bands(256)
        again = spectral._plp_bands(256)
        assert again[0] is band_weights and again[1] is band_areas
        bin_hz = np.arange(129) * RATE / 256
        weights = bark_filterbank(spectral.PLP_BANDS, 256) * equal_loudness(bin_hz)
        np.testing.assert_array_equal(band_weights, weights)
        np.testing.assert_array_equal(band_areas, weights.sum(axis=1))
        for array in (band_weights, band_areas):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def stable_fits(frames: FrameSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The predictor and reflection rows of the frames' stable order-``order`` fits."""
    coeffs, reflection, _, valid = lp._levinson_batch(lp._autocorr_batch(frames.frames, order))
    return coeffs[valid], reflection[valid]


class TestLpFeatureKinds:
    def test_lpcc_shape(self, speech_frames):
        got = extract_lp_features(speech_frames, FeatureKind.LPCC)
        assert got.kind is FeatureKind.LPCC
        assert got.dim == 19

    def test_lsf_rows_sorted(self, speech_frames):
        coeffs, _ = stable_fits(speech_frames, 12)
        freqs, valid = lp._lsf_batch(coeffs)
        assert valid.all() and freqs.shape == (len(coeffs), 12)
        assert np.all(np.diff(freqs, axis=1) > 0)

    def test_lar_bounded_reflections(self, speech_frames):
        _, reflection = stable_fits(speech_frames, 12)
        got = lp.lar(reflection)
        assert got.shape == (len(reflection), 12)
        assert np.all(np.isfinite(got))

    def test_lsf_without_a_stable_frame_raises_no_features(self):
        # Silent frames support no LP fit; non-minimum-phase predictors have
        # no line spectral frequencies.
        with pytest.raises(NoFeatures):
            extract_lp_features(make_frames(np.zeros((3, 160))), FeatureKind.LSF)
        with pytest.raises(NoFeatures, match="line spectral frequencies"):
            spectral._lsf_rows(np.array([[2.5], [-1.5]]), None)

    @pytest.mark.parametrize("kind", [FeatureKind.LPCC, FeatureKind.LSF, FeatureKind.LAR])
    def test_dimension_is_the_lp_order(self, speech_frames, kind):
        got = extract_lp_features(speech_frames, kind)
        assert got.kind is kind and got.dim == LP_ORDER

    @pytest.mark.parametrize("kind", [FeatureKind.LPCC, FeatureKind.LSF, FeatureKind.LAR])
    def test_order_19_bytes_equal_the_one_frame_lp_path(self, speech_frames, kind):
        # Each row is its frame's order-19 fit through lp's one-frame helpers.
        one_row = {
            FeatureKind.LPCC: lambda fit: lp._lpcc_batch(fit.coefficients[None, :], 19)[0],
            FeatureKind.LSF: lambda fit: lp.lsf(fit.coefficients),
            FeatureKind.LAR: lambda fit: lp.lar(fit.reflection),
        }[kind]
        fits = [lp.analyze_frame(frame, 19) for frame in speech_frames.frames]
        expected = FeatureMatrix(kind, np.array([one_row(fit) for fit in fits]))
        got = extract_lp_features(speech_frames, kind)
        assert got.kind is expected.kind and got.values.shape == expected.values.shape
        assert got.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("kind", [FeatureKind.LPCC, FeatureKind.LSF, FeatureKind.LAR])
    def test_kernels_give_one_column_per_order(self, speech_frames, kind):
        # The extractor fixes the order at LP_ORDER; the kernels under it
        # take any order, and at LP_ORDER give the extractor's rows.
        for order in (1, 7, LP_ORDER, 30):
            coeffs, reflection = stable_fits(speech_frames, order)
            if kind is FeatureKind.LPCC:
                rows = lp._lpcc_batch(coeffs, order)
            elif kind is FeatureKind.LAR:
                rows = lp.lar(reflection)
            else:
                rows, valid = lp._lsf_batch(coeffs)
                rows = rows[valid]
            assert rows.shape == (len(rows), order) and len(rows) > 0
            if order == LP_ORDER:
                got = extract_lp_features(speech_frames, kind).values
                assert got.tobytes() == rows.tobytes()

    def test_rejects_non_lp_kind(self, speech_frames):
        with pytest.raises(ValueError):
            extract_lp_features(speech_frames, FeatureKind.MFCC)
