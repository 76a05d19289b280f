import numpy as np
import pytest
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from tests.conftest import random_ar_frame
from voxid import corpus, lp
from voxid.errors import DegenerateFrame, LagTooLarge, NumericalFailure, UnstableFilter
from voxid.features import FeatureKind
from voxid.signal_prep import FrameSequence
from voxid.spectral import LpTransformConfig, extract_lp_features

NON_FINITE = [np.nan, np.inf, -np.inf]


def toeplitz_solve(r: np.ndarray, order: int) -> np.ndarray:
    """Oracle: solve the normal equations directly as a dense linear system."""
    phi = scipy.linalg.toeplitz(r[:order])
    return scipy.linalg.solve(phi, r[1 : order + 1])


def recursion_loop(excitation: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Oracle: y[n] = x[n] + sum_k a[k] y[n-k] from zero history, one sample
    at a time."""
    p = coefficients.size
    y = np.zeros(p + excitation.size)
    for n, x in enumerate(excitation):
        y[p + n] = x + coefficients[::-1] @ y[n : p + n]
    return y[p:]


def series_log_cepstrum(coeffs: np.ndarray, n_cep: int) -> np.ndarray:
    """Oracle: cepstrum of 1/A(z) from the power series of -log A(z).

    With A(z) = 1 + sum p_k z^-k, the log derivative gives
    [log A]'(x) = A'(x)/A(x); long division of that ratio yields the series
    q_m, and [log A]_m = q_{m-1}/m.  Cepstra of 1/A are the negatives.
    """
    p = np.concatenate(([1.0], -np.asarray(coeffs)))  # A as a series in x
    dp = np.array([k * p[k] for k in range(1, p.size)])  # A'
    n = n_cep + 1
    q = np.zeros(n)
    remainder = np.pad(dp, (0, max(0, n - dp.size)))[:n].astype(float)
    divisor = np.pad(p, (0, max(0, n - p.size)))[:n]
    for m in range(n):
        q[m] = remainder[m]
        remainder[m:] -= q[m] * divisor[: n - m]
    log_a = np.array([q[m - 1] / m for m in range(1, n)])
    return -log_a


def per_frame_lsf(coeffs: np.ndarray) -> np.ndarray | None:
    """Reference: the roots of P and Q one polynomial at a time with np.roots;
    None when the count of frequencies in (0, pi) is not the order."""
    padded = np.concatenate(([1.0], -coeffs, [0.0]))
    angles = []
    for poly in (padded + padded[::-1], padded - padded[::-1]):
        theta = np.angle(np.roots(poly))
        keep = (theta > 1e-9) & (theta < np.pi - 1e-9)
        angles.append(np.sort(theta[keep]))
    freqs = np.sort(np.concatenate(angles))
    return freqs if freqs.size == coeffs.size else None


def lpcc(coefficients: np.ndarray, n_cepstra: int) -> np.ndarray:
    """One predictor row through the batch LPCC recursion."""
    return lp._lpcc_batch(np.asarray(coefficients, dtype=np.float64)[None, :], n_cepstra)[0]


def lsf_to_coeffs(freqs: np.ndarray) -> np.ndarray:
    """Oracle: predictor taps a[1..p] rebuilt from line spectral frequencies.

    P holds the even-indexed (0, 2, ...) ascending frequencies and Q the
    odd, each as quadratic factors with roots at exp(+-jw), plus the fixed
    roots at z = +-1; A(z) = (P(z) + Q(z)) / 2.
    """
    p = freqs.size

    def poly_from_pairs(pairs: np.ndarray) -> np.ndarray:
        poly = np.array([1.0])
        for w in pairs:
            poly = np.convolve(poly, [1.0, -2.0 * np.cos(w), 1.0])
        return poly

    p_poly = poly_from_pairs(freqs[0::2])
    q_poly = poly_from_pairs(freqs[1::2])
    if p % 2 == 0:
        p_poly = np.convolve(p_poly, [1.0, 1.0])  # root at z = -1
        q_poly = np.convolve(q_poly, [1.0, -1.0])  # root at z = +1
    else:
        q_poly = np.convolve(q_poly, [1.0, 0.0, -1.0])  # roots at z = +1 and -1
    a_poly = 0.5 * (p_poly + q_poly)
    return -a_poly[1 : p + 1]


class TestAutocorr:
    def test_impulse(self):
        np.testing.assert_array_equal(
            lp.autocorr(np.array([1.0, 0, 0, 0]), 3), [1, 0, 0, 0]
        )

    def test_constant(self):
        np.testing.assert_array_equal(lp.autocorr(np.ones(3), 2), [3, 2, 1])

    def test_matches_brute_force(self, rng):
        x = rng.standard_normal(64)
        got = lp.autocorr(x, 20)
        expected = [
            sum(x[n] * x[n + m] for n in range(64 - m)) for m in range(21)
        ]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_lag_dominates(self, rng):
        x = rng.standard_normal(128)
        r = lp.autocorr(x, 30)
        assert r[0] >= 0
        assert np.all(r[0] >= np.abs(r[1:]))

    def test_lag_too_large(self):
        # The lag may be an LP order or an ACRLAG lag, so the message names neither.
        with pytest.raises(LagTooLarge, match="^lag 8 needs a frame longer than 8 samples$"):
            lp.autocorr(np.ones(8), 8)


class TestLevinsonDurbin:
    def test_white_noise(self):
        out = lp.levinson_durbin(np.array([1.0, 0.0, 0.0]), 2)
        np.testing.assert_allclose(out.coefficients, [0.0, 0.0], atol=1e-15)
        assert out.error_power == pytest.approx(1.0)

    def test_order_one(self):
        out = lp.levinson_durbin(np.array([1.0, 0.5]), 1)
        np.testing.assert_allclose(out.coefficients, [0.5])
        assert out.error_power == pytest.approx(0.75)

    def test_matches_dense_solve_on_ar_frames(self, rng):
        for order in (8, 13, 20):
            frame, _ = random_ar_frame(rng, order)
            r = lp.autocorr(frame, order)
            got = lp.levinson_durbin(r, order)
            np.testing.assert_allclose(
                got.coefficients, toeplitz_solve(r, order), atol=1e-8
            )
            assert got.error_power > 0
            assert np.all(np.abs(got.reflection) < 1)

    def test_normal_equation_residual(self, rng):
        frame, _ = random_ar_frame(rng, 13)
        r = lp.autocorr(frame, 13)
        a = lp.levinson_durbin(r, 13).coefficients
        phi = scipy.linalg.toeplitz(r[:13])
        rhs = r[1:14]
        assert np.linalg.norm(phi @ a - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            lp.levinson_durbin(np.zeros(5), 4)

    def test_analyze_frame_bundles_everything(self, rng):
        frame, _ = random_ar_frame(rng, 10)
        analysis = lp.analyze_frame(frame, 10)
        assert analysis.order == 10
        assert analysis.residual.shape == frame.shape
        assert analysis.autocorrelation.shape == (11,)
        np.testing.assert_allclose(
            lp.synthesize(analysis.residual, analysis.coefficients), frame, atol=1e-8
        )


def residual_batch_oracle(frames: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """lp._residual_batch as first written, its windows over np.pad's rows."""
    m, n = frames.shape
    p = min(coefficients.shape[1], n)
    taps = np.concatenate((-coefficients[:, :p][:, ::-1], np.ones((m, 1))), axis=1)
    windows = sliding_window_view(np.pad(frames, ((0, 0), (p, 1))), p + 1, axis=1)
    return np.einsum("mnk,mk->mn", windows[:, :n], taps)


class TestResidual:
    def test_batch_bits_equal_the_padded_window_oracle(self, tiny_corpus_frames):
        coeffs = lp._levinson_batch(lp._autocorr_batch(tiny_corpus_frames, 13))[0]
        # Whole frames, then frames shorter than the 13 taps, then none.
        for n in (tiny_corpus_frames.shape[1], 5, 0):
            frames = tiny_corpus_frames[:, :n]
            got = lp._residual_batch(frames, coeffs)
            expected = residual_batch_oracle(frames, coeffs)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_zero_coeffs_identity(self, rng):
        frame = rng.standard_normal(32)
        np.testing.assert_array_equal(lp.residual(frame, np.zeros(4)), frame)

    @pytest.mark.parametrize("taps", [0, 5, 16, 40])
    def test_matches_convolution_oracle(self, rng, taps):
        # A 16-sample frame: 16 taps reach its first sample, 40 run past it.
        frame = rng.standard_normal(16)
        a = rng.uniform(-1.0, 1.0, taps)
        expected = np.convolve(frame, np.r_[1.0, -a])[: frame.size]
        np.testing.assert_allclose(lp.residual(frame, a), expected, rtol=1e-12, atol=1e-12)

    def test_pulse_train_round_trip(self, rng):
        # Drive 1/A(z) with a known pulse train and analyze with the true taps.
        _, coeffs = random_ar_frame(rng, 10)
        pulses = np.zeros(160)
        pulses[::40] = 1.0
        frame = lp.synthesize(pulses, coeffs)
        np.testing.assert_allclose(lp.residual(frame, coeffs), pulses, atol=1e-8)

    def test_synthesis_inverts_residual(self, rng):
        for order in (8, 13, 20):
            frame, _ = random_ar_frame(rng, order)
            a = lp.analyze_frame(frame, order).coefficients
            e = lp.residual(frame, a)
            scale = np.max(np.abs(frame))
            np.testing.assert_allclose(
                lp.synthesize(e, a) / scale, frame / scale, atol=1e-8
            )

    def test_whitening(self, rng):
        # The residual should be less self-correlated than the frame itself.
        wins = total = 0
        for _ in range(100):
            frame, _ = random_ar_frame(rng, 10)
            a = lp.analyze_frame(frame, 10).coefficients
            e = lp.residual(frame, a)
            r_frame = lp.autocorr(frame, 10)
            r_res = lp.autocorr(e, 10)
            wins += np.sum(np.abs(r_res[1:]) < np.abs(r_frame[1:]))
            total += 10
        assert wins / total > 0.95


BLOCK = lp.SYNTH_BLOCK
# Below, at and just above one block, then lengths off the block grid.
SYNTH_LENGTHS = [0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 1000, 4321, 20_000]


class TestSynthesize:
    @pytest.mark.parametrize("length", SYNTH_LENGTHS)
    @pytest.mark.parametrize("excitation", ["pulses", "noise"])
    def test_matches_lfilter_and_recursion_loop(self, length, excitation):
        rng = np.random.default_rng(length)
        for order in rng.integers(1, 25, 3):
            a = corpus.reflection_to_coefficients(rng.uniform(-0.85, 0.85, order))
            if excitation == "noise":
                x = rng.standard_normal(length)
            else:
                x = np.zeros(length)
                pulses = np.arange(rng.integers(0, 80), length, rng.integers(40, 121))
                x[pulses] = rng.uniform(0.85, 1.15, pulses.size)
            y = lp.synthesize(x, a)
            assert y.shape == (length,) and y.dtype == np.float64
            scale = np.max(np.abs(y), initial=0.0)
            for reference in (lfilter([1.0], np.r_[1.0, -a], x), recursion_loop(x, a)):
                assert np.max(np.abs(y - reference), initial=0.0) <= 1e-8 * scale

    def test_more_taps_than_a_block(self, rng):
        # The state carried between blocks reaches back past the block before.
        a = corpus.reflection_to_coefficients(rng.uniform(-0.3, 0.3, BLOCK + 40))
        x = rng.standard_normal(3 * BLOCK + 17)
        y = lp.synthesize(x, a)
        np.testing.assert_allclose(y, recursion_loop(x, a), rtol=0, atol=1e-8 * np.max(np.abs(y)))

    def test_empty_excitation(self):
        y = lp.synthesize(np.zeros(0), np.array([0.5, -0.2]))
        assert y.shape == (0,) and y.dtype == np.float64

    def test_zero_taps_return_the_excitation(self, rng):
        x = rng.standard_normal(3 * BLOCK + 1)
        np.testing.assert_array_equal(lp.synthesize(x, np.zeros(0)), x)

    def test_more_taps_than_samples(self, rng):
        # Taps past the signal length only ever meet the zero history.
        a = rng.uniform(-0.5, 0.5, 12)
        x = rng.standard_normal(5)
        y = lp.synthesize(x, a)
        np.testing.assert_allclose(y, lfilter([1.0], np.r_[1.0, -a], x), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, recursion_loop(x, a), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ["excitation", "coefficients"])
    def test_non_finite_rejected(self, bad, where):
        x, a = np.zeros(3 * BLOCK), np.array([0.5, -0.2])
        (x if where == "excitation" else a)[1] = bad
        with pytest.raises(NumericalFailure, match="^synthesize: input is not finite$"):
            lp.synthesize(x, a)

    @pytest.mark.parametrize(
        "x_shape, a_shape", [((2, 50), (3,)), ((50,), (1, 3)), ((), (3,)), ((50,), ())]
    )
    def test_input_that_is_not_one_dimensional_is_refused(self, x_shape, a_shape):
        with pytest.raises(ValueError, match="^excitation and coefficients must be 1-D$"):
            lp.synthesize(np.ones(x_shape), np.full(a_shape, 0.1))


class TestAllPoleFilter:
    def test_each_excitation_is_filtered_as_synthesize_filters_it(self, rng):
        # One filter, built once, starts every excitation from zero history:
        # the excitation before it leaves no state behind.
        a = corpus.reflection_to_coefficients(rng.uniform(-0.85, 0.85, 10))
        tract = lp.all_pole_filter(a)
        for length in (3000, 0, 5, BLOCK, 2 * BLOCK + 5, 3000):
            x = rng.standard_normal(length)
            assert tract(x).tobytes() == lp.synthesize(x, a).tobytes()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        a, x = np.array([0.5, -0.2]), np.zeros(3 * BLOCK)
        x[1] = bad
        with pytest.raises(NumericalFailure, match="^synthesize: input is not finite$"):
            lp.all_pole_filter(a)(x)
        with pytest.raises(NumericalFailure, match="^synthesize: input is not finite$"):
            lp.all_pole_filter(np.array([0.5, bad]))

    def test_input_that_is_not_one_dimensional_is_refused(self):
        with pytest.raises(ValueError, match="^coefficients must be 1-D$"):
            lp.all_pole_filter(np.full((1, 3), 0.1))
        with pytest.raises(ValueError, match="^excitation must be 1-D$"):
            lp.all_pole_filter(np.full(3, 0.1))(np.ones((2, 50)))


class TestLpcc:
    def test_zero_coeffs(self):
        np.testing.assert_array_equal(lpcc(np.zeros(5), 8), np.zeros(8))

    def test_order_one_expansion(self):
        alpha = 0.4
        got = lpcc(np.array([alpha]), 2)
        np.testing.assert_allclose(got, [alpha, alpha**2 / 2])

    def test_matches_series_log_oracle(self, rng):
        coeffs = np.array([random_ar_frame(rng, 12)[1] for _ in range(20)])
        for row, c in zip(lp._lpcc_batch(coeffs, 19), coeffs):
            np.testing.assert_allclose(row, series_log_cepstrum(c, 19), atol=1e-8)

    def test_default_length_matches_order(self, rng):
        # The LPCC stream keeps as many cepstra as the model order.
        frames = np.vstack([random_ar_frame(rng, 12)[0] for _ in range(3)])
        for order in (2, 12):
            got = extract_lp_features(
                FrameSequence(frames), FeatureKind.LPCC, LpTransformConfig(order)
            ).values
            coeffs = [lp.analyze_frame(frame, order).coefficients for frame in frames]
            np.testing.assert_array_equal(got, [lpcc(c, order) for c in coeffs])


class TestLsf:
    def test_unit_predictor(self):
        np.testing.assert_allclose(
            lp.lsf(np.zeros(2)), [np.pi / 3, 2 * np.pi / 3], atol=1e-10
        )

    def test_interlacing(self, rng):
        # Odd/even-indexed frequencies alternate between P-roots and Q-roots.
        for order in (8, 13, 19):
            _, coeffs = random_ar_frame(rng, order)
            freqs = lp.lsf(coeffs)
            assert freqs.shape == (order,)
            assert np.all(np.diff(freqs) > 0)
            assert freqs[0] > 0 and freqs[-1] < np.pi
            p_poly, q_poly = lp.lsf_polynomials(coeffs)
            for i, w in enumerate(freqs):
                poly = p_poly if i % 2 == 0 else q_poly
                val = np.polyval(poly, np.exp(1j * w))
                assert abs(val) < 1e-6 * (1 + np.abs(poly).sum())

    def test_round_trip(self, rng):
        for order in (8, 13, 19, 20):
            _, coeffs = random_ar_frame(rng, order)
            freqs = lp.lsf(coeffs)
            np.testing.assert_allclose(lsf_to_coeffs(freqs), coeffs, atol=1e-6)

    def test_non_minimum_phase_rejected(self):
        # A(z) with a root outside the unit circle.
        with pytest.raises(UnstableFilter):
            lp.lsf(np.array([2.5]))

    def test_batch_matches_per_frame_roots(self, rng):
        # Half the rows carry one reflection coefficient outside (-1, 1), so
        # their predictor is not minimum phase; the reference rejects most.
        rejected = 0
        for order in range(22):
            ks = rng.uniform(-0.99, 0.99, (40, order))
            if order:
                ks[::2, rng.integers(order)] = rng.choice([-1, 1], 20) * rng.uniform(1.01, 3, 20)
            coeffs = np.array([corpus.reflection_to_coefficients(k) for k in ks]).reshape(40, order)
            freqs, valid = lp._lsf_batch(coeffs)
            for row, ok, c in zip(freqs, valid, coeffs):
                expected = per_frame_lsf(c)
                assert ok == (expected is not None)
                if expected is None:
                    with pytest.raises(UnstableFilter):
                        lp.lsf(c)
                else:
                    assert row.tobytes() == expected.tobytes()
                    assert lp.lsf(c).tobytes() == expected.tobytes()
            rejected += np.count_nonzero(~valid)
        assert rejected > 300

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalFailure, match="^lsf: "):
            lp.lsf(np.array([bad, 0.1]))


class TestLar:
    def test_zero(self):
        np.testing.assert_array_equal(lp.lar(np.zeros(4)), np.zeros(4))

    def test_half(self):
        assert lp.lar(np.array([0.5]))[0] == pytest.approx(np.log(3.0))

    def test_odd_function(self, rng):
        k = rng.uniform(-0.99, 0.99, 50)
        np.testing.assert_allclose(lp.lar(-k), -lp.lar(k), atol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableFilter):
            lp.lar(np.array([1.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalFailure, match="^lar: "):
            lp.lar(np.array([bad]))
