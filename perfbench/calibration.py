"""A fixed reference computation that measures how fast the machine is now.

On a shared virtual machine the same code can run 1.5x slower for seconds
or minutes at a time, because other guests load the host. A run that lands
in a slow phase reads slow however long it is. The benchmark therefore runs
this reference after every timed operation and reports the operation's
latency as a multiple of the reference's time measured next to it. A slow
phase slows both alike, so the ratio holds still; a change to voxid moves
only the numerator, because the reference is frozen here and never calls
voxid.

The reference does the kinds of work an identification does, at about the
same sizes: framing, an FFT power spectrum, a filterbank product, log and a
DCT; a batched autocorrelation and Levinson-Durbin recursion; and diagonal
Gaussian mixture scoring against ten models, one Python call per model. Its
inputs come from a fixed seed, never from the benchmark's seed, so every
run on every commit computes exactly the same thing.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import dct
from scipy.special import logsumexp

_rng = np.random.default_rng(20110510)
FRAME_LEN, HOP, FFT_SIZE, N_FILTERS, N_CEP, ORDER = 320, 160, 512, 24, 12, 12
N_MODELS, N_COMPONENTS = 10, 8
SIGNAL = _rng.standard_normal(16000)
WINDOW = np.hamming(FRAME_LEN)
BANK = np.abs(_rng.standard_normal((N_FILTERS, FFT_SIZE // 2 + 1)))
MEANS = _rng.standard_normal((N_MODELS, N_COMPONENTS, N_CEP))
VARIANCES = 0.5 + _rng.random((N_MODELS, N_COMPONENTS, N_CEP))
LOG_WEIGHTS = np.log(np.full(N_COMPONENTS, 1.0 / N_COMPONENTS))


def _levinson(r: np.ndarray) -> np.ndarray:
    m, p = r.shape[0], r.shape[1] - 1
    a = np.zeros((m, p))
    err = r[:, 0].copy()
    for i in range(1, p + 1):
        acc = r[:, i] - np.einsum("mj,mj->m", a[:, : i - 1], r[:, i - 1 : 0 : -1])
        k = acc / err
        new_a = a.copy()
        new_a[:, i - 1] = k
        if i > 1:
            new_a[:, : i - 1] = a[:, : i - 1] - k[:, None] * a[:, i - 2 :: -1]
        a = new_a
        err = err * (1.0 - k * k)
    return a


def reference() -> float:
    """One pass of the reference computation; returns a checksum."""
    frames = np.lib.stride_tricks.sliding_window_view(SIGNAL, FRAME_LEN)[::HOP] * WINDOW
    spectra = np.fft.rfft(frames, n=FFT_SIZE, axis=1)
    power = spectra.real**2 + spectra.imag**2
    cepstra = dct(np.log(np.maximum(power @ BANK.T, 1e-10)), type=2, norm="ortho", axis=1)
    x = cepstra[:, 1 : N_CEP + 1]
    r = np.empty((frames.shape[0], ORDER + 1))
    for lag in range(ORDER + 1):
        r[:, lag] = np.einsum("ij,ij->i", frames[:, : FRAME_LEN - lag], frames[:, lag:])
    total = float(_levinson(r).sum())
    for means, variances in zip(MEANS, VARIANCES):
        inv_var = 1.0 / variances
        quad = (x * x) @ inv_var.T - 2.0 * x @ (means * inv_var).T
        quad += (means * means * inv_var).sum(axis=1)[None, :]
        log_norm = -0.5 * np.log(variances).sum(axis=1)
        total += float(logsumexp(log_norm - 0.5 * quad + LOG_WEIGHTS, axis=1).sum())
    return total


EXPECTED = reference()


def time_reference(calls: int) -> float:
    """Mean wall time of one reference pass, in ms, over calls passes."""
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        checksum = reference()
    elapsed = time.perf_counter_ns() - t0
    if checksum != EXPECTED:
        raise RuntimeError("reference computation gave a different result")
    return elapsed / calls / 1e6
