"""Reading and writing 16-bit PCM mono WAV files."""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, EmptyInput
from .signal_prep import AudioSignal

_PCM16_SCALE = 32768.0


def read_wav(path: str | Path) -> AudioSignal:
    """Load a RIFF WAV file; only uncompressed 16-bit mono PCM is accepted."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getcomptype() != "NONE":
                raise AudioFormatError(
                    f"{path}: compressed WAV ({wav.getcomptype()}) is not supported"
                )
            if wav.getnchannels() != 1:
                raise AudioFormatError(
                    f"{path}: expected mono audio, found {wav.getnchannels()} channels"
                )
            if wav.getsampwidth() != 2:
                raise AudioFormatError(
                    f"{path}: expected 16-bit samples, found {8 * wav.getsampwidth()}-bit"
                )
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except EOFError:
        raise AudioFormatError(f"{path}: file ends inside the WAV header") from None
    except RuntimeError:  # wave seeking past the RIFF chunk's end to skip a chunk
        raise AudioFormatError(f"{path}: a chunk runs past the end of the RIFF chunk") from None
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    except OSError as exc:  # a directory, a missing file, a failed read
        raise AudioFormatError(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    if rate < 1:
        raise AudioFormatError(f"{path}: frame rate {rate} Hz is not positive")
    if len(raw) != 2 * n_frames:
        raise AudioFormatError(
            f"{path}: data chunk truncated, {len(raw)} of {2 * n_frames} bytes present"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM16_SCALE
    return AudioSignal(samples, rate)


def write_wav(path: str | Path, signal: AudioSignal) -> None:
    """Write a mono 16-bit PCM WAV; samples are clipped to the int16 range.

    The scale mirrors read_wav's, so writing what was just read reproduces
    the original file byte for byte.
    """
    if len(signal) == 0:
        raise EmptyInput("refusing to write an empty WAV file")
    quantized = np.round(signal.samples * _PCM16_SCALE)
    pcm = np.asarray(np.clip(quantized, -32768, 32767), dtype="<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(signal.sample_rate_hz)
        wav.writeframes(pcm.tobytes())
