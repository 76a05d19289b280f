import re
import struct
import wave

import numpy as np
import pytest

from tests.conftest import with_oversized_chunk
from voxid.audio_io import read_wav, write_wav
from voxid.errors import (
    AudioFormatError,
    BadFileFormat,
    DimError,
    EmptyInput,
    FeatureKindMismatch,
)
from voxid.features import (
    BlobReader,
    FeatureKind,
    FeatureMatrix,
    concatenate_features,
    export_csv,
    pack_text,
)
from voxid.signal_prep import AudioSignal


class TestFeatureKind:
    def test_parse_case_insensitive(self):
        assert FeatureKind.parse("mfcc") is FeatureKind.MFCC
        assert FeatureKind.parse("ACRLAG") is FeatureKind.ACRLAG
        assert FeatureKind.parse("PlPcC") is FeatureKind.PLPCC

    def test_parse_unknown(self):
        with pytest.raises(BadFileFormat):
            FeatureKind.parse("wavelets")


class TestFeatureMatrix:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FeatureMatrix(FeatureKind.MFCC, np.zeros(5))

    def test_casts_to_float64(self):
        m = FeatureMatrix(FeatureKind.MFCC, np.ones((2, 3), dtype=np.float32))
        assert m.values.dtype == np.float64

    def test_concatenate(self, rng):
        a = FeatureMatrix(FeatureKind.LSF, rng.standard_normal((3, 4)))
        b = FeatureMatrix(FeatureKind.LSF, rng.standard_normal((5, 4)))
        whole = concatenate_features([a, b])
        assert whole.n_frames == 8
        np.testing.assert_array_equal(whole.values[:3], a.values)
        np.testing.assert_array_equal(whole.values[3:], b.values)

    def test_concatenate_kind_mismatch(self, rng):
        a = FeatureMatrix(FeatureKind.LSF, rng.standard_normal((3, 4)))
        b = FeatureMatrix(FeatureKind.LAR, rng.standard_normal((3, 4)))
        with pytest.raises(FeatureKindMismatch):
            concatenate_features([a, b])

    def test_concatenate_dim_mismatch(self, rng):
        a = FeatureMatrix(FeatureKind.LSF, rng.standard_normal((3, 4)))
        b = FeatureMatrix(FeatureKind.LSF, rng.standard_normal((3, 5)))
        with pytest.raises(DimError):
            concatenate_features([a, b])


class TestBlobReader:
    def test_reads_in_order(self):
        blob = b"MAG" + pack_text("h\u00e9") + struct.pack("<Hd", 7, 2.5) + b"xy"
        reader = BlobReader(blob, "test blob", b"MAG")
        assert reader.text() == "h\u00e9"
        assert reader.unpack("<H") == (7,)
        np.testing.assert_array_equal(reader.floats(1), [2.5])
        assert reader.take(2) == b"xy"
        reader.end()

    def test_bad_magic(self):
        with pytest.raises(BadFileFormat, match="bad test blob magic"):
            BlobReader(b"MAX", "test blob", b"MAG")

    def test_short_read_names_the_format(self):
        reader = BlobReader(b"MAG\x01", "test blob", b"MAG")
        with pytest.raises(BadFileFormat, match="test blob truncated"):
            reader.unpack("<H")

    def test_text_length_past_the_end(self):
        reader = BlobReader(b"MAG" + struct.pack("<I", 2**32 - 1) + b"abc", "test blob", b"MAG")
        with pytest.raises(BadFileFormat, match="truncated"):
            reader.text()

    def test_non_utf8_text(self):
        reader = BlobReader(b"MAG" + struct.pack("<I", 1) + b"\xff", "test blob", b"MAG")
        with pytest.raises(BadFileFormat, match="test blob text is not UTF-8"):
            reader.text()

    def test_trailing_bytes(self):
        reader = BlobReader(b"MAG!", "test blob", b"MAG")
        with pytest.raises(BadFileFormat, match="1 trailing bytes after test blob"):
            reader.end()


class TestFeatureSerialization:
    def test_csv_export(self, rng, tmp_path):
        m = FeatureMatrix(FeatureKind.LAR, rng.standard_normal((4, 3)))
        path = tmp_path / "out.csv"
        export_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lar_0,lar_1,lar_2"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(parsed, m.values, atol=0)

    def test_csv_export_keeps_every_bit(self, rng, tmp_path):
        # The CSV is the one feature output, so it loses nothing: signed
        # zeros, subnormals and the extremes of float64 read back as written.
        values = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4))
        values[0] = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).tiny]
        values[1] = [1 / 3, 0.1, -2.0**-1074 * 3, 1e16 + 2]
        path = tmp_path / "out.csv"
        export_csv(FeatureMatrix(FeatureKind.MFCC, values), path)
        rows = path.read_text().splitlines()[1:]
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert parsed.tobytes() == values.tobytes()


class TestWavIo:
    def test_round_trip_int16_exact(self, rng, tmp_path):
        pcm = rng.integers(-32768, 32768, 800, dtype=np.int16)
        signal = AudioSignal(pcm.astype(np.float64) / 32768.0, 8000)
        path = tmp_path / "t.wav"
        write_wav(path, signal)
        back = read_wav(path)
        assert back.sample_rate_hz == 8000
        # int16-derived floats survive the symmetric-scale round trip exactly.
        np.testing.assert_array_equal(back.samples, signal.samples)

    def test_write_read_write_stable(self, rng, tmp_path):
        signal = AudioSignal(rng.uniform(-0.9, 0.9, 500), 8000)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p1, signal)
        write_wav(p2, read_wav(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_clipping(self, tmp_path):
        signal = AudioSignal(np.array([2.0, -2.0, 0.0]), 8000)
        path = tmp_path / "c.wav"
        write_wav(path, signal)
        back = read_wav(path)
        assert back.samples[0] == pytest.approx(32767 / 32768)
        assert back.samples[1] == -1.0

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            write_wav(tmp_path / "e.wav", AudioSignal(np.array([]), 8000))

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 64)
        with pytest.raises(AudioFormatError, match="mono"):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "eight.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(b"\x00" * 64)
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_wav(path)

    def test_every_prefix_rejected(self, rng, tmp_path):
        pcm = rng.integers(-32768, 32768, 800, dtype=np.int16)
        whole = tmp_path / "whole.wav"
        write_wav(whole, AudioSignal(pcm / 32768.0, 8000))
        blob = whole.read_bytes()
        assert len(read_wav(whole)) == 800
        path = tmp_path / "prefix.wav"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(AudioFormatError, match="prefix.wav"):
                read_wav(path)

    def test_short_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "short.wav"
        write_wav(path, AudioSignal(np.zeros(100), 8000))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(AudioFormatError, match="197 of 200 bytes"):
            read_wav(path)

    def test_zero_frame_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_wav(path, AudioSignal(np.zeros(100), 8000))
        blob = bytearray(path.read_bytes())
        blob[24:28] = (0).to_bytes(4, "little")  # fmt chunk sample rate
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioFormatError, match="frame rate 0"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        sound = tmp_path / "sound.wav"
        write_wav(sound, AudioSignal(np.full(100, 0.25), 8000))
        for name, blob in (
            ("noise.wav", b"this is not RIFF data at all"),
            ("oversized_chunk.wav", with_oversized_chunk(sound.read_bytes())),
        ):
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(AudioFormatError, match=f"^{re.escape(str(path))}: "):
                read_wav(path)
