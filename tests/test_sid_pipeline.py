import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.conftest import NON_INTEGER_CONFIGS, with_denormal_variance
from voxid import audio_io, sid_pipeline
from voxid.acrlag import AcrlagConfig
from voxid.errors import (
    AudioFormatError,
    BadFileFormat,
    InsufficientData,
    LagTooLarge,
    NoFeatures,
    NumericalFailure,
    VoxidError,
)
from voxid.features import FeatureMatrix
from voxid.gmm import GmmModel, TrainConfig
from voxid.signal_prep import AudioSignal
from voxid.sid_pipeline import (
    CorpusManifest,
    FusionConfig,
    IdentificationResult,
    PipelineConfig,
    ScoredTrial,
    SpeakerDatabase,
    SpeakerEntry,
    SpeakerScores,
    _argmax_speaker,
    _fused_score_dict,
    database_from_bytes,
    database_to_bytes,
    evaluate,
    fuse_scores,
    fusion_sweep,
    identify,
    load_database,
    load_manifest,
    report_from_scores,
    save_database,
    save_manifest,
    score_manifest,
    score_utterance,
    synth_corpus,
    train_database,
)
from voxid.spectral import FilterbankConfig, fb_cepstra

TINY_TRAIN = PipelineConfig(train=TrainConfig(n_components=2))

# TINY_TRAIN's header JSON as the previous release wrote it, with the since
# removed train.seed and score_average keys.
V1_CONFIG_JSON = (
    '{"acrlag": {"lp_order": 13, "max_lag": 12}, "filterbank": {"f_high_hz": null, '
    '"f_low_hz": 0.0, "fft_size": 512, "n_cep": 19, "n_filters": 20, "scale": "mel"}, '
    '"frame": {"energy_threshold_ratio": 0.06, "frame_len_samples": 160, '
    '"hop_samples": 80, "preemphasis": 0.97}, "score_average": false, "train": '
    '{"em_iterations": 10, "n_components": 2, "seed": 0, "variance_floor_ratio": 0.001}}'
)


def with_config_json(blob: bytes, config_json: str) -> bytes:
    """The database blob with its header config JSON replaced."""
    (length,) = struct.unpack_from("<I", blob, 8)
    raw = config_json.encode("utf-8")
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + length :]


def identify_or_error(db: SpeakerDatabase, audio: AudioSignal):
    """identify's result, or the type and message of the VoxidError it raised."""
    try:
        return identify(db, audio)
    except VoxidError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def tiny_db(tiny_corpus):
    manifest, _ = tiny_corpus
    return train_database(manifest, TINY_TRAIN)


class TestManifest:
    def test_round_trip(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        back = load_manifest(path, check_paths=False)
        assert back.speaker_ids == manifest.speaker_ids
        for a, b in zip(back.speakers, manifest.speakers):
            assert len(a.train_utterances) == len(b.train_utterances)
            assert len(a.test_utterances) == len(b.test_utterances)

    def test_loaded_paths_exist(self, tiny_corpus):
        _, manifest_path = tiny_corpus
        manifest = load_manifest(manifest_path)
        for entry in manifest.speakers:
            assert entry.train_utterances and entry.test_utterances

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(BadFileFormat, match="JSON"):
            load_manifest(path)

    def test_rejects_missing_files(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "speakers": [
                        {
                            "speaker_id": "a",
                            "train_utterances": ["ghost.wav"],
                            "test_utterances": [],
                        }
                    ]
                }
            )
        )
        with pytest.raises(BadFileFormat, match="missing"):
            load_manifest(path)

    def test_duplicate_ids_rejected(self):
        entry = SpeakerEntry("a", ("x.wav",), ("y.wav",))
        with pytest.raises(ValueError, match="unique"):
            CorpusManifest((entry, entry))

    def test_train_test_overlap_rejected(self):
        with pytest.raises(ValueError, match="share"):
            SpeakerEntry("a", ("x.wav",), ("x.wav",))

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b'{"speakers": 3}', "'speakers' list"),
            (b'{"speakers": ["a"]}', "speaker_id"),
            (b'{"speakers": [{"train_utterances": []}]}', "speaker_id"),
            (b'{"speakers": [{"speaker_id": "a", "train_utterances": "x.wav"}]}', "path strings"),
            (b'{"speakers": [{"speaker_id": "a", "test_utterances": [7]}]}', "path strings"),
            (b'{"speakers": [{"speaker_id": "a"}, {"speaker_id": "a"}]}', "unique"),
            (
                b'{"speakers": [{"speaker_id": "a", "train_utterances": ["x.wav"], '
                b'"test_utterances": ["x.wav"]}]}',
                "share",
            ),
            (b'{"speakers": ["\xff"]}', "JSON"),
        ],
    )
    def test_malformed_manifest_rejected(self, tmp_path, raw, match):
        path = tmp_path / "m.json"
        path.write_bytes(raw)
        with pytest.raises(BadFileFormat, match=match):
            load_manifest(path, check_paths=False)


class TestFusion:
    def test_midpoint(self):
        assert fuse_scores(-10.0, -20.0, FusionConfig(0.5)) == pytest.approx(-15.0)

    def test_eta_one_is_spectral(self):
        assert fuse_scores(-10.0, -20.0, FusionConfig(1.0)) == -10.0

    def test_eta_zero_is_residual(self):
        assert fuse_scores(-10.0, -20.0, FusionConfig(0.0)) == -20.0

    def test_eta_out_of_range(self):
        for eta in (-0.1, 1.1):
            with pytest.raises(ValueError):
                FusionConfig(eta)

    def test_fusion_can_flip_the_winner(self):
        # Spectral alone prefers B; the residual stream is confident enough
        # about A that the fused decision goes to A.
        scores = (
            SpeakerScores("A", spectral=-5.0, residual=-4.0),
            SpeakerScores("B", spectral=-4.0, residual=-6.0),
        )
        spectral_only = {s.speaker_id: s.spectral for s in scores}
        assert _argmax_speaker(spectral_only) == "B"
        fused = _fused_score_dict(scores, FusionConfig(0.5))
        assert _argmax_speaker(fused) == "A"

    def test_missing_stream_falls_back(self):
        scores = (
            SpeakerScores("A", spectral=-5.0, residual=None),
            SpeakerScores("B", spectral=-4.0, residual=None),
        )
        fused = _fused_score_dict(scores, FusionConfig(0.25))
        assert fused == {"A": -5.0, "B": -4.0}

    def test_tie_goes_to_smallest_id(self):
        assert _argmax_speaker({"zeta": 1.0, "alpha": 1.0, "mid": 1.0}) == "alpha"

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.floats(-1e6, 1e6),
            min_size=1,
            max_size=8,
        ),
        shift=st.floats(-1e5, 1e5),
    )
    def test_argmax_invariant_under_constant_shift(self, scores, shift):
        # Keep score gaps wide enough that adding the shift cannot collapse
        # two distinct scores into a rounding-induced tie.
        values = sorted(set(scores.values()))
        if len(values) > 1:
            min_gap = min(b - a for a, b in zip(values, values[1:]))
            assume(min_gap > 1e-6 * max(abs(shift), max(map(abs, values)), 1.0))
        shifted = {k: v + shift for k, v in scores.items()}
        assert _argmax_speaker(scores) == _argmax_speaker(shifted)


class TestTrainDatabase:
    def test_structure(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        assert tiny_db.speaker_ids == manifest.speaker_ids
        assert tiny_db.n_speakers == 3
        for sid in tiny_db.speaker_ids:
            assert tiny_db.spectral_models[sid].n_components == 2
            assert tiny_db.residual_models[sid].n_components == 2
            assert tiny_db.spectral_models[sid].dim == 19
            assert tiny_db.residual_models[sid].dim == 13

    def test_deterministic(self, tiny_corpus):
        manifest, _ = tiny_corpus
        a = train_database(manifest, TINY_TRAIN)
        b = train_database(manifest, TINY_TRAIN)
        assert database_to_bytes(a) == database_to_bytes(b)

    def test_bad_audio_names_speaker(self, tiny_corpus, tmp_path):
        manifest, _ = tiny_corpus
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"junk" * 64)
        entries = list(manifest.speakers)
        entries[0] = SpeakerEntry(
            entries[0].speaker_id,
            entries[0].train_utterances + (str(bad),),
            entries[0].test_utterances,
        )
        broken = CorpusManifest(tuple(entries))
        with pytest.raises(Exception, match=entries[0].speaker_id):
            train_database(broken, TINY_TRAIN)

    def test_layers_are_called_through_the_module(self, tiny_corpus, monkeypatch):
        # The benchmark's tracer times these layers by wrapping the module
        # attributes; a call that bypasses them would read as zero.
        layers = ("preprocess", "fb_cepstra", "extract_acrlag")
        calls = Counter()
        for name in layers:
            def counted(*args, _name=name, _layer=getattr(sid_pipeline, name)):
                calls[_name] += 1
                return _layer(*args)

            monkeypatch.setattr(sid_pipeline, name, counted)
        manifest, _ = tiny_corpus
        db = train_database(manifest, TINY_TRAIN)
        n_train = sum(len(entry.train_utterances) for entry in manifest.speakers)
        assert calls == dict.fromkeys(layers, n_train)
        calls.clear()
        identify(db, audio_io.read_wav(manifest.speakers[0].test_utterances[0]))
        assert calls == dict.fromkeys(layers, 1)


# Trains the tiny corpus at M=8 and M=32 with train_database and with a
# serial oracle that shares nothing with it but the layers, and prints
# whether each pair of databases is byte-identical. It runs in a fresh
# interpreter so that the BLAS thread count is set before NumPy loads.
SERIAL_ORACLE = """
import sys
from voxid import audio_io, gmm
from voxid.acrlag import extract_acrlag
from voxid.features import concatenate_features
from voxid.gmm import TrainConfig
from voxid.sid_pipeline import (
    PipelineConfig, SpeakerDatabase, database_to_bytes, load_manifest, train_database,
)
from voxid.signal_prep import preprocess
from voxid.spectral import fb_cepstra

manifest = load_manifest(sys.argv[1])
for m in (8, 32):
    config = PipelineConfig(train=TrainConfig(n_components=m))
    models = ({}, {})
    for entry in manifest.speakers:
        frames = [preprocess(audio_io.read_wav(p), config.frame) for p in entry.train_utterances]
        for extract, settings, stream_models in (
            (fb_cepstra, config.filterbank, models[0]),
            (extract_acrlag, config.acrlag, models[1]),
        ):
            features = concatenate_features([extract(f, settings) for f in frames])
            stream_models[entry.speaker_id] = gmm.train_gmm(features, config.train)
    oracle = SpeakerDatabase(config, manifest.speaker_ids, *models)
    same = database_to_bytes(train_database(manifest, config)) == database_to_bytes(oracle)
    print(m, same)
"""


def one_speaker(manifest: CorpusManifest, n_utterances: int) -> CorpusManifest:
    """One speaker enrolled from the first n train utterances of the corpus."""
    paths = [p for entry in manifest.speakers for p in entry.train_utterances]
    return CorpusManifest((SpeakerEntry("solo", tuple(paths[:n_utterances]), ()),))


def stub_layer(monkeypatch, name: str, failures: dict[int, BaseException], rows=None):
    """Replace a pipeline layer: call n raises failures[n], and any other
    call returns the real features, cut to their first rows when set."""
    layer, calls = getattr(sid_pipeline, name), itertools.count()

    def stub(frames, settings):
        n = next(calls)
        if n in failures:
            raise failures[n]
        features = layer(frames, settings)
        return features if rows is None else FeatureMatrix(features.kind, features.values[:rows])

    monkeypatch.setattr(sid_pipeline, name, stub)


class TestConcurrentEnrollment:
    """train_database runs each speaker's streams at once, with the models
    and the error of one utterance after another, stream after stream."""

    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_bytes_equal_a_serial_oracle(self, tiny_corpus, blas_threads):
        _, manifest_path = tiny_corpus
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(sid_pipeline.__file__).parents[1]),
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), blas_threads),
        }
        done = subprocess.run(
            [sys.executable, "-c", SERIAL_ORACLE, str(manifest_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.split("\n") == ["8 True", "32 True", ""]

    def test_lowest_utterance_error_wins_across_streams(self, tiny_corpus, monkeypatch):
        manifest = one_speaker(tiny_corpus[0], 5)
        paths = manifest.speakers[0].train_utterances
        baseline = threading.active_count()
        stub_layer(monkeypatch, "fb_cepstra", {3: NoFeatures("spectral gave out")})
        stub_layer(monkeypatch, "extract_acrlag", {1: NoFeatures("residual gave out")})
        with pytest.raises(NoFeatures, match=f"^solo: {re.escape(paths[1])}: residual gave out$"):
            train_database(manifest, TINY_TRAIN)
        assert threading.active_count() == baseline

    def test_spectral_error_wins_at_the_same_utterance(self, tiny_corpus, monkeypatch):
        manifest = one_speaker(tiny_corpus[0], 4)
        paths = manifest.speakers[0].train_utterances
        baseline = threading.active_count()
        stub_layer(monkeypatch, "fb_cepstra", {2: LagTooLarge("spectral gave out")})
        stub_layer(monkeypatch, "extract_acrlag", {2: NoFeatures("residual gave out")})
        with pytest.raises(LagTooLarge, match=f"^solo: {re.escape(paths[2])}: spectral gave out$"):
            train_database(manifest, TINY_TRAIN)
        assert threading.active_count() == baseline

    def test_extraction_error_before_a_bad_file_wins(self, tiny_corpus, monkeypatch, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"junk" * 64)
        good = one_speaker(tiny_corpus[0], 3).speakers[0].train_utterances
        manifest = CorpusManifest((SpeakerEntry("solo", good + (str(bad),), ()),))
        baseline = threading.active_count()
        stub_layer(monkeypatch, "extract_acrlag", {2: NoFeatures("residual gave out")})
        with pytest.raises(NoFeatures, match=f"^solo: {re.escape(good[2])}: residual gave out$"):
            train_database(manifest, TINY_TRAIN)
        monkeypatch.undo()
        with pytest.raises(AudioFormatError, match=f"^solo: {re.escape(str(bad))}: "):
            train_database(manifest, TINY_TRAIN)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("short", [("extract_acrlag",), ("fb_cepstra", "extract_acrlag")])
    def test_training_errors_name_the_first_stream_that_fails(
        self, tiny_corpus, monkeypatch, short
    ):
        # One row per utterance is too few for 8 components.
        manifest = one_speaker(tiny_corpus[0], 3)
        config = PipelineConfig(train=TrainConfig(n_components=8))
        baseline = threading.active_count()
        for name in short:
            stub_layer(monkeypatch, name, {}, rows=1)
        stream = "spectral" if "fb_cepstra" in short else "residual"
        with pytest.raises(InsufficientData, match=f"^speaker solo, {stream} stream: "):
            train_database(manifest, config)
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_call(self, tiny_corpus):
        baseline = threading.active_count()
        train_database(one_speaker(tiny_corpus[0], 2), TINY_TRAIN)
        assert threading.active_count() == baseline

    def test_worker_is_joined_when_the_calling_thread_stops(self, tiny_corpus, monkeypatch):
        class Stop(BaseException):
            pass

        started, finished = threading.Event(), threading.Event()
        residual = sid_pipeline.extract_acrlag

        def slow_residual(frames, settings):
            started.set()
            time.sleep(0.05)
            finished.set()
            return residual(frames, settings)

        def stop(frames, settings):
            assert started.wait(timeout=10.0)
            raise Stop

        baseline = threading.active_count()
        monkeypatch.setattr(sid_pipeline, "extract_acrlag", slow_residual)
        monkeypatch.setattr(sid_pipeline, "fb_cepstra", stop)
        with pytest.raises(Stop):
            train_database(one_speaker(tiny_corpus[0], 1), TINY_TRAIN)
        assert finished.is_set()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("name", ["fb_cepstra", "extract_acrlag"])
    def test_callers_errstate_holds_in_both_streams(self, tiny_corpus, monkeypatch, name):
        # The residual stream runs on the worker thread.
        def overflow(frames, settings):
            np.array([1e308]) * 10.0
            raise AssertionError("the overflow did not raise")

        baseline = threading.active_count()
        monkeypatch.setattr(sid_pipeline, name, overflow)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            train_database(one_speaker(tiny_corpus[0], 1), TINY_TRAIN)
        assert threading.active_count() == baseline


class TestScoringAndIdentify:
    def test_score_utterance_covers_all_speakers(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        audio = audio_io.read_wav(manifest.speakers[0].test_utterances[0])
        scores = score_utterance(tiny_db, audio)
        assert tuple(s.speaker_id for s in scores) == tiny_db.speaker_ids
        for s in scores:
            assert s.spectral is not None and np.isfinite(s.spectral)
            assert s.residual is not None and np.isfinite(s.residual)

    def test_identify_returns_winners(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        audio = audio_io.read_wav(manifest.speakers[1].test_utterances[0])
        result = identify(tiny_db, audio)
        assert result.fused_winner in tiny_db.speaker_ids
        assert result.spectral_winner in tiny_db.speaker_ids
        assert result.residual_winner in tiny_db.speaker_ids
        fused = result.fused_scores()
        assert set(fused) == set(tiny_db.speaker_ids)
        assert result.fused_winner == max(sorted(fused), key=fused.__getitem__)

    def test_extreme_eta_matches_single_stream(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        audio = audio_io.read_wav(manifest.speakers[2].test_utterances[1])
        spectral_only = identify(tiny_db, audio, FusionConfig(1.0))
        residual_only = identify(tiny_db, audio, FusionConfig(0.0))
        assert spectral_only.fused_winner == spectral_only.spectral_winner
        assert residual_only.fused_winner == residual_only.residual_winner

    def test_non_finite_features_name_the_stream(self, tiny_corpus, tiny_db, monkeypatch):
        def one_nan_row(frames, cfg):
            features = fb_cepstra(frames, cfg)
            features.values[0] = np.nan
            return features

        monkeypatch.setattr(sid_pipeline, "fb_cepstra", one_nan_row)
        manifest, _ = tiny_corpus
        entry = manifest.speakers[0]
        message = "spectral stream: features are not finite"
        with pytest.raises(NumericalFailure, match=message):
            identify(tiny_db, audio_io.read_wav(entry.test_utterances[0]))
        manifest = CorpusManifest((replace(entry, test_utterances=entry.test_utterances[:1]),))
        (trial,) = score_manifest(tiny_db, manifest)
        assert trial.failed and trial.error == message

    def test_only_no_features_switches_a_stream_off(self, tiny_corpus, tiny_db, monkeypatch):
        manifest, _ = tiny_corpus
        audio = audio_io.read_wav(manifest.speakers[1].test_utterances[0])
        expected = score_utterance(tiny_db, audio)

        def raising(error):
            def extract(frames, settings):
                raise error("stub")

            return extract

        monkeypatch.setattr(sid_pipeline, "extract_acrlag", raising(NoFeatures))
        scores = score_utterance(tiny_db, audio)
        assert [s.spectral for s in scores] == [s.spectral for s in expected]
        assert all(s.residual is None for s in scores)
        result = identify(tiny_db, audio)
        assert result.fused_winner == result.spectral_winner and result.residual_winner is None
        monkeypatch.setattr(sid_pipeline, "fb_cepstra", raising(NoFeatures))
        with pytest.raises(InsufficientData, match="both feature streams failed"):
            score_utterance(tiny_db, audio)
        # Any other error is a fault, not a stream that kept no frame.
        monkeypatch.setattr(sid_pipeline, "extract_acrlag", raising(LagTooLarge))
        with pytest.raises(LagTooLarge, match="^stub$"):
            score_utterance(tiny_db, audio)

    @pytest.mark.parametrize(
        "gain",
        [1e-5, 1e-8, 1e-30, 1e-100, 1e-150, 1e-155, 1e-160, 1e-200, 1e-300, 1e154, 1e300],
    )
    def test_quiet_audio_identifies_as_the_unscaled_audio(self, tiny_corpus, tiny_db, gain):
        # Silence removal rescales any gain to a peak in [0.5, 1), so tiny
        # and huge audio score as the unscaled audio does.
        manifest, _ = tiny_corpus
        for entry in manifest.speakers:
            for path in entry.test_utterances:
                audio = audio_io.read_wav(path)
                quiet = AudioSignal(audio.samples * gain, audio.sample_rate_hz)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = identify(tiny_db, quiet)
                expected = identify(tiny_db, audio)
                winners = ("fused_winner", "spectral_winner", "residual_winner")
                assert [getattr(got, w) for w in winners] == [
                    getattr(expected, w) for w in winners
                ]
                # Only the rounding of the gain itself moves the scores.
                np.testing.assert_allclose(
                    [(s.spectral, s.residual) for s in got.scores],
                    [(s.spectral, s.residual) for s in expected.scores],
                    rtol=1e-10,
                )

    def test_scores_do_not_depend_on_who_else_is_enrolled(self, tiny_corpus, tiny_db):
        # Decoys as the benchmark builds them: trained models with shifted
        # means.  40 of them put every enrolled speaker's models in a block
        # with others, across three blocks of products.
        rng = np.random.default_rng(7)
        spectral, residual = dict(tiny_db.spectral_models), dict(tiny_db.residual_models)
        ids = list(tiny_db.speaker_ids)
        for i in range(40):
            base = tiny_db.speaker_ids[i % tiny_db.n_speakers]
            for store in (spectral, residual):
                m = store[base]
                shift = 0.5 * np.sqrt(m.variances) * rng.standard_normal(m.means.shape)
                store[f"decoy{i:02d}"] = GmmModel(
                    m.feature_kind, m.weights, m.means + shift, m.variances
                )
            ids.append(f"decoy{i:02d}")
        wide = SpeakerDatabase(tiny_db.config, tuple(ids), spectral, residual)
        manifest, _ = tiny_corpus
        for entry in manifest.speakers:
            sid = entry.speaker_id
            alone = SpeakerDatabase(
                tiny_db.config,
                (sid,),
                {sid: tiny_db.spectral_models[sid]},
                {sid: tiny_db.residual_models[sid]},
            )
            index = tiny_db.speaker_ids.index(sid)
            for path in entry.test_utterances:
                audio = audio_io.read_wav(path)
                (expected,) = score_utterance(alone, audio)
                assert score_utterance(tiny_db, audio)[index] == expected
                assert score_utterance(wide, audio)[index] == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identify_takes_8khz_audio_only(self, tiny_corpus, tiny_db, data):
        # At 8 kHz: a winner with finite scores, or a VoxidError; and the
        # same audio times 2**k gets the same scores bit for bit, or the
        # same error.  At any other rate: AudioFormatError naming both
        # rates.  Nothing else, and no warning, escapes.
        manifest, _ = tiny_corpus
        speech = audio_io.read_wav(manifest.speakers[0].test_utterances[0]).samples
        rate = data.draw(st.sampled_from([8000, 11025, 16000]), "rate")
        shape = data.draw(
            st.sampled_from(["speech", "noise", "dc", "clipped", "constant", "one frame"]),
            "shape",
        )
        n = 160 if shape == "one frame" else data.draw(st.integers(0, 5 * rate), "length")
        x = np.resize(speech, n)
        if shape == "noise":
            x = np.random.default_rng(n).standard_normal(n)
        elif shape == "dc":
            x = x + 0.5
        elif shape == "clipped":
            x = np.clip(8.0 * x, -0.5, 0.5)
        elif shape == "constant":
            x = np.full(n, 0.25)
        peak = 10.0 ** data.draw(st.floats(-300.0, 300.0), "log10 peak")
        if n and np.abs(x).max() > 0:
            x = x * (peak / np.abs(x).max())
        audio = AudioSignal(x, rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rate != 8000:
                with pytest.raises(AudioFormatError, match=f"^audio at {rate} Hz; .* 8000 Hz"):
                    identify(tiny_db, audio)
                return
            result = identify_or_error(tiny_db, audio)
            # Skip a k that would take a nonzero sample out of the normal
            # range, where scaling by 2**k is no longer exact.
            k = data.draw(st.integers(-1000, 1000), "power of two")
            exponents = np.frexp(x[x != 0])[1] + k
            if exponents.size == 0 or (exponents.min() > -1022 and exponents.max() <= 1024):
                assert identify_or_error(tiny_db, AudioSignal(np.ldexp(x, k), rate)) == result
        if not isinstance(result, IdentificationResult):
            return
        assert result.fused_winner in tiny_db.speaker_ids
        scores = [v for s in result.scores for v in (s.spectral, s.residual) if v is not None]
        assert np.isfinite(scores).all()

    def test_other_rates_are_refused_in_training_and_evaluation(
        self, tiny_corpus, tiny_db, tmp_path
    ):
        manifest, _ = tiny_corpus
        entry = manifest.speakers[0]
        speech = audio_io.read_wav(entry.test_utterances[0])
        wide = tmp_path / "16k.wav"
        audio_io.write_wav(wide, AudioSignal(speech.samples, 16000))
        reason = "audio at 16000 Hz; voxid analyses 8000 Hz audio"
        training = CorpusManifest((replace(entry, train_utterances=(str(wide),)),))
        with pytest.raises(AudioFormatError) as caught:
            train_database(training, TINY_TRAIN)
        assert str(caught.value) == f"{entry.speaker_id}: {wide}: {reason}"
        testing = CorpusManifest((replace(entry, test_utterances=(str(wide),)),))
        (trial,) = score_manifest(tiny_db, testing)
        assert trial.failed and trial.error == reason

    def test_model_stacks_are_built_on_the_first_score(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        db = database_from_bytes(database_to_bytes(tiny_db))
        assert "model_stacks" not in vars(db)
        score_utterance(db, audio_io.read_wav(manifest.speakers[0].test_utterances[0]))
        stacks = vars(db)["model_stacks"]
        score_utterance(db, audio_io.read_wav(manifest.speakers[1].test_utterances[0]))
        assert db.model_stacks is stacks
        assert [stack.n_models for stack in stacks] == [db.n_speakers] * 2


class TestReports:
    def test_counts_add_up(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        report = evaluate(tiny_db, manifest)
        assert report.n_trials == 6
        assert report.n_scored + report.n_failed == report.n_trials
        assert 0 <= report.correct_fused <= report.n_scored
        assert report.eta == 0.5

    def test_tiny_corpus_identifies_well(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        report = evaluate(tiny_db, manifest)
        # Three synthetic speakers, two of them twins: allow one fused miss.
        assert report.correct_fused >= 5
        assert report.correct_residual >= 5

    def test_unreadable_wav_is_a_failed_trial(self, tiny_corpus, tiny_db, tmp_path):
        manifest, _ = tiny_corpus
        entry = manifest.speakers[0]
        cut = tmp_path / "cut.wav"
        cut.write_bytes(Path(entry.test_utterances[0]).read_bytes()[:-1])
        manifest = CorpusManifest((replace(entry, test_utterances=(str(cut),)),))
        (trial,) = score_manifest(tiny_db, manifest)
        assert trial.failed
        assert "cut.wav: data chunk truncated" in trial.error

    def test_manifest_without_test_utterances_raises(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        untested = CorpusManifest(
            tuple(replace(entry, test_utterances=()) for entry in manifest.speakers)
        )
        with pytest.raises(InsufficientData, match="^manifest lists no test utterances$"):
            evaluate(tiny_db, untested)
        with pytest.raises(InsufficientData, match="^manifest lists no test utterances$"):
            fusion_sweep(tiny_db, untested, (0.5,))

    def test_test_speaker_missing_from_database_raises(self, tiny_corpus, tiny_db, monkeypatch):
        manifest, _ = tiny_corpus
        renamed = CorpusManifest(
            (replace(manifest.speakers[0], speaker_id="spkZZ"),) + manifest.speakers[1:]
        )
        scored = []
        monkeypatch.setattr(sid_pipeline, "score_utterance", lambda *args: scored.append(args))
        with pytest.raises(VoxidError, match="not in the database: spkZZ$"):
            evaluate(tiny_db, renamed)
        with pytest.raises(VoxidError, match="not in the database: spkZZ$"):
            fusion_sweep(tiny_db, renamed, (0.5,))
        assert scored == []

    def test_failed_trials_excluded_from_denominator(self):
        trials = (
            ScoredTrial(
                "a", "u0", (SpeakerScores("a", -1.0, -1.0), SpeakerScores("b", -2.0, -3.0))
            ),
            ScoredTrial("b", "u1", None, error="boom"),
        )
        report = report_from_scores(trials)
        assert report.n_trials == 2
        assert report.n_scored == 1
        assert report.n_failed == 1
        assert report.pia_fused == 100.0
        assert report.trials[1].error == "boom"

    def test_all_failed_raises(self):
        trials = (ScoredTrial("a", "u0", None, error="boom"),)
        with pytest.raises(InsufficientData):
            report_from_scores(trials)

    def test_single_stream_trial_stays_in_denominator(self):
        trials = (
            ScoredTrial(
                "a", "u0", (SpeakerScores("a", -1.0, None), SpeakerScores("b", -2.0, None))
            ),
            ScoredTrial(
                "a", "u1", (SpeakerScores("a", -3.0, -1.0), SpeakerScores("b", -2.0, -2.0))
            ),
        )
        report = report_from_scores(trials)
        assert report.n_scored == 2
        assert report.correct_spectral == 1
        assert report.correct_fused == 2  # u0 falls back to spectral

    def test_report_json_shape(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        doc = evaluate(tiny_db, manifest).to_json_dict()
        json.dumps(doc)
        assert doc["n_trials"] == len(doc["trials"])
        assert set(doc) >= {
            "eta",
            "pia_spectral",
            "pia_residual",
            "pia_fused",
            "n_scored",
        }

    def test_fusion_sweep_matches_evaluate(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        etas = (0.0, 0.3, 1.0)
        sweep = fusion_sweep(tiny_db, manifest, etas)
        assert [r.eta for r in sweep] == list(etas)
        for eta, swept in zip(etas, sweep):
            direct = evaluate(tiny_db, manifest, FusionConfig(eta))
            assert swept.correct_fused == direct.correct_fused
            assert swept.pia_fused == direct.pia_fused

    def test_boundary_eta_matches_single_streams(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        trials = score_manifest(tiny_db, manifest)
        spectral_only = report_from_scores(trials, FusionConfig(1.0))
        residual_only = report_from_scores(trials, FusionConfig(0.0))
        assert spectral_only.pia_fused == spectral_only.pia_spectral
        assert residual_only.pia_fused == residual_only.pia_residual


class TestDatabasePersistence:
    def test_bytes_round_trip(self, tiny_db):
        blob = database_to_bytes(tiny_db)
        back = database_from_bytes(blob)
        assert database_to_bytes(back) == blob
        assert back.speaker_ids == tiny_db.speaker_ids
        assert back.config == tiny_db.config

    def test_file_round_trip(self, tiny_db, tmp_path):
        path = tmp_path / "speakers.db"
        save_database(tiny_db, path)
        back = load_database(path)
        assert database_to_bytes(back) == database_to_bytes(tiny_db)

    def test_bad_magic(self, tiny_db):
        blob = bytearray(database_to_bytes(tiny_db))
        blob[0] ^= 0xFF
        with pytest.raises(BadFileFormat, match="magic"):
            database_from_bytes(bytes(blob))

    def test_bad_version(self, tiny_db):
        blob = bytearray(database_to_bytes(tiny_db))
        blob[6:8] = (77).to_bytes(2, "little")
        with pytest.raises(BadFileFormat, match="version"):
            database_from_bytes(bytes(blob))

    def test_truncation(self, tiny_db):
        blob = database_to_bytes(tiny_db)
        with pytest.raises(BadFileFormat):
            database_from_bytes(blob[:-5])

    def test_every_truncation_rejected(self, tiny_db):
        blob = database_to_bytes(tiny_db)
        for n in range(len(blob)):
            with pytest.raises(BadFileFormat):
                database_from_bytes(blob[:n])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_bit_flip_loads_or_raises_bad_file_format(self, tiny_db, data):
        blob = bytearray(database_to_bytes(tiny_db))
        (config_len,) = struct.unpack_from("<I", blob, 8)
        bit = data.draw(st.integers(0, 8 * (12 + config_len + 4) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        try:
            database_from_bytes(bytes(blob))
        except BadFileFormat:
            pass

    def test_repeated_speaker_id_rejected(self, tiny_db):
        blob = bytearray(database_to_bytes(tiny_db))
        blob[blob.index(b"spk00") + 4] ^= 0x01  # spk00 -> spk01
        with pytest.raises(BadFileFormat, match="repeat: spk01"):
            database_from_bytes(bytes(blob))

    def test_denormal_variance_rejected(self, tiny_db):
        variance = tiny_db.residual_models["spk02"].variances[0, 0]
        blob = with_denormal_variance(database_to_bytes(tiny_db), variance)
        with pytest.raises(BadFileFormat, match="model: .*mean / var"):
            database_from_bytes(blob)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda blob, db: with_denormal_variance(
                    blob, db.residual_models["spk02"].variances[0, 0]
                ),
                "speaker spk02, residual model: -0.5 / var",
            ),
            (
                lambda blob, db: blob[: blob.index(b"spk01") + len("spk01") + 20],
                "speaker spk01, spectral model: database truncated",
            ),
            (
                # Models are stored speaker by speaker, spectral first: the
                # fourth magic opens spk01's residual model.
                lambda blob, db: blob.replace(b"VOXGMM", b"VOXGMX").replace(
                    b"VOXGMX", b"VOXGMM", 3
                ),
                "speaker spk01, residual model: bad model magic",
            ),
        ],
        ids=["variance", "truncated", "magic"],
    )
    def test_bad_model_names_speaker_and_stream(self, tiny_db, corrupt, message):
        blob = corrupt(database_to_bytes(tiny_db), tiny_db)
        with pytest.raises(BadFileFormat, match=f"^{message}"):
            database_from_bytes(blob)

    def test_header_disagreeing_with_models_rejected(self, tiny_db):
        config = replace(TINY_TRAIN, acrlag=AcrlagConfig(max_lag=10))
        header = json.dumps(asdict(config), sort_keys=True)
        with pytest.raises(BadFileFormat, match="residual model"):
            database_from_bytes(with_config_json(database_to_bytes(tiny_db), header))

    def test_previous_release_header_loads(self, tiny_corpus, tiny_db):
        manifest, _ = tiny_corpus
        old = database_from_bytes(with_config_json(database_to_bytes(tiny_db), V1_CONFIG_JSON))
        assert old.config == tiny_db.config
        for entry in manifest.speakers:
            for path in entry.test_utterances:
                audio = audio_io.read_wav(path)
                assert identify(old, audio) == identify(tiny_db, audio)

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            (
                '"n_cep": 19, "n_filters": 20',
                '"n_cep": 32, "n_filters": 40',
                "config key 'filterbank.n_cep': .* dimension 32",
            ),
            ('"max_lag": 12', '"max_lag": 31', "config key 'acrlag.max_lag': .* dimension 32"),
            (
                '"lp_order": 13',
                '"lp_order": 200',
                "config key 'acrlag.lp_order': 200 needs frames longer than 160 samples",
            ),
            (
                '"frame_len_samples": 160, "hop_samples": 80',
                '"frame_len_samples": 12, "hop_samples": 6',
                "config key 'acrlag.lp_order': 13 .* 12 samples .frame.frame_len_samples.",
            ),
            (
                '"fft_size": 512, "n_cep": 19, "n_filters": 20',
                '"fft_size": 128, "n_cep": 19, "n_filters": 100',
                "config key 'filterbank': filter 0 covers fewer than 2",
            ),
        ],
        ids=["n_cep", "max_lag", "lp_order", "short_frame", "too_dense"],
    )
    def test_header_with_a_too_wide_stream_rejected(self, tiny_db, old, new, reason):
        # Each header would load and then lose a stream on every utterance.
        header = V1_CONFIG_JSON.replace(old, new)
        assert header != V1_CONFIG_JSON
        with pytest.raises(BadFileFormat, match=f"^{reason}"):
            database_from_bytes(with_config_json(database_to_bytes(tiny_db), header))

    @pytest.mark.parametrize("fft_size", [2**18, 2**30])
    def test_header_with_a_huge_fft_rejected_before_allocating(self, tiny_db, fft_size):
        header = V1_CONFIG_JSON.replace('"fft_size": 512', f'"fft_size": {fft_size}')
        blob = with_config_json(database_to_bytes(tiny_db), header)
        tracemalloc.start()
        try:
            with pytest.raises(
                BadFileFormat, match=f"^config key 'filterbank': fft_size {fft_size} is above"
            ):
                database_from_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_score_average_true_rejected(self, tiny_db):
        header = V1_CONFIG_JSON.replace('"score_average": false', '"score_average": true')
        with pytest.raises(BadFileFormat, match="score_average"):
            database_from_bytes(with_config_json(database_to_bytes(tiny_db), header))


class TestDatabaseMatchesConfig:
    @pytest.mark.parametrize(
        "config, stream",
        [
            (replace(TINY_TRAIN, filterbank=FilterbankConfig(scale="hertz")), "spectral"),
            (replace(TINY_TRAIN, filterbank=FilterbankConfig(n_cep=12)), "spectral"),
            (replace(TINY_TRAIN, acrlag=AcrlagConfig(max_lag=10)), "residual"),
            (PipelineConfig(), "spectral"),
        ],
        ids=["kind", "spectral-dim", "residual-dim", "components"],
    )
    def test_models_must_match_config(self, tiny_db, config, stream):
        with pytest.raises(ValueError, match=f"speaker {tiny_db.speaker_ids[0]}, {stream} model"):
            SpeakerDatabase(
                config, tiny_db.speaker_ids, tiny_db.spectral_models, tiny_db.residual_models
            )

    def test_repeated_speaker_id_rejected(self, tiny_db):
        sid = tiny_db.speaker_ids[0]
        with pytest.raises(ValueError, match=f"speaker ids repeat: {sid}"):
            SpeakerDatabase(
                TINY_TRAIN, (sid, sid), tiny_db.spectral_models, tiny_db.residual_models
            )

    def test_missing_model_rejected(self, tiny_db):
        residual = dict(tiny_db.residual_models)
        del residual[tiny_db.speaker_ids[1]]
        with pytest.raises(ValueError, match="missing a residual model"):
            SpeakerDatabase(TINY_TRAIN, tiny_db.speaker_ids, tiny_db.spectral_models, residual)


class TestConfigJson:
    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"bogus": {}}, "bogus"),
            ({"train": {"n_components": 2, "bogus": 1}}, "train.bogus"),
            ({"frame": 160}, "frame"),
            ({"acrlag": [13, 12]}, "acrlag"),
            ({"train": {"n_components": 3}}, "train"),
            ({"frame": {"hop_samples": "80"}}, "frame"),
            ({"score_average": True}, "score_average"),
            ({"filterbank": {"f_high_hz": 5000}}, "filterbank"),
            ({"filterbank": {"n_filters": 40, "n_cep": 32}}, "filterbank.n_cep"),
            ({"acrlag": {"max_lag": 31}}, "acrlag.max_lag"),
        ]
        + NON_INTEGER_CONFIGS
        + [
            ({"acrlag": {"lp_order": 200}}, "acrlag.lp_order"),
            ({"frame": {"frame_len_samples": 12, "hop_samples": 6}}, "frame.frame_len_samples"),
            ({"filterbank": {"n_filters": 100, "fft_size": 128}}, "filterbank"),
            ({"frame": {"frame_len_samples": 1024, "hop_samples": 512}}, "filterbank.fft_size"),
        ],
    )
    def test_bad_config_names_the_key(self, doc, key):
        with pytest.raises(BadFileFormat, match=key):
            PipelineConfig.from_json_dict(doc)

    def test_not_an_object(self):
        with pytest.raises(BadFileFormat, match="object"):
            PipelineConfig.from_json_dict([])

    def test_old_seed_and_score_average_false_are_accepted(self):
        doc = {"score_average": False, "train": {"seed": 7, "n_components": 4}}
        assert PipelineConfig.from_json_dict(doc) == PipelineConfig(
            train=TrainConfig(n_components=4)
        )


class TestSynthCorpus:
    def test_writes_declared_files(self, tmp_path):
        manifest, manifest_path = synth_corpus(
            tmp_path, n_speakers=2, train_utterances=2, test_utterances=1, seed=4
        )
        assert manifest_path.exists()
        assert len(manifest.speakers) == 2
        for entry in manifest.speakers:
            assert len(entry.train_utterances) == 2
            assert len(entry.test_utterances) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        kwargs = dict(n_speakers=2, train_utterances=1, test_utterances=1, seed=6)
        m1, _ = synth_corpus(tmp_path / "a", **kwargs)
        m2, _ = synth_corpus(tmp_path / "b", **kwargs)
        for e1, e2 in zip(m1.speakers, m2.speakers):
            for p1, p2 in zip(
                e1.train_utterances + e1.test_utterances,
                e2.train_utterances + e2.test_utterances,
            ):
                assert Path(p1).read_bytes() == Path(p2).read_bytes()
