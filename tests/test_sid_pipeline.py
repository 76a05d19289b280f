import errno
import itertools
import json
import os
import pickle
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.conftest import NON_INTEGER_CONFIGS, with_denormal_variance, with_oversized_chunk
from voxid import audio_io, gmm, sid_pipeline, spectral
from voxid.acrlag import AcrlagConfig, extract_acrlag
from voxid.cli import _load_config
from voxid.errors import (
    AudioFormatError,
    BadFileFormat,
    InsufficientData,
    LagTooLarge,
    NoFeatures,
    NumericalFailure,
    VoxidError,
)
from voxid.features import FeatureKind, FeatureMatrix, concatenate_features
from voxid.gmm import GmmModel, TrainConfig
from voxid.signal_prep import AudioSignal, FrameConfig
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
from voxid.spectral import FilterbankConfig, extract_lp_features, fb_cepstra, plpcc

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


def with_overflowing_row_sum(blob: bytes, model: GmmModel) -> bytes:
    """The database blob with the model's first mean row moved so that each
    of its mean^2 / var terms is finite but their sum overflows."""
    means = model.means.copy()
    means[0] = np.sqrt(1.5e307 * model.variances[0])
    old = gmm.model_to_bytes(model)  # ... means, variances: each (M, d) float64
    new = old[: -2 * means.nbytes] + means.tobytes() + old[-means.nbytes :]
    assert blob.count(old) == 1
    return blob.replace(old, new)


def with_decoys(db: SpeakerDatabase, n: int) -> SpeakerDatabase:
    """db plus n decoys as the benchmark builds them: each a trained
    speaker's models with every mean moved by a seeded normal draw of half
    a standard deviation."""
    rng = np.random.default_rng(7)
    stores = tuple(dict(models) for models in db.stream_models)
    ids = list(db.speaker_ids)
    for i in range(n):
        base = db.speaker_ids[i % db.n_speakers]
        for store in stores:
            m = store[base]
            shift = 0.5 * np.sqrt(m.variances) * rng.standard_normal(m.means.shape)
            store[f"decoy{i:02d}"] = GmmModel(
                m.feature_kind, m.weights, m.means + shift, m.variances
            )
        ids.append(f"decoy{i:02d}")
    return SpeakerDatabase(db.config, tuple(ids), *stores)


@contextmanager
def on_the_one_worker():
    """The calls inside start no thread, and leave no thread but the
    process's one stream worker, the same thread as before them, and the
    same trainer process."""
    worker, trainer = sid_pipeline._stream_worker(), sid_pipeline._spectral_trainer()
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    with mock.patch.object(threading.Thread, "start", recording_start):
        yield
    assert started == []
    assert sid_pipeline._stream_worker() is worker
    assert set(threading.enumerate()) == {threading.main_thread(), worker.thread}
    assert sid_pipeline._trainer is trainer and trainer.usable


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
        back = load_manifest(path)
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
                            "train_utterances": ["x.wav"],
                            "test_utterances": ["ghost.wav"],
                        }
                    ]
                }
            )
        )
        (tmp_path / "x.wav").write_bytes(b"")
        message = f"{path}: speaker a: missing file {tmp_path / 'ghost.wav'}"
        with pytest.raises(BadFileFormat, match=f"^{re.escape(message)}$"):
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
            (b'{"speakers": [{"speaker_id": null}]}', "'speaker_id' string"),
            (b'{"speakers": [{"speaker_id": 5}]}', "'speaker_id' string"),
            (b'{"speakers": [{"speaker_id": ["a"]}]}', "'speaker_id' string"),
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
        # Every manifest error begins with the manifest's path.
        path = tmp_path / "m.json"
        path.write_bytes(raw)
        with pytest.raises(BadFileFormat, match=f"^{re.escape(str(path))}: .*{match}"):
            load_manifest(path)


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

    @pytest.mark.parametrize(
        "eta, reason",
        [
            (True, "eta must not be a boolean, got True"),
            ("0.5", "eta must be a number, got '0.5'"),
            (None, "eta must be a number, got None"),
        ],
    )
    def test_eta_of_the_wrong_type_is_refused(self, eta, reason):
        with pytest.raises(TypeError, match=f"^{re.escape(reason)}$"):
            FusionConfig(eta)

    @pytest.mark.parametrize("eta", [0, 1, np.float64(0.5), np.int64(1)])
    def test_eta_is_stored_and_written_as_a_float(self, eta):
        # Else an int eta writes "eta": 1 to a report, where 1.0 writes 1.0.
        assert type(FusionConfig(eta).eta) is float
        trials = [ScoredTrial("A", "a.wav", (SpeakerScores("A", -1.0, -2.0),))]
        written = [
            json.dumps(report_from_scores(trials, FusionConfig(e)).to_json_dict())
            for e in (eta, float(eta))
        ]
        assert written[0] == written[1]

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

    def test_unreadable_train_file_is_named_once(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"junk" * 64)
        manifest = CorpusManifest((SpeakerEntry("solo", (str(bad),), ()),))
        reason = r"not a readable PCM WAV file \(file does not start with RIFF id\)"
        with pytest.raises(AudioFormatError, match=f"^solo: {re.escape(str(bad))}: {reason}$"):
            train_database(manifest, TINY_TRAIN)

    def test_directory_among_train_files_names_speaker_and_path(self, tiny_corpus, tmp_path):
        entry = tiny_corpus[0].speakers[0]
        folder = tmp_path / "folder.wav"
        folder.mkdir()
        manifest = CorpusManifest(
            (replace(entry, train_utterances=entry.train_utterances + (str(folder),)),)
        )
        with pytest.raises(AudioFormatError, match=f"^spk..: {re.escape(str(folder))}: ") as caught:
            train_database(manifest, TINY_TRAIN)
        assert str(caught.value).count(str(folder)) == 1

    def test_one_utterances_frames_are_held_at_a_time(self, tiny_corpus, monkeypatch):
        live, held = weakref.WeakSet(), []
        layer, extract = sid_pipeline.preprocess, sid_pipeline.extract_acrlag

        def tracked(audio, frame):
            frames = layer(audio, frame)
            live.add(frames)
            return frames

        def counted(frames, settings):
            held.append(len(live))
            return extract(frames, settings)

        monkeypatch.setattr(sid_pipeline, "preprocess", tracked)
        monkeypatch.setattr(sid_pipeline, "extract_acrlag", counted)
        train_database(one_speaker(tiny_corpus[0], 5), TINY_TRAIN)
        assert held == [1] * 5

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


def assert_stop_waits_for_the_other_stream(call, stops: str, runs: str):
    """call() raises the BaseException that the layer named stops raises
    while the layer named runs is running in the other stream, and only
    after that layer has finished; no call starts a thread. Returns what
    call() returns next, with both layers restored."""

    class Stop(BaseException):
        pass

    started, finished = threading.Event(), threading.Event()
    layer = getattr(sid_pipeline, runs)

    def slow(frames, settings):
        started.set()
        time.sleep(0.05)
        finished.set()
        return layer(frames, settings)

    def stop(frames, settings):
        assert started.wait(timeout=10.0)
        raise Stop

    with on_the_one_worker(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sid_pipeline, runs, slow)
        patch.setattr(sid_pipeline, stops, stop)
        with pytest.raises(Stop):
            call()
        assert finished.is_set()
    with on_the_one_worker():
        return call()


# The calls of a stubbed layer that raise, and the error each raises.
LAYER_FAULTS = st.dictionaries(
    st.integers(0, 4), st.sampled_from([NoFeatures, LagTooLarge, ValueError]), max_size=2
)


def serial_enrollment(entry: SpeakerEntry, config: PipelineConfig):
    """The type and message of the error that enrolling the speaker one step
    after another meets first, or its (spectral, residual) model bytes:
    read, spectral and residual features for each utterance in turn, then
    stack both streams, then train both. The layers are looked up on
    sid_pipeline, so stubs set there apply."""
    sid = entry.speaker_id
    streams = (
        ("spectral", sid_pipeline.fb_cepstra, config.filterbank),
        ("residual", sid_pipeline.extract_acrlag, config.acrlag),
    )
    parts = ([], [])
    for path in entry.train_utterances:
        try:
            audio = audio_io.read_wav(path)
        except VoxidError as exc:  # read_wav's errors name the path
            return type(exc), f"{sid}: {exc}"
        try:
            frames = sid_pipeline.preprocess(audio, config.frame)
            for (_, extract, layer_settings), stream_parts in zip(streams, parts):
                stream_parts.append(extract(frames, layer_settings))
        except VoxidError as exc:
            return type(exc), f"{sid}: {path}: {exc}"
        except Exception as exc:
            return type(exc), str(exc)
    stacked = [concatenate_features(stream_parts) for stream_parts in parts]
    models = []
    for (name, _, _), features in zip(streams, stacked):
        try:
            models.append(gmm.model_to_bytes(gmm.train_gmm(features, config.train)))
        except InsufficientData as exc:
            return InsufficientData, f"speaker {sid}, {name} stream: {exc}"
    return tuple(models)


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
        with on_the_one_worker():
            stub_layer(monkeypatch, "fb_cepstra", {3: NoFeatures("spectral gave out")})
            stub_layer(monkeypatch, "extract_acrlag", {1: NoFeatures("residual gave out")})
            message = f"^solo: {re.escape(paths[1])}: residual gave out$"
            with pytest.raises(NoFeatures, match=message):
                train_database(manifest, TINY_TRAIN)

    def test_spectral_error_wins_at_the_same_utterance(self, tiny_corpus, monkeypatch):
        manifest = one_speaker(tiny_corpus[0], 4)
        paths = manifest.speakers[0].train_utterances
        with on_the_one_worker():
            stub_layer(monkeypatch, "fb_cepstra", {2: LagTooLarge("spectral gave out")})
            stub_layer(monkeypatch, "extract_acrlag", {2: NoFeatures("residual gave out")})
            message = f"^solo: {re.escape(paths[2])}: spectral gave out$"
            with pytest.raises(LagTooLarge, match=message):
                train_database(manifest, TINY_TRAIN)

    def test_extraction_error_before_a_bad_file_wins(self, tiny_corpus, monkeypatch, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"junk" * 64)
        good = one_speaker(tiny_corpus[0], 3).speakers[0].train_utterances
        manifest = CorpusManifest((SpeakerEntry("solo", good + (str(bad),), ()),))
        with on_the_one_worker():
            stub_layer(monkeypatch, "extract_acrlag", {2: NoFeatures("residual gave out")})
            message = f"^solo: {re.escape(good[2])}: residual gave out$"
            with pytest.raises(NoFeatures, match=message):
                train_database(manifest, TINY_TRAIN)
            monkeypatch.undo()
            with pytest.raises(AudioFormatError, match=f"^solo: {re.escape(str(bad))}: "):
                train_database(manifest, TINY_TRAIN)

    @pytest.mark.parametrize(
        "name, stream", [("fb_cepstra", "spectral"), ("extract_acrlag", "residual")]
    )
    def test_non_finite_train_features_name_speaker_path_and_stream(
        self, tiny_corpus, monkeypatch, name, stream
    ):
        # Training refuses what scoring refuses, before LBG meets the NaN.
        manifest = one_speaker(tiny_corpus[0], 3)
        path = manifest.speakers[0].train_utterances[1]
        layer, calls = getattr(sid_pipeline, name), itertools.count()

        def nan_in_second_utterance(frames, settings):
            features = layer(frames, settings)
            if next(calls) == 1:
                features.values[0, 0] = np.nan
            return features

        monkeypatch.setattr(sid_pipeline, name, nan_in_second_utterance)
        message = f"^solo: {re.escape(path)}: {stream} stream: features are not finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=message):
                train_database(manifest, TINY_TRAIN)

    @pytest.mark.parametrize("short", [("extract_acrlag",), ("fb_cepstra", "extract_acrlag")])
    def test_training_errors_name_the_first_stream_that_fails(
        self, tiny_corpus, monkeypatch, short
    ):
        # One row per utterance is too few for 8 components.
        manifest = one_speaker(tiny_corpus[0], 3)
        config = PipelineConfig(train=TrainConfig(n_components=8))
        with on_the_one_worker():
            for name in short:
                stub_layer(monkeypatch, name, {}, rows=1)
            stream = "spectral" if "fb_cepstra" in short else "residual"
            with pytest.raises(InsufficientData, match=f"^speaker solo, {stream} stream: "):
                train_database(manifest, config)

    @settings(max_examples=30, deadline=None)
    @given(
        n_utterances=st.integers(1, 5),
        bad_file=st.none() | st.tuples(st.integers(0, 4), st.sampled_from(["corrupt", "silent"])),
        faults=st.tuples(LAYER_FAULTS, LAYER_FAULTS),
        short=st.sets(st.sampled_from(["fb_cepstra", "extract_acrlag"])),
    )
    def test_errors_are_those_of_a_serial_loop(
        self, tiny_corpus, tmp_path_factory, n_utterances, bad_file, faults, short
    ):
        # One row per utterance is too few for 8 components.
        config = PipelineConfig(train=TrainConfig(n_components=8))
        paths = list(one_speaker(tiny_corpus[0], n_utterances).speakers[0].train_utterances)
        # A corrupt file fails in read_wav, a silent one in preprocess.
        if bad_file is not None and bad_file[0] < n_utterances:
            index, kind = bad_file
            bad = tmp_path_factory.mktemp(kind) / "bad.wav"
            if kind == "corrupt":
                bad.write_bytes(b"junk" * 64)
            else:
                audio_io.write_wav(bad, AudioSignal(np.zeros(8000), 8000))
            paths[index] = str(bad)
        entry = SpeakerEntry("solo", tuple(paths), ())

        def enroll(how):
            with pytest.MonkeyPatch.context() as patch:
                for name, layer_faults in zip(("fb_cepstra", "extract_acrlag"), faults):
                    failures = {n: fault(f"{name} call {n}") for n, fault in layer_faults.items()}
                    stub_layer(patch, name, failures, rows=1 if name in short else None)
                try:
                    return how()
                except Exception as exc:
                    return type(exc), str(exc)

        with on_the_one_worker():
            expected = enroll(lambda: serial_enrollment(entry, config))
            got = enroll(lambda: train_database(CorpusManifest((entry,)), config))
            if isinstance(got, SpeakerDatabase):
                got = tuple(gmm.model_to_bytes(models["solo"]) for models in got.stream_models)
            assert got == expected

    def test_a_call_starts_no_thread(self, tiny_corpus):
        with on_the_one_worker():
            train_database(one_speaker(tiny_corpus[0], 2), TINY_TRAIN)

    @pytest.mark.parametrize(
        "stops, runs",
        [("extract_acrlag", "fb_cepstra"), ("fb_cepstra", "extract_acrlag")],
        ids=["calling-thread", "worker"],
    )
    def test_a_base_exception_is_raised_once_both_streams_finish(self, tiny_corpus, stops, runs):
        # The residual stream extracts on the calling thread, the spectral
        # stream on the worker: a BaseException on either is raised once
        # both have finished, and the worker serves the next call.
        manifest = one_speaker(tiny_corpus[0], 1)
        expected = database_to_bytes(train_database(manifest, TINY_TRAIN))
        after = assert_stop_waits_for_the_other_stream(
            lambda: train_database(manifest, TINY_TRAIN), stops, runs
        )
        assert database_to_bytes(after) == expected

    @pytest.mark.parametrize("name", ["fb_cepstra", "extract_acrlag"])
    def test_callers_errstate_holds_in_both_streams(self, tiny_corpus, monkeypatch, name):
        # The spectral stream runs on the worker thread.
        def overflow(frames, settings):
            np.array([1e308]) * 10.0
            raise AssertionError("the overflow did not raise")

        with on_the_one_worker():
            monkeypatch.setattr(sid_pipeline, name, overflow)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                train_database(one_speaker(tiny_corpus[0], 1), TINY_TRAIN)


def stream_features(db: SpeakerDatabase, audio: AudioSignal) -> tuple[FeatureMatrix, ...]:
    """The spectral and the residual features of one utterance. The layers
    are looked up on sid_pipeline, so stubs set there apply."""
    frames = sid_pipeline.preprocess(audio, db.config.frame)
    return (
        sid_pipeline.fb_cepstra(frames, db.config.filterbank),
        sid_pipeline.extract_acrlag(frames, db.config.acrlag),
    )


def serial_scores(db: SpeakerDatabase, audio: AudioSignal) -> tuple[SpeakerScores, ...]:
    """score_utterance one stream after the other on the calling thread,
    with each stream's models stacked here in speaker order."""
    columns = []
    for features, models in zip(stream_features(db, audio), db.stream_models):
        stack = gmm.stack_models([models[sid] for sid in db.speaker_ids])
        columns.append(gmm.stack_scores(stack, features).tolist())
    return tuple(map(SpeakerScores, db.speaker_ids, *columns))


class TestConcurrentScoring:
    """score_utterance runs each utterance's streams at once, with the
    scores and the error of the spectral stream, then the residual one."""

    @pytest.mark.parametrize("n_blocks", [0, 2])
    def test_scores_and_reports_equal_a_serial_loop(self, tiny_corpus, tiny_db, n_blocks):
        manifest, _ = tiny_corpus
        if n_blocks:
            # Blocks are widest at the fewest feature rows of any utterance
            # and stream; past n_blocks of those, the models spill into more.
            rows = min(
                features.n_frames
                for entry in manifest.speakers
                for path in entry.test_utterances
                for features in stream_features(tiny_db, audio_io.read_wav(path))
            )
            block = gmm._score_block(tiny_db.config.train.n_components, rows)
            db = with_decoys(tiny_db, n_blocks * block + 5 - tiny_db.n_speakers)
        else:
            db = tiny_db
        with on_the_one_worker():
            trials = []
            for entry in manifest.speakers:
                for path in entry.test_utterances:
                    audio = audio_io.read_wav(path)
                    expected = serial_scores(db, audio)
                    assert score_utterance(db, audio) == expected
                    assert identify(db, audio).scores == expected
                    trials.append(ScoredTrial(entry.speaker_id, path, expected))
            assert evaluate(db, manifest) == report_from_scores(trials)
            etas = (0.0, 0.3, 1.0)
            assert fusion_sweep(db, manifest, etas) == [
                report_from_scores(trials, FusionConfig(eta)) for eta in etas
            ]

    def test_spectral_error_wins_over_a_residual_error(self, tiny_corpus, tiny_db, monkeypatch):
        audio = audio_io.read_wav(tiny_corpus[0].speakers[0].test_utterances[0])
        with on_the_one_worker():
            stub_layer(monkeypatch, "fb_cepstra", {0: LagTooLarge("spectral gave out")})
            stub_layer(monkeypatch, "extract_acrlag", {0: NumericalFailure("residual gave out")})
            with pytest.raises(LagTooLarge, match="^spectral gave out$"):
                score_utterance(tiny_db, audio)

    def test_non_finite_residual_features_name_the_stream(
        self, tiny_corpus, tiny_db, monkeypatch
    ):
        residual = sid_pipeline.extract_acrlag

        def one_nan_row(frames, settings):
            features = residual(frames, settings)
            features.values[0] = np.nan
            return features

        audio = audio_io.read_wav(tiny_corpus[0].speakers[0].test_utterances[0])
        with on_the_one_worker():
            monkeypatch.setattr(sid_pipeline, "extract_acrlag", one_nan_row)
            message = "^residual stream: features are not finite$"
            with pytest.raises(NumericalFailure, match=message):
                score_utterance(tiny_db, audio)

    @pytest.mark.parametrize(
        "stops, runs",
        [("extract_acrlag", "fb_cepstra"), ("fb_cepstra", "extract_acrlag")],
        ids=["calling-thread", "worker"],
    )
    def test_a_base_exception_is_raised_once_both_streams_finish(
        self, tiny_corpus, tiny_db, stops, runs
    ):
        # The residual stream scores on the calling thread, the spectral
        # stream on the worker.
        audio = audio_io.read_wav(tiny_corpus[0].speakers[0].test_utterances[0])
        after = assert_stop_waits_for_the_other_stream(
            lambda: score_utterance(tiny_db, audio), stops, runs
        )
        assert after == serial_scores(tiny_db, audio)

    @pytest.mark.parametrize("name", ["fb_cepstra", "extract_acrlag"])
    def test_callers_errstate_holds_in_both_streams_scoring(
        self, tiny_corpus, tiny_db, monkeypatch, name
    ):
        # Finite features whose squares overflow in the stream's scoring;
        # the spectral stream runs on the worker thread.
        layer = getattr(sid_pipeline, name)

        def huge(frames, settings):
            features = layer(frames, settings)
            return FeatureMatrix(features.kind, features.values * 1e200)

        audio = audio_io.read_wav(tiny_corpus[0].speakers[0].test_utterances[0])
        with on_the_one_worker():
            monkeypatch.setattr(sid_pipeline, name, huge)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                score_utterance(tiny_db, audio)


# Runs in a fresh interpreter: two identifies, then one enrollment. Prints
# a JSON record of the threads alive after the import and after each call,
# whether multiprocessing was loaded by then, the threads that extracted
# spectral features, the stream kind, process and thread of each training,
# the trainer's pid, and the modules the import of voxid loaded that a
# thread or process pool would bring. Each training appends a line to the
# file named by the last argument, since the trainer's memory is its own.
LIFECYCLE = """
import json, os, sys, threading
import voxid
from voxid import sid_pipeline

pools = ("concurrent.futures", "logging", "multiprocessing", "queue")
modules = sorted(m for m in pools if m in sys.modules)
record = {"modules": modules, "spectral": [], "after": [], "multiprocessing": []}
layer, train_gmm = sid_pipeline.fb_cepstra, sid_pipeline.gmm.train_gmm

def spectral(frames, settings):
    record["spectral"].append(threading.get_ident())
    return layer(frames, settings)

def train(features, config):
    with open(sys.argv[4], "a") as f:
        f.write(json.dumps([features.kind.value, os.getpid(), threading.get_ident()]) + "\\n")
    return train_gmm(features, config)

def others():
    record["multiprocessing"].append("multiprocessing" in sys.modules)
    return [t.ident for t in threading.enumerate() if t is not threading.main_thread()]

sid_pipeline.fb_cepstra = spectral
sid_pipeline.gmm.train_gmm = train
record["after"].append(others())
db = voxid.load_database(sys.argv[1])
for path in sys.argv[2:4]:
    voxid.identify(db, voxid.read_wav(path))
    record["after"].append(others())
manifest = sid_pipeline.CorpusManifest(
    (sid_pipeline.SpeakerEntry("solo", tuple(sys.argv[2:4]), ()),)
)
voxid.train_database(manifest, db.config)
record["after"].append(others())
record["main"] = [os.getpid(), threading.get_ident()]
record["trainer"] = sid_pipeline._trainer.process.pid
with open(sys.argv[4]) as f:
    record["train"] = sorted(json.loads(line) for line in f)
print(json.dumps(record))
"""

# Identifies in a fresh interpreter, forks, and scores the same utterance
# in the child; prints whether the child's scores are the parent's. A child
# that does not finish in 60 s is killed and reported.
FORKED = """
import os, pickle, signal, sys, tempfile, time
from voxid import load_database, read_wav
from voxid.sid_pipeline import identify, score_utterance

db, audio = load_database(sys.argv[1]), read_wav(sys.argv[2])
parent = identify(db, audio).scores
out = os.path.join(tempfile.mkdtemp(), "child.pickle")
pid = os.fork()
if pid == 0:
    with open(out, "wb") as f:
        pickle.dump(score_utterance(db, audio), f)
    os._exit(0)
deadline = time.monotonic() + 60.0
while os.waitpid(pid, os.WNOHANG) == (0, 0):
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the child hung")
    time.sleep(0.01)
with open(out, "rb") as f:
    print(pickle.load(f) == parent)
"""

# Identifies from an atexit handler, with or without a call before it, and
# prints the scores.
AT_EXIT = """
import atexit, json, sys
from voxid import load_database, read_wav
from voxid.sid_pipeline import identify

db, audio = load_database(sys.argv[1]), read_wav(sys.argv[2])
if sys.argv[3] == "after a call":
    identify(db, audio)

@atexit.register
def at_exit():
    scores = identify(db, audio).scores
    print(json.dumps([[s.speaker_id, s.spectral, s.residual] for s in scores]))
"""


@pytest.fixture(scope="module")
def tiny_db_path(tiny_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("worker") / "tiny.db"
    save_database(tiny_db, path)
    return path


def run_script(script: str, *args) -> str:
    """The standard output of script run in a fresh interpreter on voxid."""
    env = {**os.environ, "PYTHONPATH": str(Path(sid_pipeline.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStreamWorker:
    """Every two-stream call in a process hands its spectral stream to one
    worker thread, started on the first call."""

    def test_a_fresh_interpreter_keeps_one_worker(self, tiny_corpus, tiny_db_path, tmp_path):
        paths = tiny_corpus[0].speakers[0].test_utterances[:2]
        trainings = tmp_path / "trainings.jsonl"
        record = json.loads(run_script(LIFECYCLE, tiny_db_path, *paths, trainings))
        # The import starts no thread and loads no thread or process pool;
        # only the enrollment loads multiprocessing.
        assert record["modules"] == []
        assert record["multiprocessing"] == [False, False, False, True]
        assert record["after"][0] == []
        main_pid, main_thread = record["main"]
        (worker,) = record["after"][1]
        assert worker != main_thread
        assert record["after"] == [[], [worker], [worker], [worker]]
        # Two identifies and two enrolled utterances extract on the worker;
        # then the spectral model trains in the trainer process and the
        # residual one on the caller.
        assert record["spectral"] == [worker] * 4
        assert record["trainer"] != main_pid
        residual, spectral = record["train"]
        assert residual == ["ACRLAG", main_pid, main_thread]
        assert spectral[:2] == ["MFCC", record["trainer"]]

    def test_a_forked_child_scores_as_its_parent(self, tiny_corpus, tiny_db_path):
        path = tiny_corpus[0].speakers[1].test_utterances[0]
        assert run_script(FORKED, tiny_db_path, path) == "True\n"

    @pytest.mark.parametrize("when", ["first call", "after a call"])
    def test_a_call_at_interpreter_exit_completes(self, tiny_corpus, tiny_db, tiny_db_path, when):
        path = tiny_corpus[0].speakers[2].test_utterances[0]
        expected = serial_scores(tiny_db, audio_io.read_wav(path))
        scores = json.loads(run_script(AT_EXIT, tiny_db_path, path, when))
        assert tuple(SpeakerScores(*s) for s in scores) == expected

    def test_without_a_thread_both_streams_run_on_the_calling_thread(
        self, tiny_corpus, tiny_db, monkeypatch
    ):
        # As at interpreter shutdown from Python 3.12, where no thread starts.
        def refuse(thread):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        audio = audio_io.read_wav(tiny_corpus[0].speakers[0].test_utterances[1])
        monkeypatch.setattr(sid_pipeline, "_worker", None)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert score_utterance(tiny_db, audio) == serial_scores(tiny_db, audio)
        assert sid_pipeline._worker is None

    def test_concurrent_callers_get_the_serial_scores(self, tiny_corpus, tiny_db):
        paths = [p for entry in tiny_corpus[0].speakers for p in entry.test_utterances][:4]
        audios = [audio_io.read_wav(path) for path in paths]
        expected = [serial_scores(tiny_db, audio) for audio in audios]
        worker = sid_pipeline._stream_worker()
        start = threading.Barrier(len(audios))
        got: list = [None] * len(audios)

        def caller(i):
            start.wait()
            got[i] = [identify(tiny_db, audios[i]).scores for _ in range(3)]

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(audios))]
        # More callers than cores, switching as often as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert got == [[scores] * 3 for scores in expected]
        assert sid_pipeline._stream_worker() is worker
        assert set(threading.enumerate()) == {threading.main_thread(), worker.thread}


@contextmanager
def a_fresh_trainer():
    """Inside, the next enrollment forks a trainer of its own, which takes
    whatever is patched then; it is retired on the way out, and the
    process's trainer is back."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sid_pipeline, "_trainer", None)
        try:
            yield
        finally:
            if sid_pipeline._trainer is not None:
                sid_pipeline._retire(sid_pipeline._trainer)


def overflow_outside(pid: int):
    """gmm.train_gmm, but an overflow first in any process other than pid."""
    train_gmm = gmm.train_gmm

    def train(features, cfg):
        if os.getpid() != pid:
            np.array([1e308]) * 10.0
        return train_gmm(features, cfg)

    return train


# Enrolls in a fresh interpreter, forks, and enrolls again in the child,
# which leaves by sys.exit so that its exit handlers run; then the parent
# enrolls once more. Prints whether every database equals the first, the
# child's exit status, the trainer pids of the parent before and after and
# of the child, and whether the child's trainer is gone.
FORKED_TRAINER = """
import json, os, sys
from voxid import sid_pipeline
from voxid.gmm import TrainConfig
from voxid.sid_pipeline import (
    CorpusManifest, PipelineConfig, SpeakerEntry, database_to_bytes, train_database,
)

manifest = CorpusManifest((SpeakerEntry("solo", tuple(sys.argv[1:3]), ()),))
config = PipelineConfig(train=TrainConfig(n_components=2))

def enroll():
    return database_to_bytes(train_database(manifest, config))

expected = enroll()
record = {"parent": sid_pipeline._trainer.process.pid}
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    os.close(read_end)
    same = enroll() == expected
    os.write(write_end, json.dumps([same, sid_pipeline._trainer.process.pid]).encode())
    sys.exit(0)
os.close(write_end)
with os.fdopen(read_end) as f:
    record["child_same"], record["child"] = json.loads(f.read())
record["status"] = os.waitpid(pid, 0)[1]
try:
    os.kill(record["child"], 0)
    record["child_trainer_gone"] = False
except ProcessLookupError:
    record["child_trainer_gone"] = True
record["again_same"] = enroll() == expected
record["after"] = sid_pipeline._trainer.process.pid
print(json.dumps(record))
"""


class TestSpectralTrainer:
    """Each enrollment trains its spectral stream's models in one forked
    process per process, started by the first enrollment, and gives the
    models of a training on the calling thread."""

    def test_a_trainer_killed_between_enrollments_is_replaced(self, tiny_corpus):
        manifest = one_speaker(tiny_corpus[0], 2)
        expected = database_to_bytes(train_database(manifest, TINY_TRAIN))
        killed = sid_pipeline._trainer.process
        os.kill(killed.pid, signal.SIGKILL)
        killed.join(timeout=10.0)
        assert database_to_bytes(train_database(manifest, TINY_TRAIN)) == expected
        assert sid_pipeline._trainer.process.pid != killed.pid
        assert sid_pipeline._trainer.usable

    def test_a_trainer_that_dies_training_leaves_the_speaker_to_the_caller(
        self, tiny_corpus, monkeypatch
    ):
        manifest = one_speaker(tiny_corpus[0], 2)
        expected = database_to_bytes(train_database(manifest, TINY_TRAIN))
        train_gmm, parent = gmm.train_gmm, os.getpid()

        def die_outside(features, cfg):
            if os.getpid() != parent:
                os._exit(1)
            return train_gmm(features, cfg)

        with a_fresh_trainer():
            monkeypatch.setattr(gmm, "train_gmm", die_outside)
            assert database_to_bytes(train_database(manifest, TINY_TRAIN)) == expected
            assert sid_pipeline._trainer is None

    def test_an_interrupt_waits_for_the_trainers_reply(self, tiny_corpus, monkeypatch):
        # The next call enrolls another speaker: a stale reply would hand it
        # the interrupted speaker's spectral model.
        interrupted = one_speaker(tiny_corpus[0], 2)
        other = CorpusManifest((tiny_corpus[0].speakers[2],))
        expected = database_to_bytes(train_database(other, TINY_TRAIN))
        trainer = sid_pipeline._trainer
        replies, result = [], sid_pipeline._Trainer.result

        def recorded(self):
            replies.append(result(self))
            return replies[-1]

        def interrupt(features, cfg):
            raise KeyboardInterrupt

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sid_pipeline._Trainer, "result", recorded)
            patch.setattr(gmm, "train_gmm", interrupt)
            with pytest.raises(KeyboardInterrupt):
                train_database(interrupted, TINY_TRAIN)
        assert [type(reply) for reply in replies] == [GmmModel]
        assert sid_pipeline._trainer is trainer and trainer.usable
        assert database_to_bytes(train_database(other, TINY_TRAIN)) == expected

    def test_an_interrupt_while_sending_retires_the_trainer(self, tiny_corpus):
        # Half a request stays in the pipe; the next call, for another
        # speaker, must not send its own request after it.
        other = CorpusManifest((tiny_corpus[0].speakers[2],))
        expected = database_to_bytes(train_database(other, TINY_TRAIN))
        trainer = sid_pipeline._trainer

        def half_sent(request):
            payload = pickle.dumps(request)
            os.write(
                trainer.conn.fileno(),
                struct.pack("!i", len(payload)) + payload[: len(payload) // 2],
            )
            raise KeyboardInterrupt

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer.conn, "send", half_sent)
            with pytest.raises(KeyboardInterrupt):
                train_database(one_speaker(tiny_corpus[0], 2), TINY_TRAIN)
        assert sid_pipeline._trainer is None and not trainer.usable
        assert database_to_bytes(train_database(other, TINY_TRAIN)) == expected
        assert sid_pipeline._trainer is not trainer and sid_pipeline._trainer.usable

    def test_an_interrupt_before_the_callers_training_retires_the_trainer(self, tiny_corpus):
        # The request went out whole, and the reply is never read: the next
        # call, for another speaker, would read it as its own.
        other = CorpusManifest((tiny_corpus[0].speakers[2],))
        expected = database_to_bytes(train_database(other, TINY_TRAIN))
        trainer, outcome = sid_pipeline._trainer, sid_pipeline._outcome

        def interrupted_before_training(task, stream):
            if isinstance(stream, FeatureMatrix):
                raise KeyboardInterrupt
            return outcome(task, stream)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sid_pipeline, "_outcome", interrupted_before_training)
            with pytest.raises(KeyboardInterrupt):
                train_database(one_speaker(tiny_corpus[0], 2), TINY_TRAIN)
        assert sid_pipeline._trainer is None and not trainer.usable
        assert database_to_bytes(train_database(other, TINY_TRAIN)) == expected
        assert sid_pipeline._trainer is not trainer and sid_pipeline._trainer.usable

    def test_callers_errstate_holds_in_the_trainer(self, tiny_corpus, monkeypatch):
        with a_fresh_trainer():
            monkeypatch.setattr(gmm, "train_gmm", overflow_outside(os.getpid()))
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                train_database(one_speaker(tiny_corpus[0], 1), TINY_TRAIN)
            assert sid_pipeline._trainer.usable

    def test_callers_warning_filters_hold_for_the_trainers_warnings(
        self, tiny_corpus, monkeypatch
    ):
        manifest = one_speaker(tiny_corpus[0], 1)
        expected = database_to_bytes(train_database(manifest, TINY_TRAIN))
        with a_fresh_trainer():
            monkeypatch.setattr(gmm, "train_gmm", overflow_outside(os.getpid()))
            with warnings.catch_warnings(), np.errstate(over="warn"):
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="^overflow encountered in multiply$"):
                    train_database(manifest, TINY_TRAIN)
            with warnings.catch_warnings(record=True) as met, np.errstate(over="warn"):
                warnings.simplefilter("always")
                assert database_to_bytes(train_database(manifest, TINY_TRAIN)) == expected
            assert [(w.category, str(w.message), w.filename) for w in met] == [
                (RuntimeWarning, "overflow encountered in multiply", __file__)
            ]
            assert sid_pipeline._trainer.usable

    @pytest.mark.parametrize("why", ["no process starts", "no Linux fork", "errstate calls"])
    def test_without_a_trainer_both_streams_train_through_map_streams(
        self, tiny_corpus, monkeypatch, why
    ):
        manifest = one_speaker(tiny_corpus[0], 2)
        expected = database_to_bytes(train_database(manifest, TINY_TRAIN))
        calls, map_streams = [], sid_pipeline._map_streams

        def counted(task, streams):
            calls.append("train" if isinstance(streams[0], FeatureMatrix) else "extract")
            return map_streams(task, streams)

        def refuse():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        errstate = np.errstate()
        with a_fresh_trainer():
            monkeypatch.setattr(sid_pipeline, "_map_streams", counted)
            if why == "no process starts":
                monkeypatch.setattr(os, "fork", refuse)
            elif why == "no Linux fork":
                monkeypatch.setattr(sys, "platform", "darwin")
            else:  # a function the trainer does not have
                errstate = np.errstate(over="call", call=lambda kind, flag: None)
            with errstate:
                assert database_to_bytes(train_database(manifest, TINY_TRAIN)) == expected
            assert (sid_pipeline._trainer is None) == (why != "errstate calls")
        assert calls == ["extract", "extract", "train"]

    def test_a_forked_child_enrolls_through_a_trainer_of_its_own(self, tiny_corpus):
        paths = tiny_corpus[0].speakers[1].train_utterances[:2]
        record = json.loads(run_script(FORKED_TRAINER, *paths))
        assert record["child_same"] and record["again_same"]
        assert record["status"] == 0
        assert record["child"] != record["parent"] == record["after"]
        assert record["child_trainer_gone"]


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

        with on_the_one_worker():
            # Either stream's NoFeatures leaves the decision to the other one.
            for name, off, on in (
                ("extract_acrlag", "residual", "spectral"),
                ("fb_cepstra", "spectral", "residual"),
            ):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(sid_pipeline, name, raising(NoFeatures))
                    scores = score_utterance(tiny_db, audio)
                    assert [getattr(s, on) for s in scores] == [getattr(s, on) for s in expected]
                    assert all(getattr(s, off) is None for s in scores)
                    result = identify(tiny_db, audio)
                    assert result.fused_winner == getattr(result, f"{on}_winner")
                    assert getattr(result, f"{off}_winner") is None
            monkeypatch.setattr(sid_pipeline, "extract_acrlag", raising(NoFeatures))
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
        # 40 decoys put every enrolled speaker's models in a block with
        # others, across three blocks of products.
        wide = with_decoys(tiny_db, 40)
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
        wav = Path(entry.test_utterances[0]).read_bytes()
        cut, oversized = tmp_path / "cut.wav", tmp_path / "oversized_chunk.wav"
        cut.write_bytes(wav[:-1])
        oversized.write_bytes(with_oversized_chunk(wav))
        manifest = CorpusManifest((replace(entry, test_utterances=(str(cut), str(oversized))),))
        trials = score_manifest(tiny_db, manifest)
        assert [trial.failed for trial in trials] == [True, True]
        assert "cut.wav: data chunk truncated" in trials[0].error
        assert trials[1].error == f"{oversized}: a chunk runs past the end of the RIFF chunk"

    def test_directory_is_a_failed_trial(self, tiny_corpus, tiny_db, tmp_path):
        manifest, _ = tiny_corpus
        folder = tmp_path / "folder.wav"
        folder.mkdir()
        entry = manifest.speakers[0]
        manifest = CorpusManifest(
            (replace(entry, test_utterances=entry.test_utterances + (str(folder),)),)
        )
        report = evaluate(tiny_db, manifest)
        assert report.n_failed == 1
        (failed,) = [trial for trial in report.trials if trial.error is not None]
        assert failed.utterance == str(folder)
        assert failed.error.startswith(f"{folder}: cannot be read")

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
            (
                lambda blob, db: with_overflowing_row_sum(blob, db.spectral_models["spk01"]),
                "speaker spk01, spectral model: -0.5 / var",
            ),
        ],
        ids=["variance", "truncated", "magic", "row sum"],
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

    @pytest.mark.parametrize(
        "edits, frame_len",
        [
            (
                [
                    ('"frame_len_samples": 160, "hop_samples": 80',
                     '"frame_len_samples": 1024, "hop_samples": 512'),
                    ('"fft_size": 512', '"fft_size": 1024'),
                ],
                1024,
            ),
            (
                [
                    ('"frame_len_samples": 160, "hop_samples": 80',
                     '"frame_len_samples": 16, "hop_samples": 8'),
                    ('"lp_order": 13', '"lp_order": 10'),
                ],
                16,
            ),
        ],
        ids=["frames-of-1024", "frames-of-16"],
    )
    def test_header_with_long_or_short_frames_loads(self, tiny_db, edits, frame_len):
        # PLPCC at 512 points fits neither header's frames, nor an order-19
        # LPCC, LSF or LAR fit the second's; no stream reads either kind.
        header = V1_CONFIG_JSON
        for old, new in edits:
            header = header.replace(old, new)
        db = database_from_bytes(with_config_json(database_to_bytes(tiny_db), header))
        assert db.config.frame.frame_len_samples == frame_len
        assert database_from_bytes(database_to_bytes(db)).config == db.config

    @pytest.mark.parametrize("section", ["plp", "lp_transform"])
    def test_header_with_an_extract_only_section_rejected(self, tiny_db, section):
        # The sections of the extract-only kinds are gone: a header naming
        # one, even empty, is refused as it would be by --config.
        header = V1_CONFIG_JSON.replace('"score_average"', f'"{section}": {{}}, "score_average"')
        blob = with_config_json(database_to_bytes(tiny_db), header)
        with pytest.raises(BadFileFormat, match=f"^unknown config key '{section}'$"):
            database_from_bytes(blob)

    def test_header_holds_the_whole_config(self, tiny_db):
        blob = database_to_bytes(tiny_db)
        (length,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + length])
        assert header == json.loads(json.dumps(asdict(tiny_db.config)))
        assert list(header) == sorted(f.name for f in fields(PipelineConfig))

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

    def test_header_with_too_many_filters_rejected_without_building_them(
        self, tiny_db, monkeypatch
    ):
        def build_filterbank(cfg):
            raise AssertionError("the filterbank was built")

        blob = with_config_json(
            database_to_bytes(tiny_db),
            V1_CONFIG_JSON.replace('"n_filters": 20', f'"n_filters": {10**9}'),
        )
        monkeypatch.setattr(spectral, "build_filterbank", build_filterbank)
        tracemalloc.start()
        try:
            with pytest.raises(
                BadFileFormat,
                match="^config key 'filterbank': filter 0 covers fewer than 2 of the 257 FFT bins",
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


# Settings that each extractor reading a section sees away from its defaults.
OTHER_SECTIONS = PipelineConfig(
    acrlag=AcrlagConfig(lp_order=10, max_lag=6),
    filterbank=FilterbankConfig(n_filters=24, n_cep=12, f_low_hz=100.0, fft_size=1024),
)


@pytest.mark.parametrize("kind", list(FeatureKind), ids=lambda kind: kind.value)
def test_each_extractor_reads_its_settings_from_the_config(speech_frames, kind):
    # Every entry is called as extract(frames, config); PLPCC takes the
    # filterbank's FFT size, and LPCC, LSF and LAR read no setting.
    fb = OTHER_SECTIONS.filterbank
    direct = {
        FeatureKind.ACRLAG: lambda: extract_acrlag(speech_frames, OTHER_SECTIONS.acrlag),
        FeatureKind.MFCC: lambda: fb_cepstra(speech_frames, fb),
        FeatureKind.LFCC: lambda: fb_cepstra(speech_frames, replace(fb, scale="hertz")),
        FeatureKind.PLPCC: lambda: plpcc(speech_frames, 1024),
    }.get(kind, lambda: extract_lp_features(speech_frames, kind))()
    extract = sid_pipeline.EXTRACTORS[kind]
    got = extract(speech_frames, OTHER_SECTIONS)
    assert got.kind is kind
    assert got.values.tobytes() == direct.values.tobytes()
    at_defaults = extract(speech_frames, PipelineConfig()).values
    reads_a_setting = kind not in (FeatureKind.LPCC, FeatureKind.LSF, FeatureKind.LAR)
    assert reads_a_setting == (at_defaults.tobytes() != got.values.tobytes())


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
            ({"filterbank": {"f_low_hz": True}}, "filterbank.f_low_hz"),
            ({"frame": {"preemphasis": False}}, "frame.preemphasis"),
        ],
    )
    def test_bad_config_names_the_key(self, doc, key):
        with pytest.raises(BadFileFormat, match=key):
            PipelineConfig.from_json_dict(doc)

    def test_not_an_object(self):
        with pytest.raises(BadFileFormat, match="object"):
            PipelineConfig.from_json_dict([])

    @pytest.mark.parametrize(
        "sections, reason",
        [
            (
                {"frame": FrameConfig(frame_len_samples=1024, hop_samples=512)},
                "config key 'frame.frame_len_samples': frames of 1024 samples "
                "do not fit a 512-point FFT (filterbank.fft_size)",
            ),
            (
                {"frame": FrameConfig(frame_len_samples=12, hop_samples=6)},
                "config key 'acrlag.lp_order': 13 needs frames longer than 12 samples "
                "(frame.frame_len_samples)",
            ),
            (
                {
                    "frame": FrameConfig(frame_len_samples=12, hop_samples=6),
                    "acrlag": AcrlagConfig(lp_order=10, max_lag=12),
                },
                "config key 'acrlag.max_lag': 12 needs frames longer than 12 samples "
                "(frame.frame_len_samples)",
            ),
        ],
        ids=["frames-above-the-fft", "frames-within-the-lp-order", "frames-within-the-lag"],
    )
    def test_a_config_built_in_python_obeys_the_cross_section_rules(self, sections, reason):
        # The constructor holds every rule across sections, so Python and
        # --config refuse the same settings with the same words.
        doc = {name: asdict(section) for name, section in sections.items()}
        with pytest.raises(BadFileFormat, match=f"^{re.escape(reason)}$"):
            PipelineConfig.from_json_dict(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            PipelineConfig(**sections)

    @pytest.mark.parametrize(
        "doc",
        [
            {"plp": {}},
            {"plp": {"model_order": 12, "n_cep": 8, "fft_size": 256}},
            {"lp_transform": {}},
            {"lp_transform": {"order": 12}},
        ],
        ids=["plp-empty", "plp", "lp_transform-empty", "lp_transform"],
    )
    def test_removed_sections_are_unknown_keys(self, doc):
        # PLPCC, LPCC, LSF and LAR have no settings of their own.
        (section,) = doc
        with pytest.raises(BadFileFormat, match=f"^unknown config key '{section}'$"):
            PipelineConfig.from_json_dict({"train": {"n_components": 2}, **doc})

    def test_old_seed_and_score_average_false_are_accepted(self):
        doc = {"score_average": False, "train": {"seed": 7, "n_components": 4}}
        assert PipelineConfig.from_json_dict(doc) == PipelineConfig(
            train=TrainConfig(n_components=4)
        )

    @pytest.mark.parametrize(
        "doc, build",
        [
            ({"filterbank": {"n_filters": 20.0}}, lambda: FilterbankConfig(n_filters=20.0)),
            ({"filterbank": {"n_cep": 12.0}}, lambda: FilterbankConfig(n_cep=12.0)),
            ({"train": {"em_iterations": True}}, lambda: TrainConfig(em_iterations=True)),
            ({"frame": {"hop_samples": 80.0}}, lambda: FrameConfig(hop_samples=80.0)),
            ({"acrlag": {"lp_order": 13.0}}, lambda: AcrlagConfig(lp_order=13.0)),
        ],
    )
    def test_a_config_built_in_python_obeys_the_json_type_rule(self, doc, build):
        # Else it would train a database that load_database refuses.
        with pytest.raises(BadFileFormat) as from_json:
            PipelineConfig.from_json_dict(doc)
        (name,) = doc
        with pytest.raises(TypeError, match=f"^{re.escape(str(from_json.value))}$"):
            PipelineConfig(**{name: build()})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("frame", "hop_samples", 80.0),
            ("frame", "preemphasis", False),
            ("acrlag", "lp_order", 13.0),
            ("acrlag", "max_lag", True),
            ("filterbank", "n_filters", 20.0),
            ("filterbank", "scale", True),
            ("filterbank", "f_high_hz", "4000"),
            ("filterbank", "fft_size", True),
            ("frame", "frame_len_samples", 160.0),
            ("train", "n_components", 8.0),
            ("train", "em_iterations", 10.0),
            ("train", "variance_floor_ratio", None),
        ],
    )
    def test_a_section_built_alone_obeys_the_json_type_rule(self, section, key, value):
        # Refused when built, before any extractor or training reads it.
        with pytest.raises(BadFileFormat) as from_json:
            PipelineConfig.from_json_dict({section: {key: value}})
        with pytest.raises(TypeError, match=f"^{re.escape(str(from_json.value))}$"):
            type(getattr(PipelineConfig(), section))(**{key: value})

    @pytest.mark.parametrize(
        "build, section, key",
        [
            (lambda: TrainConfig(n_components=np.int64(8)), "train", "n_components"),
            (lambda: AcrlagConfig(max_lag=np.int32(12)), "acrlag", "max_lag"),
        ],
    )
    def test_a_numpy_integer_is_no_integer_setting(self, build, section, key):
        with pytest.raises(TypeError, match=f"^config key '{section}.{key}' must be an integer"):
            build()

    @pytest.mark.parametrize(
        "build, section, key",
        [
            (lambda: FrameConfig(preemphasis=0), "frame", "preemphasis"),
            (
                lambda: FrameConfig(energy_threshold_ratio=np.float32(0.25)),
                "frame",
                "energy_threshold_ratio",
            ),
            (lambda: FilterbankConfig(f_low_hz=np.int64(100)), "filterbank", "f_low_hz"),
            (
                lambda: TrainConfig(variance_floor_ratio=Fraction(1, 1000)),
                "train",
                "variance_floor_ratio",
            ),
        ],
    )
    def test_a_real_number_for_a_float_setting_is_stored_as_a_float(self, build, section, key):
        built = build()
        assert type(getattr(built, key)) is float
        assert PipelineConfig(**{section: built}) == PipelineConfig.from_json_dict(
            {section: {key: getattr(built, key)}}
        )

    @pytest.mark.parametrize(
        "section, key, as_int", [("filterbank", "f_high_hz", 4000), ("frame", "preemphasis", 0)]
    )
    def test_an_int_for_a_float_setting_writes_the_floats_header(
        self, tiny_corpus, section, key, as_int
    ):
        manifest = one_speaker(tiny_corpus[0], 2)

        def blob(value):
            doc = {section: {key: value}, "train": {"n_components": 2}}
            return database_to_bytes(train_database(manifest, PipelineConfig.from_json_dict(doc)))

        assert blob(as_int) == blob(float(as_int))


# Values that a --config document may give each frame, filterbank, acrlag
# and train key.  They fit the defaults and each other; an edge of
# CONFIG_EDGES then takes the document past one limit that --config was
# once found not to check.
CONFIG_SPACE = {
    "frame": {
        "frame_len_samples": st.integers(80, 512),
        "hop_samples": st.integers(16, 80),
        "preemphasis": st.floats(0, 0.999),
        "energy_threshold_ratio": st.floats(1e-6, 0.99),
    },
    "filterbank": {
        "n_filters": st.integers(20, 40),
        "scale": st.sampled_from(["mel", "hertz"]),
        "f_low_hz": st.floats(0, 300),
        "f_high_hz": st.none() | st.floats(3000, 4000),
        "n_cep": st.integers(1, 19),
        "fft_size": st.sampled_from([512, 1024, 2048]),
    },
    "acrlag": {"lp_order": st.integers(1, 40), "max_lag": st.integers(0, 30)},
    "train": {
        "n_components": st.sampled_from(gmm.ALLOWED_COMPONENT_COUNTS),
        "em_iterations": st.integers(1, 3),
        "variance_floor_ratio": st.floats(1e-6, 0.5),
    },
}
CONFIG_KEYS = [(section, key) for section, keys in CONFIG_SPACE.items() for key in keys]
DEFAULT_CONFIG = PipelineConfig()


def test_config_space_holds_every_setting():
    # The property below may draw any key of any section of PipelineConfig.
    assert {section: set(keys) for section, keys in CONFIG_SPACE.items()} == {
        section.name: {f.name for f in fields(getattr(DEFAULT_CONFIG, section.name))}
        for section in fields(PipelineConfig)
    }


def given_or_default(doc: dict, section: str, key: str):
    return doc.get(section, {}).get(key, getattr(getattr(DEFAULT_CONFIG, section), key))


INTEGER_KEYS = [(s, k) for s, k in CONFIG_KEYS if type(given_or_default({}, s, k)) is int]
# f_high_hz's default, None, means the Nyquist frequency.
FLOAT_KEYS = [
    (s, k) for s, k in CONFIG_KEYS if type(given_or_default({}, s, k)) in (float, type(None))
]


def wrongly_typed(doc: dict) -> set[tuple[str, str]]:
    """The keys of a document whose JSON value is not of their setting's
    type: a boolean anywhere, a non-integer for an integer, or a non-number
    for a float (null only for f_high_hz)."""
    return {
        (section, key)
        for section, values in doc.items()
        for key, value in values.items()
        if isinstance(value, bool)
        or ((section, key) in INTEGER_KEYS and type(value) is not int)
        or (
            (section, key) in FLOAT_KEYS
            and not isinstance(value, (int, float))
            and not (value is None and key == "f_high_hz")
        )
    }


def wide_stream(draw, doc: dict) -> None:
    """Features of dimension 32 or more, where stacked scores are not exact."""
    if draw(st.booleans()):
        doc.setdefault("acrlag", {})["max_lag"] = draw(st.integers(31, 40))
    else:
        n_cep = draw(st.integers(32, 40))
        n_filters = n_cep + draw(st.integers(1, 8))
        doc.setdefault("filterbank", {}).update(n_cep=n_cep, n_filters=n_filters)


def huge_fft(draw, doc: dict) -> None:
    """Its (20, 2**29 + 1) filterbank would take 86 GB."""
    doc.setdefault("filterbank", {})["fft_size"] = 2**30


def frames_longer_than_the_fft(draw, doc: dict) -> None:
    """A 256-point FFT, which every filterbank of CONFIG_SPACE fits."""
    doc.setdefault("filterbank", {})["fft_size"] = 256
    doc.setdefault("frame", {})["frame_len_samples"] = draw(st.integers(257, 512))


def filterbank_too_dense(draw, doc: dict) -> None:
    """At least as many filters as FFT bins: some filter covers fewer than 2."""
    bins = given_or_default(doc, "filterbank", "fft_size") // 2 + 1
    doc.setdefault("filterbank", {})["n_filters"] = draw(st.integers(bins, 2 * bins))


def lp_order_not_shorter_than_a_frame(draw, doc: dict) -> None:
    frame_len = given_or_default(doc, "frame", "frame_len_samples")
    doc.setdefault("acrlag", {})["lp_order"] = draw(st.integers(frame_len, frame_len + 64))


def integers_as_floats(draw, doc: dict) -> None:
    """JSON 80.0 equals 80, but is no integer: one integer setting, and any
    other that the document gives, as floats."""
    section, key = draw(st.sampled_from(INTEGER_KEYS))
    doc.setdefault(section, {})[key] = given_or_default(doc, section, key)
    for section, key in INTEGER_KEYS:
        if key in doc.get(section, {}):
            doc[section][key] = float(doc[section][key])


def boolean_as_number(draw, doc: dict) -> None:
    """JSON false equals 0.0 and true 1.0, and these settings take those
    values, but no setting takes a boolean."""
    section, key, value = draw(
        st.sampled_from(
            [("frame", "preemphasis", False), ("filterbank", "f_low_hz", False),
             ("filterbank", "f_low_hz", True)]
        )
    )
    doc.setdefault(section, {})[key] = value


def non_number_for_a_float(draw, doc: dict) -> None:
    """A string, even one that float() reads, null or a list for a float
    setting: none is a number, and null means the Nyquist frequency for
    f_high_hz alone."""
    section, key = draw(st.sampled_from(FLOAT_KEYS))
    values = ["0.5", "x", [0.5]] + ([] if key == "f_high_hz" else [None])
    doc.setdefault(section, {})[key] = draw(st.sampled_from(values))


CONFIG_EDGES = [
    None,
    wide_stream,
    huge_fft,
    frames_longer_than_the_fft,
    filterbank_too_dense,
    lp_order_not_shorter_than_a_frame,
    integers_as_floats,
    boolean_as_number,
    non_number_for_a_float,
]


@st.composite
def config_documents(draw) -> dict:
    """A --config document: up to three keys of CONFIG_SPACE, then at most
    one edge of CONFIG_EDGES."""
    doc = {}
    for section, key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3, unique=True)):
        doc.setdefault(section, {})[key] = draw(CONFIG_SPACE[section][key])
    edge = draw(st.sampled_from(CONFIG_EDGES))
    if edge is not None:
        edge(draw, doc)
    return doc


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """Three speakers with one train and one test utterance of 1.5 s each."""
    root = tmp_path_factory.mktemp("short_corpus")
    manifest, _ = synth_corpus(
        root, n_speakers=3, train_utterances=1, test_utterances=1,
        train_seconds=1.5, test_seconds=1.5, seed=5,
    )
    return manifest, root


@settings(max_examples=50, deadline=None)
@given(doc=config_documents())
def test_a_config_is_refused_by_key_or_runs_end_to_end(short_corpus, doc):
    # Read as --config is read: a refused document gets an error that names
    # the file and a config key, and a key of the wrong type when it holds
    # one.  An accepted one holds no key of the wrong type, keeps each float
    # setting as a float, has every filter cover two FFT bins, trains,
    # loads bit-exact and identifies, each speaker scoring as its models
    # alone; its only error may be that 1.5 s of audio holds too few frames
    # for its mixtures.
    manifest, root = short_corpus
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    wrong = wrongly_typed(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = _load_config(str(path))
        except BadFileFormat as exc:
            keyed = re.match(rf"{re.escape(str(path))}: config key '(\w+)\.?(\w*)'", str(exc))
            assert keyed, exc
            section, key = keyed.groups()
            assert key in ("", *CONFIG_SPACE[section]), exc
            assert not wrong or (section, key) in wrong, exc
            return
        assert not wrong, doc
        for section, values in doc.items():
            for key in values:
                held = getattr(getattr(config, section), key)
                assert not isinstance(held, bool)
                assert (section, key) not in INTEGER_KEYS or type(held) is int
                assert (section, key) not in FLOAT_KEYS or held is None or type(held) is float
        assert (np.count_nonzero(config.filterbank.filterbank, axis=1) >= 2).all()
        try:
            db = train_database(manifest, config)
        except InsufficientData:
            return
        save_database(db, root / "config.db")
        loaded = load_database(root / "config.db")
        assert database_to_bytes(loaded) == database_to_bytes(db)
        for entry in manifest.speakers:
            for wav in entry.train_utterances + entry.test_utterances:
                audio = audio_io.read_wav(wav)
                result = identify(loaded, audio)
                for sid, scores in zip(loaded.speaker_ids, result.scores):
                    models = (loaded.spectral_models[sid], loaded.residual_models[sid])
                    alone = SpeakerDatabase(config, (sid,), *({sid: model} for model in models))
                    assert score_utterance(alone, audio) == (scores,)


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
