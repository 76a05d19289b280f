import json
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voxid import audio_io
from voxid.acrlag import AcrlagConfig
from voxid.errors import BadFileFormat, InsufficientData
from voxid.gmm import TrainConfig
from voxid.sid_pipeline import (
    CorpusManifest,
    FusionConfig,
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
from voxid.spectral import FilterbankConfig

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
