import json
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import voxid
from tests.conftest import NON_INTEGER_CONFIGS, with_denormal_variance
from voxid import audio_io
from voxid.acrlag import AcrlagConfig, extract_acrlag
from voxid.cli import _load_config, build_parser, main
from voxid.errors import BadFileFormat
from voxid.features import FeatureKind, export_csv
from voxid.sid_pipeline import PipelineConfig, load_database, load_manifest
from voxid.signal_prep import AudioSignal, FrameConfig, preprocess
from voxid.spectral import (
    FilterbankConfig,
    FrequencyScale,
    extract_lp_features,
    fb_cepstra,
    plpcc,
)

# What `voxid extract --kind K` computes with no --config.
LIBRARY_EXTRACTORS = {
    "acrlag": extract_acrlag,
    "mfcc": lambda frames: fb_cepstra(frames, FilterbankConfig(scale=FrequencyScale.MEL)),
    "lfcc": lambda frames: fb_cepstra(frames, FilterbankConfig(scale=FrequencyScale.HERTZ)),
    "plpcc": lambda frames: plpcc(frames, 512),
    "lpcc": lambda frames: extract_lp_features(frames, FeatureKind.LPCC),
    "lsf": lambda frames: extract_lp_features(frames, FeatureKind.LSF),
    "lar": lambda frames: extract_lp_features(frames, FeatureKind.LAR),
}


def csv_bytes(matrix, path: Path) -> bytes:
    """The bytes of the CSV that `voxid extract --out` writes for matrix."""
    export_csv(matrix, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    code = main(
        [
            "synth-corpus",
            "--out",
            str(root),
            "--speakers",
            "3",
            "--train-utterances",
            "3",
            "--test-utterances",
            "2",
            "--train-seconds",
            "2.5",
            "--test-seconds",
            "2.0",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return root


# Every --config key whose default is a float, or None (the Nyquist
# frequency, for f_high_hz): each takes a JSON number.
DEFAULT_CONFIG = PipelineConfig()
FLOAT_KEYS = [
    (section.name, setting.name)
    for section in fields(DEFAULT_CONFIG)
    for setting in fields(getattr(DEFAULT_CONFIG, section.name))
    if type(getattr(getattr(DEFAULT_CONFIG, section.name), setting.name)) in (float, type(None))
]


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def train_m2(corpus: Path, out: Path) -> int:
    """`voxid train` with two components per model, set through --config."""
    config = write_config(out.with_suffix(".json"), {"train": {"n_components": 2}})
    manifest = str(corpus / "manifest.json")
    return main(["train", "--manifest", manifest, "--out", str(out), "--config", config])


@pytest.fixture(scope="module")
def cli_db(cli_corpus, tmp_path_factory):
    db_path = tmp_path_factory.mktemp("cli_db") / "speakers.db"
    assert train_m2(cli_corpus, db_path) == 0
    return db_path


def test_import_does_not_load_scipy():
    # SciPy is a test-only dependency: neither importing voxid nor running
    # any of its stages, corpus synthesis included, may load it.
    code = (
        "import sys, tempfile, voxid, voxid.cli\n"
        "from voxid import PipelineConfig, identify, read_wav, synth_corpus, train_database\n"
        "from voxid.gmm import TrainConfig\n"
        "from voxid.sid_pipeline import EXTRACTORS\n"
        "from voxid.signal_prep import preprocess\n"
        "with tempfile.TemporaryDirectory() as root:\n"
        "    manifest, _ = synth_corpus(root, 2, 2, 1, 1.0, 1.0, seed=0)\n"
        "    config = PipelineConfig(train=TrainConfig(n_components=2))\n"
        "    db = train_database(manifest, config)\n"
        "    audio = read_wav(manifest.speakers[0].test_utterances[0])\n"
        "    identify(db, audio)\n"
        "    frames = preprocess(audio, config.frame)\n"
        "    for extract in EXTRACTORS.values():\n"
        "        extract(frames, config)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(voxid.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


# What the README's Python API example and the benchmark take from the
# package root, and the functions the benchmark's tracer patches on its
# submodules.
PACKAGE_ROOT_NAMES = [
    "FusionConfig", "PipelineConfig", "evaluate", "identify", "load_manifest", "read_wav",
    "synth_corpus", "train_database", "load_database", "GmmModel", "VoxidError",
    "__version__", "audio_io.read_wav", "signal_prep.remove_silence",
    "sid_pipeline.preprocess", "sid_pipeline.fb_cepstra", "sid_pipeline.extract_acrlag",
    "sid_pipeline.score_utterance", "gmm.lbg_init", "gmm.em_fit",
]


def test_package_root_provides_what_callers_take_from_it():
    # A fresh interpreter, so no other test's import supplies a submodule.
    code = (
        "import functools, voxid\n"
        "def missing(name):\n"
        "    try:\n"
        "        functools.reduce(getattr, name.split('.'), voxid)\n"
        "    except AttributeError:\n"
        "        return True\n"
        f"print([name for name in {PACKAGE_ROOT_NAMES!r} if missing(name)])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(voxid.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "load", [load_manifest, load_database, _load_config], ids=["manifest", "database", "config"]
)
@pytest.mark.parametrize(
    "name, strerror", [("missing.bin", "No such file or directory"), (".", "Is a directory")]
)
def test_unreadable_path_is_bad_file_format(tmp_path, load, name, strerror):
    path = tmp_path / name
    with pytest.raises(BadFileFormat, match=f"^{re.escape(f'{path}: cannot be read ({strerror})')}$"):
        load(str(path))


def test_truncated_database_error_starts_with_its_path(cli_db, tmp_path):
    # A database is loaded beside a manifest: the error says which file failed.
    path = tmp_path / "truncated.db"
    path.write_bytes(cli_db.read_bytes()[:300])
    with pytest.raises(BadFileFormat, match=f"^{re.escape(f'{path}: database truncated: ')}"):
        load_database(path)


class TestSynthCorpus:
    def test_layout(self, cli_corpus):
        assert (cli_corpus / "manifest.json").exists()
        wavs = sorted(p.name for p in (cli_corpus / "spk00").iterdir())
        assert wavs == [
            "test_00.wav",
            "test_01.wav",
            "train_00.wav",
            "train_01.wav",
            "train_02.wav",
        ]

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--train-utterances", "-2", "train_utterances must not be negative, got -2"),
            ("--test-utterances", "-1", "test_utterances must not be negative, got -1"),
            ("--seed", "-1", "seed must not be negative, got -1"),
            ("--train-seconds", "nan", "train_seconds must be finite and at most 60 s, got nan"),
            ("--train-seconds", "inf", "train_seconds must be finite and at most 60 s, got inf"),
            ("--test-seconds", "1e12", "test_seconds must be finite and at most 60 s"),
            ("--test-seconds", "0.5", "test_seconds: 0.5 s leaves no room for speech"),
            (
                "--speakers",
                "26",
                "cannot assign 26 distinct pitch periods: at most 25 speakers, "
                "from 23 periods of 40-62 samples plus the two twins",
            ),
        ],
    )
    def test_bad_arguments_refused_before_writing(self, tmp_path, capsys, flag, value, reason):
        out = tmp_path / "corpus"
        assert main(["synth-corpus", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}")
        assert "Traceback" not in err
        assert not out.exists()


class TestExtract:
    @pytest.mark.parametrize("kind", ["acrlag", "mfcc", "lfcc", "plpcc", "lpcc", "lsf", "lar"])
    def test_all_kinds(self, kind, cli_corpus, tmp_path):
        wav = cli_corpus / "spk00" / "train_00.wav"
        out = tmp_path / f"{kind}.csv"
        assert main(["extract", str(wav), "--kind", kind, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith(f"{kind}_0,") and len(lines) > 1
        frames = preprocess(audio_io.read_wav(wav), FrameConfig())
        expected = csv_bytes(LIBRARY_EXTRACTORS[kind](frames), tmp_path / "expected.csv")
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("kind", sorted(LIBRARY_EXTRACTORS))
    def test_out_csv_holds_every_value_to_the_last_bit(self, kind, cli_corpus, tmp_path):
        # The CSV is the one feature output: read back, it gives the
        # extractor's float64 values bit for bit.
        wav = cli_corpus / "spk01" / "test_00.wav"
        out = tmp_path / f"{kind}.csv"
        assert main(["extract", str(wav), "--kind", kind, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        expected = LIBRARY_EXTRACTORS[kind](preprocess(audio_io.read_wav(wav), FrameConfig()))
        assert header == ",".join(f"{kind}_{i}" for i in range(expected.dim))
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert parsed.shape == expected.values.shape
        assert parsed.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize(
        "name", ["missing/f.csv", "."], ids=["missing-directory", "directory"]
    )
    def test_unwritable_out_is_an_error_line(self, cli_corpus, tmp_path, capsys, name):
        out = tmp_path / name
        wav = str(cli_corpus / "spk00" / "test_00.wav")
        assert main(["extract", wav, "--kind", "mfcc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"'{out}'\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_kind_choices_cover_every_feature_kind(self):
        extract = build_parser()._subparsers._group_actions[0].choices["extract"]
        (kind,) = [a for a in extract._actions if a.dest == "kind"]
        assert set(kind.choices) == {k.value.lower() for k in FeatureKind}

    @pytest.mark.parametrize(
        "kind, doc, direct",
        [
            (
                "acrlag",
                {"acrlag": {"lp_order": 10, "max_lag": 5}},
                lambda frames: extract_acrlag(frames, AcrlagConfig(lp_order=10, max_lag=5)),
            ),
            (
                "lfcc",
                {"filterbank": {"n_filters": 24, "n_cep": 12}},
                lambda frames: fb_cepstra(
                    frames, FilterbankConfig(n_filters=24, n_cep=12, scale=FrequencyScale.HERTZ)
                ),
            ),
            # PLPCC takes its FFT size from the filterbank, so frames of
            # 1024 samples give PLPCC with a 1024-point filterbank.
            ("plpcc", {"filterbank": {"fft_size": 1024}}, lambda frames: plpcc(frames, 1024)),
            (
                "plpcc",
                {
                    "frame": {"frame_len_samples": 1024, "hop_samples": 512},
                    "filterbank": {"fft_size": 1024},
                },
                lambda frames: plpcc(frames, 1024),
            ),
            # LPCC, LSF and LAR have a fixed order; the frame settings
            # still reach them.
            *(
                (
                    kind,
                    {"frame": {"frame_len_samples": 240, "hop_samples": 120}},
                    lambda frames, kind=kind: extract_lp_features(frames, FeatureKind.parse(kind)),
                )
                for kind in ("lpcc", "lsf", "lar")
            ),
        ],
        ids=["acrlag", "lfcc", "plpcc-fft-1024", "plpcc-frames-1024", "lpcc", "lsf", "lar"],
    )
    def test_config_settings_reach_the_extractor(self, cli_corpus, tmp_path, kind, doc, direct):
        wav = cli_corpus / "spk00" / "train_00.wav"
        frame = PipelineConfig.from_json_dict(doc).frame
        frames = preprocess(audio_io.read_wav(wav), frame)
        config = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "f.csv"
        code = main(["extract", str(wav), "--kind", kind, "--out", str(out), "--config", config])
        assert code == 0
        assert out.read_bytes() == csv_bytes(direct(frames), tmp_path / "expected.csv")

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("plpcc", "--order"),
            ("plpcc", "--n-cep"),
            ("plpcc", "--fft-size"),
            ("lpcc", "--order"),
            ("lsf", "--order"),
            ("lar", "--order"),
            ("lpcc", "--n-cep"),
            ("mfcc", "--n-cep"),
            ("lfcc", "--fft-size"),
            ("acrlag", "--order"),
            ("mfcc", "--csv"),
        ],
    )
    def test_removed_settings_flag_is_a_usage_error(self, cli_corpus, tmp_path, capsys, kind, flag):
        # Settings come from --config alone; the flags that once set them
        # are unknown options, as is --csv: --out writes the CSV.
        wav = cli_corpus / "spk00" / "train_00.wav"
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as caught:
            main(["extract", str(wav), "--kind", kind, "--out", str(out), flag, "5"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} 5" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_help_offers_only_these_options(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        options = {
            name: {a.option_strings[0] if a.option_strings else a.dest for a in p._actions}
            for name, p in subparsers.items()
        }
        assert options["train"] == {"-h", "--manifest", "--out", "--config"}
        assert options["extract"] == {"-h", "audio", "--kind", "--out", "--config"}

    @pytest.mark.parametrize("section", ["plp", "lp_transform"])
    @pytest.mark.parametrize("command", ["train", "extract"])
    def test_extract_only_section_is_an_unknown_config_key(
        self, cli_corpus, tmp_path, capsys, section, command
    ):
        cfg = write_config(tmp_path / "cfg.json", {section: {}})
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--manifest", str(cli_corpus / "manifest.json")],
            "extract": ["extract", str(cli_corpus / "spk00" / "test_00.wav"), "--kind", "plpcc"],
        }[command]
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key '{section}'\n"
        assert not out.exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["extract", str(tmp_path / "nope.wav"), "--kind", "mfcc", "--out", "x.csv"]
        )
        assert code == 1
        assert capsys.readouterr().err.strip()


class TestTrainIdentifyEvaluate:
    def test_identify_ranks_speakers(self, cli_corpus, cli_db, tmp_path, capsys):
        wav = cli_corpus / "spk02" / "test_00.wav"
        out = tmp_path / "rank.json"
        code = main(["identify", str(wav), "--db", str(cli_db), "--json", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "spk02" in stdout
        doc = json.loads(out.read_text())
        assert doc["fused_winner"] == "spk02"
        assert len(doc["scores"]) == 3

    def test_evaluate_writes_report(self, cli_corpus, cli_db, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--db",
                str(cli_db),
                "--manifest",
                str(cli_corpus / "manifest.json"),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert "PIA" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["n_trials"] == 6
        assert doc["eta"] == 0.5

    def test_fuse_sweep(self, cli_corpus, cli_db, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        code = main(
            [
                "fuse-sweep",
                "--db",
                str(cli_db),
                "--manifest",
                str(cli_corpus / "manifest.json"),
                "--etas",
                "0.0,0.5,1.0",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert [r["eta"] for r in doc] == [0.0, 0.5, 1.0]
        out = capsys.readouterr().out
        assert out.count("PIA") >= 1

    def test_train_rerun_byte_identical(self, cli_corpus, cli_db, tmp_path):
        again = tmp_path / "again.db"
        assert train_m2(cli_corpus, again) == 0
        assert again.read_bytes() == cli_db.read_bytes()

    @pytest.mark.parametrize(
        "doc, refused_kinds, reason",
        [
            (
                {
                    "frame": {"frame_len_samples": 1024, "hop_samples": 512},
                    "filterbank": {"fft_size": 1024},
                },
                (),
                None,
            ),
            (
                {
                    "frame": {"frame_len_samples": 16, "hop_samples": 8},
                    "acrlag": {"lp_order": 10, "max_lag": 8},
                },
                ("lpcc", "lsf", "lar"),
                "lag 19 needs a frame longer than 16 samples",
            ),
        ],
        ids=["frames-of-1024", "frames-of-16"],
    )
    def test_fixed_order_kinds_never_refuse_a_pipeline_config(
        self, cli_corpus, tmp_path, capsys, doc, refused_kinds, reason
    ):
        # No stream reads PLPCC, LPCC, LSF or LAR, so their fixed order never
        # refuses a config: train, load, identify and every other kind run;
        # only `voxid extract` of a kind whose order-19 fit the frames
        # cannot hold refuses, with an error line.
        config = write_config(tmp_path / "cfg.json", {**doc, "train": {"n_components": 2}})
        db = tmp_path / "speakers.db"
        manifest = str(cli_corpus / "manifest.json")
        assert main(["train", "--manifest", manifest, "--out", str(db), "--config", config]) == 0
        frame_len = doc["frame"]["frame_len_samples"]
        assert load_database(db).config.frame.frame_len_samples == frame_len
        wav = str(cli_corpus / "spk02" / "test_00.wav")
        assert main(["identify", wav, "--db", str(db)]) == 0
        out = tmp_path / "f.csv"
        for kind in sorted(LIBRARY_EXTRACTORS):
            capsys.readouterr()
            code = main(["extract", wav, "--kind", kind, "--config", config, "--out", str(out)])
            if kind in refused_kinds:
                assert code == 1
                assert capsys.readouterr().err == f"error: {config}: --kind {kind}: {reason}\n"
                assert not out.exists()
            else:
                assert code == 0
                out.unlink()

    @pytest.mark.parametrize("command", ["train", "evaluate", "fuse-sweep"])
    def test_manifest_naming_a_missing_wav_is_an_error_line(
        self, cli_corpus, cli_db, tmp_path, capsys, command
    ):
        # The line names the manifest, the speaker and the missing file.
        manifest = load_manifest(cli_corpus / "manifest.json")
        ghost = tmp_path / "ghost.wav"
        doc = {
            "speakers": [
                {
                    "speaker_id": s.speaker_id,
                    "train_utterances": list(s.train_utterances),
                    "test_utterances": [*s.test_utterances, *[str(ghost)] * (i == 1)],
                }
                for i, s in enumerate(manifest.speakers)
            ]
        }
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--out", str(out)],
            "evaluate": ["evaluate", "--db", str(cli_db), "--report", str(out)],
            "fuse-sweep": ["fuse-sweep", "--db", str(cli_db), "--report", str(out)],
        }[command]
        assert main([*argv, "--manifest", str(path)]) == 1
        speaker = manifest.speakers[1].speaker_id
        assert capsys.readouterr().err == (
            f"error: {path}: speaker {speaker}: missing file {ghost}\n"
        )
        assert not out.exists()

    def test_denormal_variance_is_an_error_line(self, cli_corpus, cli_db, tmp_path, capsys):
        # Loaded, the model would score spk02 NaN and drop it to last place.
        variance = load_database(cli_db).residual_models["spk02"].variances[0, 0]
        db = tmp_path / "denormal.db"
        db.write_bytes(with_denormal_variance(cli_db.read_bytes(), variance))
        wav = str(cli_corpus / "spk02" / "test_00.wav")
        assert main(["identify", wav, "--db", str(db)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {db}: speaker spk02, residual model: -0.5 / var")
        assert "identified" not in captured.out

    @pytest.mark.parametrize("amplitude", [1e154, 1e300])
    def test_huge_audio_is_identified_without_warnings(
        self, cli_corpus, cli_db, monkeypatch, capsys, amplitude
    ):
        # A 16-bit WAV cannot hold such samples; read_wav stands in for a
        # source that can.
        wav = cli_corpus / "spk02" / "test_00.wav"
        speech = audio_io.read_wav(wav)
        huge = AudioSignal(speech.samples * amplitude, speech.sample_rate_hz)
        monkeypatch.setattr(audio_io, "read_wav", lambda path: huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["identify", str(wav), "--db", str(cli_db)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("identified: spk02\n")
        assert captured.err == ""

    def test_bad_eta_fails(self, cli_corpus, cli_db):
        wav = cli_corpus / "spk00" / "test_00.wav"
        code = main(["identify", str(wav), "--db", str(cli_db), "--eta", "1.5"])
        assert code == 1

    @pytest.mark.parametrize(
        "command, flag, value, bad",
        [
            ("fuse-sweep", "--etas", "abc", "abc"),
            ("fuse-sweep", "--etas", "0.5,abc", "abc"),
            ("fuse-sweep", "--etas", "0.5,2", "2"),
            ("fuse-sweep", "--etas", "0.5,,1", ""),
            ("identify", "--eta", "2", "2"),
            ("identify", "--eta", "abc", "abc"),
            ("evaluate", "--eta", "-0.1", "-0.1"),
            ("evaluate", "--eta", "nan", "nan"),
        ],
    )
    def test_bad_fusion_weight_is_an_error_line_naming_the_flag(
        self, cli_corpus, cli_db, capsys, command, flag, value, bad
    ):
        where = {
            "identify": [str(cli_corpus / "spk00" / "test_00.wav")],
            "evaluate": ["--manifest", str(cli_corpus / "manifest.json")],
            "fuse-sweep": ["--manifest", str(cli_corpus / "manifest.json")],
        }[command]
        code = main([command, *where, "--db", str(cli_db), flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} {bad!r}: a fusion weight is a number in [0, 1]\n"
        assert captured.out == ""

    def test_config_json_override(self, cli_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"n_components": 2}}))
        db = tmp_path / "cfg.db"
        code = main(
            [
                "train",
                "--manifest",
                str(cli_corpus / "manifest.json"),
                "--out",
                str(db),
                "--config",
                str(cfg),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"train": }', "not valid JSON (Expecting value"),
            (b"\xff{}", "not valid JSON ('utf-8' codec can't decode byte 0xff"),
            (b'{"frame": {"hop": 80}}', "unknown config key 'frame.hop'"),
            (b'{"filterbank": {"f_high_hz": 5000}}', "config key 'filterbank': band edges"),
            (b'{"acrlag": {"max_lag": 31}}', "config key 'acrlag.max_lag': 31 gives features"),
            *(
                (json.dumps(doc).encode(), f"config key '{key}' must be an integer")
                for doc, key in NON_INTEGER_CONFIGS
            ),
            (
                b'{"acrlag": {"lp_order": 200}}',
                "config key 'acrlag.lp_order': 200 needs frames longer than 160 samples",
            ),
            (
                b'{"frame": {"frame_len_samples": 12, "hop_samples": 6}}',
                "config key 'acrlag.lp_order': 13 needs frames longer than 12 samples "
                "(frame.frame_len_samples)",
            ),
            (
                b'{"filterbank": {"n_filters": 100, "fft_size": 128}}',
                "config key 'filterbank': filter 0 covers fewer than 2 of the 65 FFT bins",
            ),
            *(
                (
                    b'{"filterbank": {"fft_size": %d}}' % size,
                    f"config key 'filterbank': fft_size {size} is above the largest FFT size",
                )
                for size in (2**18, 2**30)
            ),
        ],
        ids=["not-json", "not-utf8", "unknown-key", "band-edge", "too-wide"]
        + [f"non-integer-{i}" for i in range(len(NON_INTEGER_CONFIGS))]
        + ["lp-order", "short-frame", "too-dense", "fft-2**18", "fft-2**30"],
    )
    def test_bad_config_file_is_named(self, cli_corpus, tmp_path, capsys, content, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        manifest = str(cli_corpus / "manifest.json")
        wav = str(cli_corpus / "spk00" / "test_00.wav")
        out = str(tmp_path / "out")
        for command in (
            ["train", "--manifest", manifest, "--out", out],
            ["extract", wav, "--kind", "mfcc", "--out", out],
        ):
            assert main([*command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {cfg}: {reason}")

    def test_frame_longer_than_the_fft_is_an_error_line(self, cli_corpus, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", {"frame": {"frame_len_samples": 1024, "hop_samples": 512}}
        )
        manifest = str(cli_corpus / "manifest.json")
        out = tmp_path / "cfg.db"
        code = main(["train", "--manifest", manifest, "--out", str(out), "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'frame.frame_len_samples': frames of 1024 samples "
            "do not fit a 512-point FFT (filterbank.fft_size)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identify", "extract"])
    def test_other_rates_are_an_error_line(self, cli_corpus, cli_db, tmp_path, capsys, command):
        speech = audio_io.read_wav(cli_corpus / "spk02" / "test_00.wav")
        wav = tmp_path / "16k.wav"
        audio_io.write_wav(wav, AudioSignal(speech.samples, 16000))
        out = tmp_path / "x.csv"
        options = {
            "identify": ["--db", str(cli_db)],
            "extract": ["--kind", "mfcc", "--out", str(out)],
        }
        assert main([command, str(wav), *options[command]]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err == "error: audio at 16000 Hz; voxid analyses 8000 Hz audio\n"
        assert "identified" not in captured.out

    @pytest.mark.parametrize("doc, key", NON_INTEGER_CONFIGS)
    def test_non_integer_config_value_is_an_error_line(
        self, cli_corpus, tmp_path, capsys, doc, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        manifest = str(cli_corpus / "manifest.json")
        out = str(tmp_path / "cfg.db")
        code = main(["train", "--manifest", manifest, "--out", out, "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: config key '{key}' must be an integer")
        assert "TypeError" not in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (section, key, value)
            for section, key in FLOAT_KEYS
            for value in ("0.5", None, [0.5])
            if not (key == "f_high_hz" and value is None)
        ],
    )
    def test_non_number_for_a_float_config_key_is_an_error_line(
        self, cli_corpus, tmp_path, capsys, section, key, value
    ):
        # A string, even one that float() reads, null and a list are no
        # number: the error line names the key, not a comparison Python failed.
        cfg = write_config(tmp_path / "cfg.json", {section: {key: value}})
        manifest = str(cli_corpus / "manifest.json")
        out = tmp_path / "cfg.db"
        code = main(["train", "--manifest", manifest, "--out", str(out), "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key '{section}.{key}' must be a number, got {value!r}\n"
        )
        assert not out.exists()

    def test_too_few_distinct_frames_fails_cleanly(self, tmp_path, capsys):
        # A 100 Hz square wave at 8 kHz repeats every 80 samples, so its
        # frames hold only two distinct feature rows: too few for 8 components.
        square = np.where(np.arange(3 * 8000) // 40 % 2 == 0, 0.5, -0.5)
        audio_io.write_wav(tmp_path / "square.wav", AudioSignal(square, 8000))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"speakers": [{"speaker_id": "sq", "train_utterances": ["square.wav"]}]})
        )
        code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "sq.db")])
        assert code == 1
        err = capsys.readouterr().err
        assert "speaker sq" in err and "stream" in err and "distinct frames" in err


class TestSynthDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(
                [
                    "synth-corpus",
                    "--out",
                    str(out),
                    "--speakers",
                    "2",
                    "--train-utterances",
                    "1",
                    "--test-utterances",
                    "1",
                    "--seed",
                    "3",
                ]
            )
            assert code == 0
            outs.append(out)
        a, b = outs
        rel = sorted(p.relative_to(a) for p in a.rglob("*.wav"))
        assert rel
        for r in rel:
            assert (a / r).read_bytes() == (b / r).read_bytes()
        assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
