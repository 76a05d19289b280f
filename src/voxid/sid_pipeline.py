"""End-to-end closed-set speaker identification.

Two feature streams are extracted per utterance: filterbank cepstra for the
vocal tract and lag-bounded residual autocorrelation for the vocal source.
One GMM per speaker per stream forms the database; identification takes the
argmax of utterance log-likelihoods, optionally after linear score fusion.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import audio_io, corpus, gmm
from .acrlag import AcrlagConfig, extract_acrlag
from .errors import BadFileFormat, InsufficientData, VoxidError
from .features import BlobReader, FeatureKind, FeatureMatrix, concatenate_features, pack_text
from .gmm import GmmModel, TrainConfig
from .signal_prep import AudioSignal, FrameConfig, preprocess
from .spectral import FilterbankConfig, fb_cepstra

DB_MAGIC = b"VOXSDB"
DB_VERSION = 1


@dataclass(frozen=True)
class SpeakerEntry:
    """One speaker's utterance lists from a corpus manifest."""

    speaker_id: str
    train_utterances: tuple[str, ...]
    test_utterances: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_utterances", tuple(self.train_utterances))
        object.__setattr__(self, "test_utterances", tuple(self.test_utterances))
        overlap = set(self.train_utterances) & set(self.test_utterances)
        if overlap:
            raise ValueError(
                f"speaker {self.speaker_id}: train and test sets share {sorted(overlap)}"
            )


@dataclass(frozen=True)
class CorpusManifest:
    speakers: tuple[SpeakerEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "speakers", tuple(self.speakers))
        ids = [s.speaker_id for s in self.speakers]
        if len(set(ids)) != len(ids):
            raise ValueError("speaker_ids must be unique")

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return tuple(s.speaker_id for s in self.speakers)


def _manifest_entry(item: object, path: Path) -> SpeakerEntry:
    """One speaker of a manifest document; utterance paths resolve relative to it."""
    if not isinstance(item, dict) or "speaker_id" not in item:
        raise BadFileFormat(f"{path}: every speaker must be an object with a 'speaker_id'")
    train, test = (item.get(key, []) for key in ("train_utterances", "test_utterances"))
    for paths in (train, test):
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise BadFileFormat(
                f"{path}: speaker {item['speaker_id']!r}: utterance lists must hold path strings"
            )
    return SpeakerEntry(
        speaker_id=str(item["speaker_id"]),
        train_utterances=tuple(str(path.parent / p) for p in train),
        test_utterances=tuple(str(path.parent / p) for p in test),
    )


def load_manifest(path: str | Path, check_paths: bool = True) -> CorpusManifest:
    """Read a manifest JSON; utterance paths resolve relative to the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise BadFileFormat(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("speakers"), list):
        raise BadFileFormat(f"{path}: manifest must be an object with a 'speakers' list")
    try:
        manifest = CorpusManifest(tuple(_manifest_entry(item, path) for item in doc["speakers"]))
    except ValueError as exc:  # overlapping train/test lists or repeated speaker ids
        raise BadFileFormat(f"{path}: {exc}") from None
    if check_paths:
        for entry in manifest.speakers:
            for p in entry.train_utterances + entry.test_utterances:
                if not Path(p).exists():
                    raise BadFileFormat(f"manifest references a missing file: {p}")
    return manifest


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest JSON with paths stored relative to the file."""
    path = Path(path)
    base = path.parent.resolve()

    def relativize(p: str) -> str:
        try:
            return Path(p).resolve().relative_to(base).as_posix()
        except ValueError:
            return Path(p).resolve().as_posix()

    doc = {
        "speakers": [
            {
                "speaker_id": s.speaker_id,
                "train_utterances": [relativize(p) for p in s.train_utterances],
                "test_utterances": [relativize(p) for p in s.test_utterances],
            }
            for s in manifest.speakers
        ]
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class FusionConfig:
    """Linear score-fusion weight: eta on the spectral stream."""

    eta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the two-stream pipeline in one place."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    acrlag: AcrlagConfig = field(default_factory=AcrlagConfig)
    filterbank: FilterbankConfig = field(default_factory=FilterbankConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PipelineConfig":
        """Settings from ``--config`` JSON or a database header; absent keys
        keep their defaults.

        Headers written before ``train.seed`` and ``score_average`` were
        removed still load: the seed never drew a random number, and
        ``score_average: false`` asks for the summed scores used here.
        """
        if not isinstance(doc, dict):
            raise BadFileFormat("pipeline config must be a JSON object")
        doc = dict(doc)
        if doc.pop("score_average", False) is not False:
            raise BadFileFormat(
                "config key 'score_average': only false (summed frame scores) is supported"
            )
        defaults = cls()
        sections = {}
        for name, values in doc.items():
            if name not in {f.name for f in fields(cls)}:
                raise BadFileFormat(f"unknown config key {name!r}")
            if not isinstance(values, dict):
                raise BadFileFormat(f"config key {name!r} must hold a JSON object")
            values = dict(values)
            if name == "train":
                values.pop("seed", None)
            section = getattr(defaults, name)
            unknown = sorted(set(values) - {f.name for f in fields(section)})
            if unknown:
                raise BadFileFormat(f"unknown config key '{name}.{unknown[0]}'")
            try:
                sections[name] = replace(section, **values)
            except (TypeError, ValueError) as exc:
                raise BadFileFormat(f"config key {name!r}: {exc}") from None
        return replace(defaults, **sections)


@dataclass(frozen=True)
class SpeakerDatabase:
    """Trained spectral and residual models for every enrolled speaker."""

    config: PipelineConfig
    speaker_ids: tuple[str, ...]
    spectral_models: dict[str, GmmModel]
    residual_models: dict[str, GmmModel]

    def __post_init__(self) -> None:
        """Speaker ids are distinct, and every speaker has one model per
        stream, of the kind, dimension and component count that the config's
        extractors and training produce."""
        object.__setattr__(self, "speaker_ids", tuple(self.speaker_ids))
        repeated = sorted(sid for sid, n in Counter(self.speaker_ids).items() if n > 1)
        if repeated:
            raise ValueError(f"speaker ids repeat: {', '.join(repeated)}")
        cfg = self.config
        n_components = cfg.train.n_components
        streams = (
            ("spectral", self.spectral_models, cfg.filterbank.feature_kind, cfg.filterbank.n_cep),
            ("residual", self.residual_models, FeatureKind.ACRLAG, cfg.acrlag.dim),
        )
        for sid in self.speaker_ids:
            for stream, models, kind, dim in streams:
                if sid not in models:
                    raise ValueError(f"speaker {sid} is missing a {stream} model")
                model = models[sid]
                if (model.feature_kind, model.dim, model.n_components) != (kind, dim, n_components):
                    raise ValueError(
                        f"speaker {sid}, {stream} model: {model.feature_kind.value} with "
                        f"{model.n_components} components of dimension {model.dim}, but the "
                        f"config gives {kind.value} with {n_components} of dimension {dim}"
                    )

    @property
    def n_speakers(self) -> int:
        return len(self.speaker_ids)


def utterance_features(
    audio: AudioSignal, config: PipelineConfig
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """(spectral, residual) feature matrices from one preprocessing pass."""
    frames = preprocess(audio, config.frame)
    return fb_cepstra(frames, config.filterbank), extract_acrlag(frames, config.acrlag)


def _stream_features(
    paths: Sequence[str], config: PipelineConfig, speaker_id: str
) -> tuple[FeatureMatrix, FeatureMatrix]:
    spectral_parts, residual_parts = [], []
    for p in paths:
        try:
            spectral, residual = utterance_features(audio_io.read_wav(p), config)
        except VoxidError as exc:
            raise type(exc)(f"{speaker_id}: {p}: {exc}") from None
        spectral_parts.append(spectral)
        residual_parts.append(residual)
    return concatenate_features(spectral_parts), concatenate_features(residual_parts)


def train_database(manifest: CorpusManifest, config: PipelineConfig) -> SpeakerDatabase:
    """Fit one model per stream per speaker from the manifest's train lists."""
    if not manifest.speakers:
        raise InsufficientData("manifest lists no speakers")
    spectral_models: dict[str, GmmModel] = {}
    residual_models: dict[str, GmmModel] = {}
    for entry in manifest.speakers:
        if not entry.train_utterances:
            raise InsufficientData(f"speaker {entry.speaker_id} has no train utterances")
        spectral, residual = _stream_features(
            entry.train_utterances, config, entry.speaker_id
        )
        for stream, feats, store in (
            ("spectral", spectral, spectral_models),
            ("residual", residual, residual_models),
        ):
            try:
                store[entry.speaker_id] = gmm.train_gmm(feats, config.train)
            except InsufficientData as exc:
                raise InsufficientData(
                    f"speaker {entry.speaker_id}, {stream} stream: {exc}"
                ) from None
    return SpeakerDatabase(
        config=config,
        speaker_ids=manifest.speaker_ids,
        spectral_models=spectral_models,
        residual_models=residual_models,
    )


@dataclass(frozen=True)
class SpeakerScores:
    speaker_id: str
    spectral: float | None
    residual: float | None


def score_utterance(db: SpeakerDatabase, audio: AudioSignal) -> tuple[SpeakerScores, ...]:
    """Both streams' log-likelihoods against every enrolled speaker.

    A stream whose features cannot be extracted from this utterance scores
    None for all speakers; preprocessing failures propagate to the caller.
    """
    if not db.speaker_ids:
        raise InsufficientData("speaker database is empty")
    frames = preprocess(audio, db.config.frame)
    missing = [None] * db.n_speakers
    streams = []
    for extract, cfg, models in (
        (fb_cepstra, db.config.filterbank, db.spectral_models),
        (extract_acrlag, db.config.acrlag, db.residual_models),
    ):
        try:
            features = extract(frames, cfg)
        except VoxidError:
            streams.append(missing)
            continue
        scores = gmm.utterance_scores([models[sid] for sid in db.speaker_ids], features)
        streams.append(scores.tolist())
    if all(stream is missing for stream in streams):
        raise InsufficientData("both feature streams failed for this utterance")
    return tuple(map(SpeakerScores, db.speaker_ids, *streams))


def fuse_scores(spectral: float, residual: float, cfg: FusionConfig = FusionConfig()) -> float:
    """Linear score fusion: eta * spectral + (1 - eta) * residual."""
    return cfg.eta * spectral + (1.0 - cfg.eta) * residual


def _argmax_speaker(scores: dict[str, float]) -> str:
    """Highest score wins; exact ties go to the smallest speaker_id."""
    best_id = None
    best = -np.inf
    for sid in sorted(scores):
        if scores[sid] > best:
            best_id, best = sid, scores[sid]
    if best_id is None:
        raise InsufficientData("no scores to rank")
    return best_id


@dataclass(frozen=True)
class IdentificationResult:
    """Per-stream and fused winners for one utterance."""

    fused_winner: str
    spectral_winner: str | None
    residual_winner: str | None
    scores: tuple[SpeakerScores, ...]
    eta: float

    def fused_scores(self) -> dict[str, float]:
        return _fused_score_dict(self.scores, FusionConfig(self.eta))


def _fused_score_dict(
    scores: Iterable[SpeakerScores], cfg: FusionConfig
) -> dict[str, float]:
    """Fused per-speaker scores; a missing stream falls back to the other."""
    fused = {}
    for s in scores:
        if s.spectral is not None and s.residual is not None:
            fused[s.speaker_id] = fuse_scores(s.spectral, s.residual, cfg)
        elif s.spectral is not None:
            fused[s.speaker_id] = s.spectral
        elif s.residual is not None:
            fused[s.speaker_id] = s.residual
    return fused


def _resolve_winners(
    scores: Sequence[SpeakerScores], cfg: FusionConfig
) -> tuple[str, str | None, str | None]:
    """(fused, spectral, residual) winners; a stream without scores has none."""
    spectral = {s.speaker_id: s.spectral for s in scores if s.spectral is not None}
    residual = {s.speaker_id: s.residual for s in scores if s.residual is not None}
    return (
        _argmax_speaker(_fused_score_dict(scores, cfg)),
        _argmax_speaker(spectral) if spectral else None,
        _argmax_speaker(residual) if residual else None,
    )


def identify(
    db: SpeakerDatabase, audio: AudioSignal, cfg: FusionConfig = FusionConfig()
) -> IdentificationResult:
    """Closed-set identification: argmax per stream and over fused scores."""
    scores = score_utterance(db, audio)
    return IdentificationResult(*_resolve_winners(scores, cfg), scores=scores, eta=cfg.eta)


@dataclass(frozen=True)
class ScoredTrial:
    """Raw per-speaker scores for one test utterance, before fusion; None
    when every stream failed."""

    true_speaker: str
    utterance: str
    scores: tuple[SpeakerScores, ...] | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.scores is None


@dataclass(frozen=True)
class TrialResult:
    """One scored trial with winners resolved at a specific eta."""

    true_speaker: str
    utterance: str
    spectral_winner: str | None
    residual_winner: str | None
    fused_winner: str | None
    error: str | None

    def to_json_dict(self) -> dict:
        return {
            "true_speaker": self.true_speaker,
            "utterance": self.utterance,
            "spectral_winner": self.spectral_winner,
            "residual_winner": self.residual_winner,
            "fused_winner": self.fused_winner,
            "error": self.error,
        }


@dataclass(frozen=True)
class EvalReport:
    """Closed-set identification accuracy per stream and fused."""

    eta: float
    trials: tuple[TrialResult, ...]
    n_trials: int
    n_scored: int
    n_failed: int
    correct_spectral: int
    correct_residual: int
    correct_fused: int

    @property
    def pia_spectral(self) -> float:
        return 100.0 * self.correct_spectral / self.n_scored

    @property
    def pia_residual(self) -> float:
        return 100.0 * self.correct_residual / self.n_scored

    @property
    def pia_fused(self) -> float:
        return 100.0 * self.correct_fused / self.n_scored

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "n_trials": self.n_trials,
            "n_scored": self.n_scored,
            "n_failed": self.n_failed,
            "correct_spectral": self.correct_spectral,
            "correct_residual": self.correct_residual,
            "correct_fused": self.correct_fused,
            "pia_spectral": self.pia_spectral,
            "pia_residual": self.pia_residual,
            "pia_fused": self.pia_fused,
            "trials": [t.to_json_dict() for t in self.trials],
        }


def score_manifest(db: SpeakerDatabase, manifest: CorpusManifest) -> tuple[ScoredTrial, ...]:
    """Score every test utterance against every speaker, recording failures."""
    trials = []
    for entry in manifest.speakers:
        for path in entry.test_utterances:
            try:
                scores = score_utterance(db, audio_io.read_wav(path))
            except VoxidError as exc:
                trials.append(ScoredTrial(entry.speaker_id, path, None, error=str(exc)))
            else:
                trials.append(ScoredTrial(entry.speaker_id, path, scores))
    return tuple(trials)


def report_from_scores(
    trials: Sequence[ScoredTrial], cfg: FusionConfig = FusionConfig()
) -> EvalReport:
    """Resolve winners at the given eta and tally identification accuracy.

    Trials where every stream failed are reported but excluded from the
    accuracy denominator; a trial with one live stream stays in the
    denominator for all streams.
    """
    results = []
    for trial in trials:
        fused = spectral = residual = None
        if not trial.failed:
            fused, spectral, residual = _resolve_winners(trial.scores, cfg)
        results.append(
            TrialResult(
                trial.true_speaker, trial.utterance, spectral, residual, fused, trial.error
            )
        )
    n_failed = sum(trial.failed for trial in trials)
    if n_failed == len(trials):
        raise InsufficientData("every test utterance failed; nothing to evaluate")
    return EvalReport(
        eta=cfg.eta,
        trials=tuple(results),
        n_trials=len(trials),
        n_scored=len(trials) - n_failed,
        n_failed=n_failed,
        correct_spectral=sum(t.spectral_winner == t.true_speaker for t in results),
        correct_residual=sum(t.residual_winner == t.true_speaker for t in results),
        correct_fused=sum(t.fused_winner == t.true_speaker for t in results),
    )


def evaluate(
    db: SpeakerDatabase, manifest: CorpusManifest, cfg: FusionConfig = FusionConfig()
) -> EvalReport:
    """Full evaluation pass: PIA per stream and fused at the given eta."""
    return report_from_scores(score_manifest(db, manifest), cfg)


def fusion_sweep(
    db: SpeakerDatabase, manifest: CorpusManifest, etas: Sequence[float]
) -> list[EvalReport]:
    """Evaluate once, then re-fuse at every eta in the grid."""
    trials = score_manifest(db, manifest)
    return [report_from_scores(trials, FusionConfig(eta)) for eta in etas]


def database_to_bytes(db: SpeakerDatabase) -> bytes:
    out = [
        DB_MAGIC,
        struct.pack("<H", DB_VERSION),
        pack_text(json.dumps(asdict(db.config), sort_keys=True)),
        struct.pack("<I", db.n_speakers),
    ]
    for sid in db.speaker_ids:
        out.append(pack_text(sid))
        for model in (db.spectral_models[sid], db.residual_models[sid]):
            model_bytes = gmm.model_to_bytes(model)
            out += [struct.pack("<Q", len(model_bytes)), model_bytes]
    return b"".join(out)


def database_from_bytes(blob: bytes) -> SpeakerDatabase:
    reader = BlobReader(blob, "database", DB_MAGIC)
    (version,) = reader.unpack("<H")
    if version != DB_VERSION:
        raise BadFileFormat(f"unsupported database version {version}, expected {DB_VERSION}")
    try:
        doc = json.loads(reader.text())
    except ValueError as exc:
        raise BadFileFormat(f"database header is not valid JSON ({exc})") from None
    config = PipelineConfig.from_json_dict(doc)
    (n_speakers,) = reader.unpack("<I")
    speaker_ids = []
    spectral_models: dict[str, GmmModel] = {}
    residual_models: dict[str, GmmModel] = {}
    for _ in range(n_speakers):
        sid = reader.text()
        speaker_ids.append(sid)
        for models in (spectral_models, residual_models):
            (size,) = reader.unpack("<Q")
            models[sid] = gmm.model_from_bytes(reader.take(size))
    reader.end()
    try:
        return SpeakerDatabase(config, tuple(speaker_ids), spectral_models, residual_models)
    except ValueError as exc:  # repeated ids, models that disagree with the config
        raise BadFileFormat(f"database: {exc}") from None


def save_database(db: SpeakerDatabase, path: str | Path) -> None:
    Path(path).write_bytes(database_to_bytes(db))


def load_database(path: str | Path) -> SpeakerDatabase:
    return database_from_bytes(Path(path).read_bytes())


def synth_corpus(
    out_dir: str | Path,
    n_speakers: int = 10,
    train_utterances: int = 10,
    test_utterances: int = 10,
    train_seconds: float = 4.0,
    test_seconds: float = 3.0,
    seed: int = 0,
    sample_rate_hz: int = corpus.SAMPLE_RATE_HZ,
) -> tuple[CorpusManifest, Path]:
    """Generate the synthetic corpus on disk and write its manifest.

    Speakers 0 and 1 share a vocal tract and differ only in pitch period, so
    envelope features confuse them while residual features can tell them
    apart.  Everything is deterministic in the seed, down to the WAV bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    voices = corpus.make_voices(n_speakers, seed)
    entries = []
    for index, voice in enumerate(voices):
        speaker_dir = out_dir / voice.speaker_id
        speaker_dir.mkdir(exist_ok=True)
        train_paths, test_paths = [], []
        splits = (
            ("train", train_utterances, train_seconds, train_paths),
            ("test", test_utterances, test_seconds, test_paths),
        )
        utterance_index = 0
        for split, count, seconds, bucket in splits:
            for i in range(count):
                rng = corpus.utterance_rng(seed, index, utterance_index)
                utterance_index += 1
                samples = corpus.synth_utterance(rng, voice, seconds, sample_rate_hz)
                wav_path = speaker_dir / f"{split}_{i:02d}.wav"
                audio_io.write_wav(wav_path, AudioSignal(samples, sample_rate_hz))
                bucket.append(str(wav_path))
        entries.append(
            SpeakerEntry(voice.speaker_id, tuple(train_paths), tuple(test_paths))
        )
    manifest = CorpusManifest(tuple(entries))
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest, manifest_path
