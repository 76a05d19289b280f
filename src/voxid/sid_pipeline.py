"""End-to-end closed-set speaker identification.

Two feature streams are extracted per utterance: filterbank cepstra for the
vocal tract and lag-bounded residual autocorrelation for the vocal source.
One GMM per speaker per stream forms the database; identification takes the
argmax of utterance log-likelihoods, optionally after linear score fusion.
"""

from __future__ import annotations

import contextvars
import json
import struct
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import audio_io, corpus, gmm
from .acrlag import AcrlagConfig, extract_acrlag
from .errors import BadFileFormat, InsufficientData, NoFeatures, NumericalFailure, VoxidError
from .features import BlobReader, FeatureKind, FeatureMatrix, concatenate_features, pack_text
from .gmm import GmmModel, TrainConfig
from .signal_prep import AudioSignal, FrameConfig, FrameSequence, preprocess
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

    def __post_init__(self) -> None:
        """Frames fit the FFT and hold every LP and ACRLAG lag, so neither
        extractor can refuse these settings; and each stream's features are
        narrow enough for exact stacked scores."""
        frame_len, fft_size = self.frame.frame_len_samples, self.filterbank.fft_size
        if frame_len > fft_size:
            raise ValueError(
                f"config key 'frame.frame_len_samples': frames of {frame_len} samples "
                f"do not fit a {fft_size}-point FFT (filterbank.fft_size)"
            )
        for key, lag in (
            ("acrlag.lp_order", self.acrlag.lp_order),
            ("acrlag.max_lag", self.acrlag.max_lag),
        ):
            if lag >= frame_len:
                raise ValueError(
                    f"config key '{key}': {lag} needs frames longer than "
                    f"{frame_len} samples (frame.frame_len_samples)"
                )
        for key, value, dim in (
            ("filterbank.n_cep", self.filterbank.n_cep, self.filterbank.n_cep),
            ("acrlag.max_lag", self.acrlag.max_lag, self.acrlag.dim),
        ):
            if dim >= gmm.EXACT_STACK_DIM:
                raise ValueError(
                    f"config key '{key}': {value} gives features of dimension {dim}; "
                    f"scores are exact only below dimension {gmm.EXACT_STACK_DIM}"
                )

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
            for key, value in values.items():
                # JSON true is a Python int, and 80.0 equals 80, but neither is an integer.
                if type(getattr(section, key)) is int and type(value) is not int:
                    raise BadFileFormat(
                        f"config key '{name}.{key}' must be an integer, got {value!r}"
                    )
            try:
                sections[name] = replace(section, **values)
            except (TypeError, ValueError) as exc:
                raise BadFileFormat(f"config key {name!r}: {exc}") from None
        try:
            return replace(defaults, **sections)
        except ValueError as exc:  # settings that disagree across sections
            raise BadFileFormat(str(exc)) from None


class _Stream(NamedTuple):
    """A feature stream: its extractor, the settings passed to it, and the
    kind and dimension of its features and models."""

    name: str
    extract: Callable[..., FeatureMatrix]
    settings: object
    kind: FeatureKind
    dim: int


def _streams(config: PipelineConfig) -> tuple[_Stream, _Stream]:
    """(spectral, residual): the order of every per-stream tuple and of each
    speaker's models in a database blob. The extractors are looked up here on
    every call, so a wrapper set on this module's attribute sees each call."""
    fb, ac = config.filterbank, config.acrlag
    return (
        _Stream("spectral", fb_cepstra, fb, fb.feature_kind, fb.n_cep),
        _Stream("residual", extract_acrlag, ac, FeatureKind.ACRLAG, ac.dim),
    )


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
        n_components = self.config.train.n_components
        for sid in self.speaker_ids:
            for stream, models in zip(_streams(self.config), self.stream_models):
                if sid not in models:
                    raise ValueError(f"speaker {sid} is missing a {stream.name} model")
                model = models[sid]
                expected = (stream.kind, stream.dim, n_components)
                if (model.feature_kind, model.dim, model.n_components) != expected:
                    raise ValueError(
                        f"speaker {sid}, {stream.name} model: {model.feature_kind.value} with "
                        f"{model.n_components} components of dimension {model.dim}, but the config "
                        f"gives {stream.kind.value} with {n_components} of dimension {stream.dim}"
                    )

    @property
    def n_speakers(self) -> int:
        return len(self.speaker_ids)

    @property
    def stream_models(self) -> tuple[dict[str, GmmModel], dict[str, GmmModel]]:
        """(spectral, residual) models, in the order of ``_streams``."""
        return self.spectral_models, self.residual_models

    @cached_property
    def model_stacks(self) -> tuple[gmm.ModelStack, gmm.ModelStack]:
        """(spectral, residual) models stacked in speaker order, built on
        the first score; training, saving and loading never need them."""
        return tuple(
            gmm.stack_models([models[sid] for sid in self.speaker_ids])
            for models in self.stream_models
        )


class _Failure(NamedTuple):
    """The error a stream met, and the step at which it met it: the
    utterance's index while extracting, one past the last utterance while
    stacking, and two past it while training."""

    step: int
    error: Exception


def _fit_stream(
    stream: _Stream, frames: list[FrameSequence], n_utterances: int, train: TrainConfig
) -> GmmModel | _Failure | None:
    """One stream of one speaker: extract every utterance, stack, fit. With
    fewer frame sequences than utterances (reading stopped at an error), only
    extracts, and returns None if that succeeds. Never raises an Exception."""
    step = 0
    try:
        parts = []
        for step, utterance in enumerate(frames):
            parts.append(stream.extract(utterance, stream.settings))
        if len(frames) < n_utterances:
            return None
        step = n_utterances
        features = concatenate_features(parts)
        step += 1
        return gmm.train_gmm(features, train)
    except Exception as exc:
        return _Failure(step, exc)


def _map_streams(task: Callable[[_Stream], object], streams: Sequence[_Stream]) -> list:
    """``[task(stream) for stream in streams]``, with the first stream on the
    calling thread and each other one on a thread of its own, started and
    joined here. Each thread runs in a copy of the caller's context, so a
    NumPy errstate set by the caller holds in it. The threads are joined
    also when the calling thread's task raises. ``task`` must not raise."""
    results = [None] * len(streams)

    def run(index: int) -> None:
        results[index] = task(streams[index])

    started = []
    try:
        for index in range(1, len(streams)):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run, index))
            worker.start()
            started.append(worker)
        run(0)
    finally:
        for worker in started:
            worker.join()
    return results


def train_database(manifest: CorpusManifest, config: PipelineConfig) -> SpeakerDatabase:
    """Fit one model per stream per speaker from the manifest's train lists.

    Each speaker's utterances are read and preprocessed in order on the
    calling thread; then its streams extract, stack and train at the same
    time (see ``_map_streams``). The models, and the error raised, are those
    of one utterance after another, stream after stream: the lowest
    utterance's error first, the spectral stream's before the residual's,
    then stacking and training errors in stream order.
    """
    if not manifest.speakers:
        raise InsufficientData("manifest lists no speakers")
    streams = _streams(config)
    stream_models: tuple[dict[str, GmmModel], ...] = tuple({} for _ in streams)
    for entry in manifest.speakers:
        sid, paths = entry.speaker_id, entry.train_utterances
        if not paths:
            raise InsufficientData(f"speaker {sid} has no train utterances")
        # (step, order, error): order 0 is reading, then 1 + the stream's index,
        # so the lowest key is the error one stream after another meets first.
        frames, failures = [], []
        for step, p in enumerate(paths):
            try:
                frames.append(preprocess(audio_io.read_wav(p), config.frame))
            except Exception as exc:
                failures.append((step, 0, exc))
                break
        outcomes = _map_streams(
            lambda stream: _fit_stream(stream, frames, len(paths), config.train), streams
        )
        for order, outcome in enumerate(outcomes, 1):
            if isinstance(outcome, _Failure):
                failures.append((outcome.step, order, outcome.error))
        if failures:
            step, order, exc = min(failures, key=lambda failure: failure[:2])
            if step < len(paths) and isinstance(exc, VoxidError):
                raise type(exc)(f"{sid}: {paths[step]}: {exc}") from None
            if step == len(paths) + 1 and isinstance(exc, InsufficientData):
                name = streams[order - 1].name
                raise InsufficientData(f"speaker {sid}, {name} stream: {exc}") from None
            raise exc
        for models, model in zip(stream_models, outcomes):
            models[sid] = model
    return SpeakerDatabase(config, manifest.speaker_ids, *stream_models)


@dataclass(frozen=True)
class SpeakerScores:
    speaker_id: str
    spectral: float | None
    residual: float | None


def score_utterance(db: SpeakerDatabase, audio: AudioSignal) -> tuple[SpeakerScores, ...]:
    """Both streams' log-likelihoods against every enrolled speaker.

    A stream that keeps no frame of this utterance (NoFeatures) scores None
    for all speakers.  Every other error propagates to the caller: the
    config admits no settings an extractor would refuse.
    """
    if not db.speaker_ids:
        raise InsufficientData("speaker database is empty")
    frames = preprocess(audio, db.config.frame)
    missing = [None] * db.n_speakers
    columns = []
    for stream, stack in zip(_streams(db.config), db.model_stacks):
        try:
            features = stream.extract(frames, stream.settings)
        except NoFeatures:
            columns.append(missing)
            continue
        if not np.isfinite(features.values).all():
            raise NumericalFailure(f"{stream.name} stream: features are not finite")
        columns.append(gmm.stack_scores(stack, features).tolist())
    if all(column is missing for column in columns):
        raise InsufficientData("both feature streams failed for this utterance")
    return tuple(map(SpeakerScores, db.speaker_ids, *columns))


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
        pia = ("pia_spectral", "pia_residual", "pia_fused")
        return asdict(self) | {name: getattr(self, name) for name in pia}


def score_manifest(db: SpeakerDatabase, manifest: CorpusManifest) -> tuple[ScoredTrial, ...]:
    """Score every test utterance against every speaker, recording failures.

    Every speaker with test utterances must be enrolled, or none of its
    trials could be scored right.
    """
    tested = [entry.speaker_id for entry in manifest.speakers if entry.test_utterances]
    if not tested:
        raise InsufficientData("manifest lists no test utterances")
    missing = sorted(set(tested) - set(db.speaker_ids))
    if missing:
        raise VoxidError(f"test speakers not in the database: {', '.join(missing)}")
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
        for models in db.stream_models:
            model_bytes = gmm.model_to_bytes(models[sid])
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
    streams = _streams(config)
    speaker_ids = []
    stream_models: tuple[dict[str, GmmModel], ...] = tuple({} for _ in streams)
    for _ in range(n_speakers):
        sid = reader.text()
        speaker_ids.append(sid)
        for stream, models in zip(streams, stream_models):
            try:
                (size,) = reader.unpack("<Q")
                models[sid] = gmm.model_from_bytes(reader.take(size))
            except BadFileFormat as exc:
                raise BadFileFormat(f"speaker {sid}, {stream.name} model: {exc}") from None
    reader.end()
    try:
        return SpeakerDatabase(config, tuple(speaker_ids), *stream_models)
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
                samples = corpus.synth_utterance(rng, voice, seconds)
                wav_path = speaker_dir / f"{split}_{i:02d}.wav"
                audio_io.write_wav(wav_path, AudioSignal(samples, corpus.SAMPLE_RATE_HZ))
                bucket.append(str(wav_path))
        entries.append(
            SpeakerEntry(voice.speaker_id, tuple(train_paths), tuple(test_paths))
        )
    manifest = CorpusManifest(tuple(entries))
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest, manifest_path
