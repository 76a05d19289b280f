"""End-to-end closed-set speaker identification.

Two feature streams are extracted per utterance: filterbank cepstra for the
vocal tract and lag-bounded residual autocorrelation for the vocal source.
One GMM per speaker per stream forms the database; identification takes the
argmax of utterance log-likelihoods, optionally after linear score fusion.
"""

from __future__ import annotations

import contextvars
import json
import os
import signal
import struct
import sys
import threading
import warnings
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import audio_io, corpus, gmm
from .acrlag import AcrlagConfig, extract_acrlag
from .errors import BadFileFormat, InsufficientData, NoFeatures, NumericalFailure, VoxidError
from .errors import check_types, named
from .features import BlobReader, FeatureKind, FeatureMatrix, concatenate_features, pack_text
from .features import read_file, read_json, write_json
from .gmm import GmmModel, TrainConfig
from .signal_prep import AudioSignal, FrameConfig, FrameSequence, preprocess
from .spectral import FilterbankConfig, FrequencyScale, extract_lp_features, fb_cepstra, plpcc

DB_MAGIC = b"VOXSDB"
DB_VERSION = 1
_T = TypeVar("_T")
_R = TypeVar("_R")


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
    if not isinstance(item, dict) or not isinstance(item.get("speaker_id"), str):
        raise BadFileFormat(f"{path}: every speaker must be an object with a 'speaker_id' string")
    train, test = (item.get(key, []) for key in ("train_utterances", "test_utterances"))
    for paths in (train, test):
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise BadFileFormat(
                f"{path}: speaker {item['speaker_id']!r}: utterance lists must hold path strings"
            )
    return SpeakerEntry(
        speaker_id=item["speaker_id"],
        train_utterances=tuple(str(path.parent / p) for p in train),
        test_utterances=tuple(str(path.parent / p) for p in test),
    )


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a manifest JSON; utterance paths resolve relative to the file."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("speakers"), list):
        raise BadFileFormat(f"{path}: manifest must be an object with a 'speakers' list")
    with named(str(path), ValueError, BadFileFormat):  # overlapping lists or repeated ids
        manifest = CorpusManifest(tuple(_manifest_entry(item, path) for item in doc["speakers"]))
    for entry in manifest.speakers:
        for p in entry.train_utterances + entry.test_utterances:
            if not Path(p).exists():
                raise BadFileFormat(f"{path}: speaker {entry.speaker_id}: missing file {p}")
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
    write_json(path, doc)


@dataclass(frozen=True)
class FusionConfig:
    """Linear score-fusion weight: eta on the spectral stream."""

    eta: float = 0.5

    def __post_init__(self) -> None:
        check_types(self)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting in one place, and all that a database header holds:
    framing, each stream's extractor, and training."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    acrlag: AcrlagConfig = field(default_factory=AcrlagConfig)
    filterbank: FilterbankConfig = field(default_factory=FilterbankConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        """Rules across sections, each section having checked its own: frames
        fit the filterbank's FFT and are longer than ACRLAG's LP order and
        lag, so no extractor can refuse these settings; and each stream's
        features are narrow enough for exact stacked scores."""
        frame_len, fft_size = self.frame.frame_len_samples, self.filterbank.fft_size
        if frame_len > fft_size:
            raise ValueError(
                f"config key 'frame.frame_len_samples': frames of {frame_len} samples "
                f"do not fit a {fft_size}-point FFT (filterbank.fft_size)"
            )
        for name in ("lp_order", "max_lag"):
            lag = getattr(self.acrlag, name)
            if lag >= frame_len:
                raise ValueError(
                    f"config key 'acrlag.{name}': {lag} needs frames longer than "
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
        defaults, sections = cls(), {}
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
            with named(None, TypeError, BadFileFormat):  # a type error names its key
                with named(f"config key {name!r}", ValueError, BadFileFormat):
                    sections[name] = replace(section, **values)
        with named(None, ValueError, BadFileFormat):  # settings that disagree across sections
            return replace(defaults, **sections)


Extractor = Callable[[FrameSequence, PipelineConfig], FeatureMatrix]


def _fb_cepstra_on(scale: FrequencyScale) -> Extractor:
    """fb_cepstra on ``scale``; filterbank settings already on it are passed
    as they are, keeping the filterbank they built."""

    def extract(frames: FrameSequence, config: PipelineConfig) -> FeatureMatrix:
        fb = config.filterbank
        return fb_cepstra(frames, fb if fb.scale is scale else replace(fb, scale=scale))

    return extract


def _extract_lp(kind: FeatureKind) -> Extractor:
    return lambda frames, config: extract_lp_features(frames, kind)


# Each feature kind's extractor, called as extract(frames, config): `voxid
# extract --kind` runs one, and `_streams` takes the pipeline's two from
# here. Each entry looks its function up on this module when it runs, and
# every extraction runs in the calling process, so a wrapper set on the
# module sees every call. (Only the spectral stream's training runs in
# another process: see _train_streams.)
EXTRACTORS: dict[FeatureKind, Extractor] = {
    FeatureKind.ACRLAG: lambda frames, config: extract_acrlag(frames, config.acrlag),
    FeatureKind.MFCC: _fb_cepstra_on(FrequencyScale.MEL),
    FeatureKind.LFCC: _fb_cepstra_on(FrequencyScale.HERTZ),
    FeatureKind.PLPCC: lambda frames, config: plpcc(frames, config.filterbank.fft_size),
    FeatureKind.LPCC: _extract_lp(FeatureKind.LPCC),
    FeatureKind.LSF: _extract_lp(FeatureKind.LSF),
    FeatureKind.LAR: _extract_lp(FeatureKind.LAR),
}


class _Stream(NamedTuple):
    """A feature stream: its extractor, the config passed to it, and the
    kind and dimension of its features and models."""

    name: str
    extract: Extractor
    config: PipelineConfig
    kind: FeatureKind
    dim: int

    def features(self, frames: FrameSequence) -> FeatureMatrix:
        """The stream's features of the frames, for training and scoring alike."""
        features = self.extract(frames, self.config)
        if not np.isfinite(features.values).all():
            raise NumericalFailure(f"{self.name} stream: features are not finite")
        return features


def _streams(config: PipelineConfig) -> tuple[_Stream, _Stream]:
    """(spectral, residual): the order of every per-stream tuple and of each
    speaker's models in a database blob."""

    def stream(name: str, kind: FeatureKind, dim: int) -> _Stream:
        return _Stream(name, EXTRACTORS[kind], config, kind, dim)

    fb, ac = config.filterbank, config.acrlag
    return (
        stream("spectral", fb.feature_kind, fb.n_cep),
        stream("residual", FeatureKind.ACRLAG, ac.dim),
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


class _StreamWorker:
    """The one thread that runs the spectral task of every two-stream call
    in this process, each task in the order it was handed over."""

    def __init__(self) -> None:
        self._tasks: deque[tuple[contextvars.Context, Callable[[], None], threading.Lock]] = deque()
        self._pending = threading.Semaphore(0)
        # A daemon: it waits for work forever, and it must neither hold up
        # the interpreter's exit nor stop before the atexit handlers run.
        self.thread = threading.Thread(target=self._serve, name="voxid-streams", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self._pending.acquire()
            context, task, done = self._tasks.popleft()
            try:
                context.run(task)
            finally:
                done.release()

    def submit(self, task: Callable[[], None]) -> threading.Lock:
        """Queue task() to run in a copy of the caller's context; the lock
        returned is released once it has run."""
        done = threading.Lock()
        done.acquire()
        self._tasks.append((contextvars.copy_context(), task, done))
        self._pending.release()
        return done


_worker: _StreamWorker | None = None
_worker_lock = threading.Lock()


def _stream_worker() -> _StreamWorker | None:
    """This process's stream worker, started on the first call; None when
    no thread can start, as during interpreter shutdown from Python 3.12."""
    global _worker
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                try:
                    _worker = _StreamWorker()
                except RuntimeError:
                    return None
    return _worker


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread does not run here, nor
    is the parent's trainer the child's to use, so the next call starts the
    child's own. The child closes its copy of the parent's end of the
    trainer's pipe, so that the trainer still meets its end of file when
    the parent exits."""
    global _worker, _worker_lock, _trainer
    _worker, _worker_lock = None, threading.Lock()
    if _trainer is not None:
        _trainer.disown()
        _trainer = None


os.register_at_fork(after_in_child=_forget_worker)


def _serve_training(conn, parent_end) -> None:
    """The trainer process's loop: it takes (features, TrainConfig, the
    caller's np.geterr()) and sends back (model or the Exception raised,
    the warnings met as (message, category, filename, lineno)). It ignores
    SIGINT, which a terminal sends the parent's whole process group, and
    it ends at end of file: it closes its copy of the parent's end, so the
    pipe closes once the parent's copy does."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            features, cfg, err = conn.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as met, np.errstate(**err):
            warnings.simplefilter("always")
            try:
                result = gmm.train_gmm(features, cfg)
            except Exception as exc:
                result = exc
        try:
            conn.send((result, [(w.message, w.category, w.filename, w.lineno) for w in met]))
        except OSError:  # the parent gave this trainer up
            return


def _warn_again(message: Warning, category: type, filename: str, lineno: int) -> None:
    """Issue a warning the trainer met as if raised at its place in this
    process: the module at filename, if loaded, gives the filters their
    module name and its once-registry, as warnings.warn would."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


class _Trainer:
    """A process forked from this one that trains the spectral stream's
    mixture of each enrollment while the calling thread trains the residual
    stream's, so that the two trainings do not share a GIL. Forked, it runs
    this process's code on this process's BLAS, and its models are those an
    in-process training would give, bit for bit."""

    def __init__(self, context) -> None:
        self.conn, child_end = context.Pipe()
        self.lock = threading.Lock()  # held from a request to its reply
        self.process = context.Process(
            target=_serve_training, args=(child_end, self.conn), name="voxid-trainer", daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_end.close()

    @property
    def usable(self) -> bool:
        return not self.conn.closed and self.process.is_alive()

    def submit(self, features: FeatureMatrix, cfg: TrainConfig, err: dict) -> bool:
        """Hand the features over; False when the trainer is gone."""
        try:
            self.conn.send((features, cfg, err))
        except OSError:
            return False
        return True

    def result(self) -> GmmModel | Exception | None:
        """The submitted features' model or the Exception their training
        raised, with the warnings it met issued here first (one that a
        filter turns into an error takes the result's place); None when the
        trainer died."""
        try:
            result, met = self.conn.recv()
        except (EOFError, OSError):
            return None
        try:
            for warning in met:
                _warn_again(*warning)
        except Exception as exc:
            return exc
        return result

    def disown(self) -> None:
        """In a forked child: close this copy of the pipe, and keep
        multiprocessing from stopping the parent's trainer at the child's exit."""
        from multiprocessing import process

        self.conn.close()
        process._children.discard(self.process)


_trainer: _Trainer | None = None


def _retire(trainer: _Trainer) -> None:
    """Stop using the trainer: close the pipe and stop the process."""
    global _trainer
    if _trainer is trainer:
        _trainer = None
    trainer.conn.close()
    trainer.process.terminate()


def _spectral_trainer() -> _Trainer | None:
    """This process's trainer, started by the first enrollment and replaced
    when it has died; None where Linux fork is not available or no process
    can start."""
    global _trainer
    if not sys.platform.startswith("linux"):
        return None
    with _worker_lock:
        if _trainer is not None and not _trainer.usable:
            _retire(_trainer)
        if _trainer is None:
            import multiprocessing

            if multiprocessing.current_process().daemon:  # which may start no process
                return None
            try:
                _trainer = _Trainer(multiprocessing.get_context("fork"))
            except (OSError, RuntimeError):  # RuntimeError: a fork at interpreter shutdown
                return None
        return _trainer


def _map_streams(task: Callable[[_T], _R], streams: tuple[_T, _T]) -> list[_R | Exception]:
    """``[task(spectral), task(residual)]``, as enrollment and scoring run
    their streams, with the Exception a task raised in its stream's place:
    the caller decides which error to raise. The residual stream's task
    runs on the calling thread: ACRLAG is the longer stream, so the worker
    has mostly finished by the time it is waited for. The spectral stream's
    task runs on the process's one stream worker (``_stream_worker``), in a
    copy of the caller's context, so a NumPy errstate set by the caller
    holds in it (NumPy 2 keeps errstate in a context variable); concurrent
    callers queue their spectral tasks on it. Where no thread can start,
    both tasks run on the calling thread. A call returns only after both
    tasks have finished, and a BaseException that is no Exception, from
    either task, is then raised, the spectral stream's first."""
    results: list = [None, None]

    def run(index: int) -> None:
        results[index] = _outcome(task, streams[index])

    worker = _stream_worker()
    if worker is None:
        run(0)
        run(1)
    else:
        done = worker.submit(lambda: run(0))
        try:
            run(1)
        finally:
            done.acquire()
    return _both_done(results)


def _outcome(task: Callable[[_T], _R], stream: _T) -> _R | BaseException:
    """task(stream), or the BaseException it raised."""
    try:
        return task(stream)
    except BaseException as exc:
        return exc


def _both_done(results: list) -> list:
    """Both streams' results, once both have finished; a BaseException that
    is no Exception among them is raised, the spectral stream's first."""
    for result in results:
        if isinstance(result, BaseException) and not isinstance(result, Exception):
            raise result
    return results


def _value(result: _R | Exception) -> _R:
    """A stream's result from ``_map_streams``; the Exception in its place is raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _train_streams(
    stacked: tuple[FeatureMatrix, FeatureMatrix], cfg: TrainConfig
) -> list[GmmModel | Exception]:
    """``[train_gmm(spectral), train_gmm(residual)]`` as ``_map_streams``
    returns it, with the Exception a training raised in its stream's place.

    The spectral features go to the process's trainer (``_spectral_trainer``)
    with the caller's ``np.geterr()``, and the residual stream trains on the
    calling thread meanwhile. The trainer's warnings are issued here, under
    the caller's filters, once both have finished. One call at a time uses
    the trainer; another thread's call waits for it. Where there is no
    trainer, or the caller's errstate calls a function, both streams train
    through ``_map_streams``; if the trainer dies, the spectral stream
    trains on the calling thread after the residual one. As with
    ``_map_streams``, a BaseException that is no Exception is raised once
    both streams are done, the spectral stream's first, and the trainer's
    reply is read before it is. One that escapes between the request and
    the reply (an interrupt while sending or waiting) may leave half a
    request or an unread reply in the pipe, so the trainer is retired and
    no later call uses that pipe."""

    def train(features: FeatureMatrix) -> GmmModel:
        return gmm.train_gmm(features, cfg)

    trainer, err = _trainer, np.geterr()
    if trainer is None or "call" in err.values() or "log" in err.values():
        return _map_streams(train, stacked)
    with trainer.lock:
        try:
            sent = trainer.submit(stacked[0], cfg, err)
            residual = _outcome(train, stacked[1])
            spectral = trainer.result() if sent else None
        except BaseException:
            _retire(trainer)
            raise
    if spectral is None:
        _retire(trainer)
        spectral = _outcome(train, stacked[0])
    return _both_done([spectral, residual])


def train_database(manifest: CorpusManifest, config: PipelineConfig) -> SpeakerDatabase:
    """Fit one model per stream per speaker from the manifest's train lists.

    Each utterance in turn is read and preprocessed on the calling thread,
    and then its two streams extract at the same time (see
    ``_map_streams``), on the calling thread and the stream worker. After a
    speaker's last utterance, each stream's features are stacked on the
    calling thread and both streams train at the same time: the spectral
    stream's in the trainer process, forked by the first call before its
    first extraction, and the residual stream's on the calling thread (see
    ``_train_streams``). Each step's first error is raised at once, the
    spectral stream's before the residual stream's, so it is the error that
    one step after another would meet first; and one utterance's frames
    are held at a time.
    """
    if not manifest.speakers:
        raise InsufficientData("manifest lists no speakers")
    streams = _streams(config)
    stream_models: tuple[dict[str, GmmModel], ...] = tuple({} for _ in streams)
    _spectral_trainer()  # forked before this call's first task on the stream worker
    for entry in manifest.speakers:
        sid = entry.speaker_id
        if not entry.train_utterances:
            raise InsufficientData(f"speaker {sid} has no train utterances")
        stream_parts: tuple[list[FeatureMatrix], ...] = tuple([] for _ in streams)
        for path in entry.train_utterances:
            with named(sid):  # read_wav's errors name the path
                audio = audio_io.read_wav(path)
            with named(f"{sid}: {path}"):
                frames = preprocess(audio, config.frame)
                features = _map_streams(lambda stream: stream.features(frames), streams)
                for parts, part in zip(stream_parts, features):
                    parts.append(_value(part))
        stacked = tuple(concatenate_features(parts) for parts in stream_parts)
        fitted = _train_streams(stacked, config.train)
        for stream, models, model in zip(streams, stream_models, fitted):
            with named(f"speaker {sid}, {stream.name} stream", InsufficientData):
                models[sid] = _value(model)
    return SpeakerDatabase(config, manifest.speaker_ids, *stream_models)


@dataclass(frozen=True)
class SpeakerScores:
    speaker_id: str
    spectral: float | None
    residual: float | None


def score_utterance(db: SpeakerDatabase, audio: AudioSignal) -> tuple[SpeakerScores, ...]:
    """Both streams' log-likelihoods against every enrolled speaker.

    The utterance is preprocessed once on the calling thread; then its
    streams extract and score at the same time (see ``_map_streams``). A
    stream that keeps no frame of this utterance (NoFeatures) scores None
    for all speakers.  Every other error propagates to the caller, the
    spectral stream's before the residual stream's, as when one stream
    runs after the other: the config admits no settings an extractor
    would refuse.
    """
    if not db.speaker_ids:
        raise InsufficientData("speaker database is empty")
    frames = preprocess(audio, db.config.frame)
    missing = [None] * db.n_speakers
    pairs = tuple(zip(_streams(db.config), db.model_stacks))
    scored = _map_streams(lambda pair: gmm.stack_scores(pair[1], pair[0].features(frames)), pairs)
    columns = [
        missing if isinstance(column, NoFeatures) else _value(column).tolist() for column in scored
    ]
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
            with named(f"speaker {sid}, {stream.name} model", BadFileFormat):
                (size,) = reader.unpack("<Q")
                models[sid] = gmm.model_from_bytes(reader.take(size))
    reader.end()
    with named("database", ValueError, BadFileFormat):  # repeated ids; models unlike the config
        return SpeakerDatabase(config, tuple(speaker_ids), *stream_models)


def save_database(db: SpeakerDatabase, path: str | Path) -> None:
    Path(path).write_bytes(database_to_bytes(db))


def load_database(path: str | Path) -> SpeakerDatabase:
    blob = read_file(path)
    with named(str(path), BadFileFormat):
        return database_from_bytes(blob)


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
    A negative count or seed, or an utterance length that
    ``corpus.utterance_layout`` refuses, is refused before anything is written.
    """
    for name, value in (
        ("train_utterances", train_utterances),
        ("test_utterances", test_utterances),
        ("seed", seed),
    ):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    corpus.utterance_layout(train_seconds, "train_seconds")
    corpus.utterance_layout(test_seconds, "test_seconds")
    voices = corpus.make_voices(n_speakers, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
