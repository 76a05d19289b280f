"""Command-line interface: corpus synthesis, feature extraction, model
training, identification, and evaluation."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import audio_io
from .acrlag import extract_acrlag
from .errors import BadFileFormat, VoxidError
from .features import FeatureKind, FeatureMatrix, export_csv, save_features
from .gmm import ALLOWED_COMPONENT_COUNTS
from .sid_pipeline import (
    FusionConfig,
    PipelineConfig,
    evaluate,
    fusion_sweep,
    identify,
    load_database,
    load_manifest,
    save_database,
    synth_corpus,
    train_database,
)
from .signal_prep import FrameSequence, preprocess
from .spectral import (
    FrequencyScale,
    PlpConfig,
    extract_lp_features,
    fb_cepstra,
    plpcc,
)


class Extractor(NamedTuple):
    """``voxid extract`` for one kind: ``run(frames, config, settings)`` and
    the flags it reads, as {argparse dest: setting name}.  Unset flags keep
    the extractor's own defaults."""

    run: Callable[[FrameSequence, PipelineConfig, dict], FeatureMatrix]
    flags: dict[str, str]


def _filterbank(scale: FrequencyScale) -> Extractor:
    def run(frames, config, settings):
        return fb_cepstra(frames, replace(config.filterbank, scale=scale, **settings))

    return Extractor(run, {"n_filters": "n_filters", "n_cep": "n_cep", "fft_size": "fft_size"})


def _lp_transform(kind: FeatureKind) -> Extractor:
    def run(frames, config, settings):
        return extract_lp_features(frames, kind, **settings)

    return Extractor(run, {"order": "order"})


EXTRACTORS: dict[FeatureKind, Extractor] = {
    FeatureKind.ACRLAG: Extractor(
        lambda frames, config, settings: extract_acrlag(
            frames, replace(config.acrlag, **settings)
        ),
        {"lp_order": "lp_order", "lag": "max_lag"},
    ),
    FeatureKind.MFCC: _filterbank(FrequencyScale.MEL),
    FeatureKind.LFCC: _filterbank(FrequencyScale.HERTZ),
    FeatureKind.PLPCC: Extractor(
        lambda frames, config, settings: plpcc(frames, PlpConfig(**settings)),
        {"order": "model_order", "n_cep": "n_cep", "fft_size": "fft_size"},
    ),
    FeatureKind.LPCC: _lp_transform(FeatureKind.LPCC),
    FeatureKind.LSF: _lp_transform(FeatureKind.LSF),
    FeatureKind.LAR: _lp_transform(FeatureKind.LAR),
}

# Settings flags of `voxid extract`: argparse dest -> help text.
_EXTRACT_FLAGS = {
    "lp_order": "residual LP order",
    "lag": "maximum lag",
    "order": "model order",
    "n_filters": "filterbank size",
    "n_cep": "cepstra kept",
    "fft_size": "FFT length",
}


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """Base config from --config JSON (if any), then flag overrides."""
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_bytes())
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise BadFileFormat(f"{path}: not valid JSON ({exc})") from None
        config = PipelineConfig.from_json_dict(doc)
    else:
        config = PipelineConfig()
    frame_overrides = {
        name: getattr(args, flag)
        for name, flag in (
            ("frame_len_samples", "frame_len"),
            ("hop_samples", "hop"),
            ("preemphasis", "preemphasis"),
            ("energy_threshold_ratio", "energy_threshold"),
        )
        if getattr(args, flag, None) is not None
    }
    if frame_overrides:
        config = replace(config, frame=replace(config.frame, **frame_overrides))
    if getattr(args, "components", None) is not None:
        config = replace(config, train=replace(config.train, n_components=args.components))
    return config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file overriding pipeline defaults")
    parser.add_argument("--frame-len", type=int, help="frame length in samples")
    parser.add_argument("--hop", type=int, help="hop in samples")
    parser.add_argument("--preemphasis", type=float, help="pre-emphasis factor")
    parser.add_argument(
        "--energy-threshold", type=float, help="silence threshold ratio vs max block energy"
    )


def _cmd_synth_corpus(args: argparse.Namespace) -> int:
    manifest, manifest_path = synth_corpus(
        args.out,
        n_speakers=args.speakers,
        train_utterances=args.train_utterances,
        test_utterances=args.test_utterances,
        train_seconds=args.train_seconds,
        test_seconds=args.test_seconds,
        seed=args.seed,
    )
    total = sum(
        len(s.train_utterances) + len(s.test_utterances) for s in manifest.speakers
    )
    print(f"wrote {total} utterances for {len(manifest.speakers)} speakers")
    print(f"manifest: {manifest_path}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args)
    audio = audio_io.read_wav(args.audio)
    frames = preprocess(audio, config.frame)
    extractor = EXTRACTORS[FeatureKind.parse(args.kind)]
    settings = {
        name: getattr(args, dest)
        for dest, name in extractor.flags.items()
        if getattr(args, dest) is not None
    }
    matrix = extractor.run(frames, config, settings)
    save_features(matrix, args.out)
    if args.csv:
        export_csv(matrix, args.csv)
    print(f"{matrix.kind.value}: {matrix.n_frames} frames x {matrix.dim} -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    db = train_database(manifest, config)
    save_database(db, args.out)
    print(
        f"trained {db.n_speakers} speakers x 2 streams "
        f"(M={config.train.n_components}) -> {args.out}"
    )
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    audio = audio_io.read_wav(args.audio)
    result = identify(db, audio, FusionConfig(args.eta))
    fused = result.fused_scores()
    print(f"{'speaker':<12} {'fused':>14} {'spectral':>14} {'residual':>14}")
    for s in sorted(result.scores, key=lambda s: -fused.get(s.speaker_id, -float("inf"))):
        spectral = f"{s.spectral:.2f}" if s.spectral is not None else "-"
        residual = f"{s.residual:.2f}" if s.residual is not None else "-"
        fused_str = f"{fused[s.speaker_id]:.2f}" if s.speaker_id in fused else "-"
        print(f"{s.speaker_id:<12} {fused_str:>14} {spectral:>14} {residual:>14}")
    print(f"identified: {result.fused_winner}")
    if args.json:
        Path(args.json).write_text(json.dumps(asdict(result), indent=2, sort_keys=True) + "\n")
    return 0


def _print_report(report) -> None:
    print(
        f"trials: {report.n_trials}  scored: {report.n_scored}  failed: {report.n_failed}"
    )
    print(f"{'stream':<12} {'correct':>8} {'PIA %':>8}")
    for name, n_correct, pia in (
        ("spectral", report.correct_spectral, report.pia_spectral),
        ("residual", report.correct_residual, report.pia_residual),
        (f"fused {report.eta:.2f}", report.correct_fused, report.pia_fused),
    ):
        print(f"{name:<12} {n_correct:>8} {pia:>8.2f}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    manifest = load_manifest(args.manifest)
    report = evaluate(db, manifest, FusionConfig(args.eta))
    _print_report(report)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report: {args.report}")
    return 0


def _cmd_fuse_sweep(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    manifest = load_manifest(args.manifest)
    etas = [float(v) for v in args.etas.split(",")]
    reports = fusion_sweep(db, manifest, etas)
    print(f"{'eta':>6} {'PIA spectral':>14} {'PIA residual':>14} {'PIA fused':>12}")
    for report in reports:
        print(
            f"{report.eta:>6.2f} {report.pia_spectral:>14.2f} "
            f"{report.pia_residual:>14.2f} {report.pia_fused:>12.2f}"
        )
    if args.report:
        doc = [r.to_json_dict() for r in reports]
        Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"report: {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxid",
        description="Two-stream (vocal tract + vocal source) speaker identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the synthetic speaker corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--train-utterances", type=int, default=10)
    p.add_argument("--test-utterances", type=int, default=10)
    p.add_argument("--train-seconds", type=float, default=4.0)
    p.add_argument("--test-seconds", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth_corpus)

    p = sub.add_parser("extract", help="extract features from one WAV file")
    p.add_argument("audio", help="input WAV path")
    p.add_argument("--kind", required=True, choices=[k.value.lower() for k in EXTRACTORS])
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--csv", help="also export CSV here")
    for dest, text in _EXTRACT_FLAGS.items():
        kinds = "/".join(k.value.lower() for k, e in EXTRACTORS.items() if dest in e.flags)
        p.add_argument("--" + dest.replace("_", "-"), type=int, help=f"{text} ({kinds})")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a speaker database from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output database file")
    p.add_argument("--components", type=int, choices=ALLOWED_COMPONENT_COUNTS)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("identify", help="rank enrolled speakers for one WAV")
    p.add_argument("audio", help="input WAV path")
    p.add_argument("--db", required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--json", help="write the ranking as JSON here")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="run the manifest's test set and report PIA")
    p.add_argument("--db", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--report", help="write the full report as JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("fuse-sweep", help="evaluate across a grid of fusion weights")
    p.add_argument("--db", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--etas",
        default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        help="comma-separated fusion weights",
    )
    p.add_argument("--report", help="write all reports as JSON here")
    p.set_defaults(func=_cmd_fuse_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VoxidError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
