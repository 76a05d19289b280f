"""Command-line interface: corpus synthesis, feature extraction, model
training, identification, and evaluation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import audio_io
from .errors import BadFileFormat, VoxidError, named
from .features import FeatureKind, export_csv, read_json, write_json
from .sid_pipeline import (
    EXTRACTORS,
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
from .signal_prep import preprocess


def _load_config(path: str | None) -> PipelineConfig:
    """Pipeline settings from the --config JSON file, or the defaults; every
    error names the file."""
    if path is None:
        return PipelineConfig()
    doc = read_json(path)
    with named(str(path), BadFileFormat):
        return PipelineConfig.from_json_dict(doc)


def _fusion(flag: str, value: str) -> FusionConfig:
    """The fusion weight given to ``flag``; an error names both."""
    try:
        return FusionConfig(float(value))
    except ValueError:
        raise ValueError(f"{flag} {value!r}: a fusion weight is a number in [0, 1]") from None


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
    extract = EXTRACTORS[FeatureKind.parse(args.kind)]
    config = _load_config(args.config)
    audio = audio_io.read_wav(args.audio)
    frames = preprocess(audio, config.frame)
    # The frames a kind cannot fit come from the config: name both.
    kind = f"--kind {args.kind}"
    with named(kind if args.config is None else f"{args.config}: {kind}"):
        matrix = extract(frames, config)
    export_csv(matrix, args.out)
    print(f"{matrix.kind.value}: {matrix.n_frames} frames x {matrix.dim} -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    manifest = load_manifest(args.manifest)
    db = train_database(manifest, config)
    save_database(db, args.out)
    print(
        f"trained {db.n_speakers} speakers x 2 streams "
        f"(M={config.train.n_components}) -> {args.out}"
    )
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    fusion = _fusion("--eta", args.eta)
    db = load_database(args.db)
    audio = audio_io.read_wav(args.audio)
    result = identify(db, audio, fusion)
    fused = result.fused_scores()
    print(f"{'speaker':<12} {'fused':>14} {'spectral':>14} {'residual':>14}")
    for s in sorted(result.scores, key=lambda s: -fused[s.speaker_id]):
        spectral = f"{s.spectral:.2f}" if s.spectral is not None else "-"
        residual = f"{s.residual:.2f}" if s.residual is not None else "-"
        print(f"{s.speaker_id:<12} {fused[s.speaker_id]:>14.2f} {spectral:>14} {residual:>14}")
    print(f"identified: {result.fused_winner}")
    if args.json:
        write_json(args.json, asdict(result))
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
    fusion = _fusion("--eta", args.eta)
    db = load_database(args.db)
    manifest = load_manifest(args.manifest)
    report = evaluate(db, manifest, fusion)
    _print_report(report)
    if args.report:
        write_json(args.report, report.to_json_dict())
        print(f"report: {args.report}")
    return 0


def _cmd_fuse_sweep(args: argparse.Namespace) -> int:
    etas = [_fusion("--etas", v).eta for v in args.etas.split(",")]
    db = load_database(args.db)
    manifest = load_manifest(args.manifest)
    reports = fusion_sweep(db, manifest, etas)
    print(f"{'eta':>6} {'PIA spectral':>14} {'PIA residual':>14} {'PIA fused':>12}")
    for report in reports:
        print(
            f"{report.eta:>6.2f} {report.pia_spectral:>14.2f} "
            f"{report.pia_residual:>14.2f} {report.pia_fused:>12.2f}"
        )
    if args.report:
        write_json(args.report, [r.to_json_dict() for r in reports])
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
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--config", help="JSON file of pipeline settings")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a speaker database from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output database file")
    p.add_argument("--config", help="JSON file of pipeline settings")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("identify", help="rank enrolled speakers for one WAV")
    p.add_argument("audio", help="input WAV path")
    p.add_argument("--db", required=True)
    p.add_argument("--eta", default="0.5")
    p.add_argument("--json", help="write the ranking as JSON here")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="run the manifest's test set and report PIA")
    p.add_argument("--db", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--eta", default="0.5")
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
