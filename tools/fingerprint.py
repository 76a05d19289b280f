"""SHA-256 fingerprint of voxid's outputs, to tell whether a change moves any byte.

    python tools/fingerprint.py write OUT.json
    python tools/fingerprint.py compare BASE.json HEAD.json

``write`` synthesizes the seed-0 default corpus in a temporary directory and
drives ``voxid.cli.main`` in this process, so the bytes hashed are the
CLI's: every WAV and the manifest, the databases trained at M=8 and M=32,
``identify --json`` for spk02/test_00.wav at M=8, the ``evaluate`` and
``fuse-sweep`` reports at M=8, and the CSV that ``extract`` writes for that
WAV in every kind. Each database is also saved with 90 seeded decoys, as
the benchmark's wide database is built, and ``identify --json`` and
``evaluate`` run against those 100 speakers too: enough models that
scoring splits them into blocks. The reports hold utterance paths, so the
corpus directory is replaced in them by a fixed token before they are
hashed.

Bytes hold only on one platform: ``np.exp`` and ``np.log`` give other bits
at another SIMD level, and at M >= 32 training sums depend on the BLAS
thread count. Each file therefore records a platform key, and ``compare``
prints any difference in it before the hashes that moved. ``compare``
exits 1 if a hash moved; a name that only one side has is listed but does
not fail. Compare two commits on one machine by running ``write`` with
each commit's ``src`` on ``PYTHONPATH``. ``compare`` reads only the two
JSON files, and needs neither voxid nor NumPy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

CORPUS_TOKEN = "<corpus>"
EXTRACT_KINDS = ("acrlag", "mfcc", "lfcc", "plpcc", "lpcc", "lsf", "lar")
# Outputs whose bytes hold paths under the corpus directory.
REPORTS = ("evaluate", "fuse_sweep")
# Decoy i copies speaker i mod S and moves every mean by one standard
# deviation times a normal draw of this generator: perfbench's decoys.
DECOYS = 90
DECOY_SEED = (0, 0xDEC0)


def platform_key() -> dict:
    """What the hashed bytes depend on besides the code: the interpreter, the
    NumPy build, the CPU features NumPy dispatches on and the BLAS threads."""
    import numpy as np
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    dispatched = [f for f in __cpu_baseline__ + __cpu_dispatch__ if __cpu_features__.get(f)]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_dispatch": dispatched,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _voxid(*argv: object) -> None:
    """Run one CLI command, its printout discarded; a failure raises."""
    from voxid import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([str(arg) for arg in argv])
    if status != 0:
        raise RuntimeError(f"voxid {' '.join(map(str, argv))} exited {status}")


def save_with_decoys(db_path: Path, out: Path) -> None:
    """Save to out the database at db_path with DECOYS seeded decoy
    speakers after its own, built from the public constructors."""
    import numpy as np
    from voxid import GmmModel, load_database
    from voxid.sid_pipeline import SpeakerDatabase, save_database

    db = load_database(db_path)
    rng = np.random.default_rng(DECOY_SEED)
    stores = (dict(db.spectral_models), dict(db.residual_models))
    ids = list(db.speaker_ids)
    for i in range(DECOYS):
        base, decoy = db.speaker_ids[i % db.n_speakers], f"decoy{i:03d}"
        for store in stores:
            m = store[base]
            shift = np.sqrt(m.variances) * rng.standard_normal(m.means.shape)
            store[decoy] = GmmModel(m.feature_kind, m.weights, m.means + shift, m.variances)
        ids.append(decoy)
    save_database(SpeakerDatabase(db.config, tuple(ids), *stores), out)


def produce(
    workdir: Path,
    speakers: int = 10,
    train_utterances: int = 10,
    test_utterances: int = 10,
    seconds: tuple[float, float] = (4.0, 3.0),
    orders: tuple[int, ...] = (8, 32),
) -> None:
    """Write every fingerprinted output under workdir. The corpus is seed 0;
    a database is trained at each order, and the first is the one that
    identifies and evaluates alone; with DECOYS decoys, every one does."""
    corpus, outputs, configs = (workdir / name for name in ("corpus", "outputs", "configs"))
    outputs.mkdir(parents=True)
    configs.mkdir()
    _voxid(
        "synth-corpus", "--out", corpus, "--seed", 0, "--speakers", speakers,
        "--train-utterances", train_utterances, "--test-utterances", test_utterances,
        "--train-seconds", seconds[0], "--test-seconds", seconds[1],
    )
    manifest, wav = corpus / "manifest.json", corpus / "spk02" / "test_00.wav"
    for m in orders:
        config = configs / f"m{m}.json"
        config.write_text(json.dumps({"train": {"n_components": m}}))
        db = outputs / f"db_m{m}.db"
        _voxid("train", "--manifest", manifest, "--out", db, "--config", config)
    m = orders[0]
    db = outputs / f"db_m{m}.db"
    scored = ("--db", db, "--manifest", manifest)
    _voxid("identify", wav, "--db", db, "--json", outputs / f"identify_m{m}.json")
    _voxid("evaluate", *scored, "--report", outputs / f"evaluate_m{m}.json")
    _voxid("fuse-sweep", *scored, "--report", outputs / f"fuse_sweep_m{m}.json")
    for kind in EXTRACT_KINDS:
        _voxid("extract", wav, "--kind", kind, "--out", outputs / f"extract_{kind}.csv")
    wide = f"s{speakers + DECOYS}"
    for m in orders:
        db = outputs / f"db_m{m}_{wide}.db"
        save_with_decoys(outputs / f"db_m{m}.db", db)
        _voxid("identify", wav, "--db", db, "--json", outputs / f"identify_m{m}_{wide}.json")
        _voxid(
            "evaluate", "--db", db, "--manifest", manifest,
            "--report", outputs / f"evaluate_m{m}_{wide}.json",
        )


def fingerprint(workdir: Path) -> dict:
    """The platform key and the SHA-256 of every file that ``produce`` wrote,
    named by its path under workdir."""
    corpus = str(workdir / "corpus").encode()
    hashes = {}
    written = (p for d in ("corpus", "outputs") for p in (workdir / d).rglob("*"))
    for path in sorted(p for p in written if p.is_file()):
        data = path.read_bytes()
        if path.stem.startswith(REPORTS):
            data = data.replace(corpus, CORPUS_TOKEN.encode())
        hashes[path.relative_to(workdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return {"platform": platform_key(), "hashes": hashes}


def write(out: Path, **corpus) -> None:
    """Fingerprint the outputs of ``produce(**corpus)`` into out as JSON."""
    with tempfile.TemporaryDirectory(prefix="voxid-fingerprint-") as tmp:
        produce(Path(tmp), **corpus)
        doc = fingerprint(Path(tmp))
    Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def compare(base: dict, head: dict) -> tuple[list[str], bool]:
    """Lines naming each platform difference, then each hash that moved or
    that one side lacks; and whether any hash moved."""
    lines = [
        f"platform {key}: {base['platform'].get(key)!r} -> {head['platform'].get(key)!r}"
        for key in sorted(base["platform"].keys() | head["platform"].keys())
        if base["platform"].get(key) != head["platform"].get(key)
    ]
    old, new = base["hashes"], head["hashes"]
    moved = sorted(name for name in old.keys() & new.keys() if old[name] != new[name])
    lines += [f"moved: {name}" for name in moved]
    lines += [f"only in base: {name}" for name in sorted(old.keys() - new.keys())]
    lines += [f"only in head: {name}" for name in sorted(new.keys() - old.keys())]
    return lines, bool(moved)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="fingerprint this checkout's outputs").add_argument("out")
    p = sub.add_parser("compare", help="list the hashes that moved; exit 1 if any did")
    p.add_argument("base")
    p.add_argument("head")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(Path(args.out))
        return 0
    base, head = (json.loads(Path(p).read_text()) for p in (args.base, args.head))
    lines, moved = compare(base, head)
    print("\n".join(lines) if lines else f"all {len(head['hashes'])} hashes equal")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
