"""Workloads, correctness checks and metrics of the voxid benchmark.

Every workload runs on the synthetic corpus that ``synth_corpus(seed)``
writes: 10 speakers, each with 10 train utterances of 4 s and 20 test
utterances of 3 s, spk00 and spk01 sharing a vocal tract. Load is one client
in a closed loop: the next operation starts when the previous one returns.
The benchmark reaches voxid only through its public functions.

- enroll: enroll each speaker (``train_database`` on a one-speaker manifest),
  pass after pass; then ``save_database`` on the full set and one identify
  pass over the test utterances against it.
- identify: enroll every speaker once and save the database; then
  ``read_wav`` + ``identify`` of every test utterance against the 10-speaker
  database, pass after pass.
- wide_db: the same loop against 100 speakers, the 10 enrolled ones plus
  90 seeded decoys.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import voxid
from voxid import sid_pipeline
from voxid.errors import VoxidError
from calibration import time_reference
from tracing import LayerTotals, Tracer

OUT_DIR = ".perfbench_run"
N_SPEAKERS = 10
TRAIN_UTTERANCES, TRAIN_SECONDS = 10, 4.0
# 20 rather than the paper's 10 test utterances per speaker: PIA over 100
# trials varies across seeds by about 6%, which would need a looser bound.
# A full pass, which PIA needs, stays within one run on the wide database.
TEST_UTTERANCES, TEST_SECONDS = 20, 3.0
TWINS = ("spk00", "spk01")
N_DECOYS = 90
# At 0.3 sigma the decoys sit so close to the real speakers that fused PIA
# (seed 0, 100 trials) falls from 99% to 68%; at 1 sigma it stays at 99%.
DECOY_SHIFT_SIGMA = 1.0
# Mixed into the decoy generator's seed so its draws never coincide with the
# corpus generator's draws for the same benchmark seed.
DECOY_STREAM = 0xDEC0
SETUP_REPEATS = 3
RECHECKED = 2
WARMUP_UTTERANCES = 3
# Passes of the reference computation (3 to 6 ms each on a 2-core x86-64
# virtual machine) after every timed operation: about a quarter to a third
# of the operation's own time.
REF_CALLS = {"enroll": 20, "identify": 1, "wide_db": 4}

# Fresh interpreter that does what a user's process does before its first
# identification (load_database) or enrollment (load_manifest), then reports
# the monotonic clock, which every process on the machine shares.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import voxid
if sys.argv[2] == "database":
    n = voxid.load_database(sys.argv[3]).n_speakers
else:
    n = len(voxid.load_manifest(sys.argv[3]).speakers)
print(time.monotonic_ns(), n)
"""


class Run:
    """State of one benchmark run: arguments, tracer, checks and counts."""

    def __init__(self, args, root: Path, src: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = root
        self.src = src
        self.out = root / OUT_DIR
        self.work = self.out / f"work-{os.getpid()}"
        self.tracer = Tracer(voxid)
        self.checks: dict[str, bool] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        # Figures printed and written to the report but not gated metrics.
        self.reported: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", flush=True)

    def call(self, name: str, fn, *args):
        """fn(*args), inside a span when the current operation is traced."""
        if self.tracer.op is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def span(self, name: str, fn, *args):
        """fn(*args) inside a span of its own, outside any operation."""
        return self.tracer.call(name, fn, *args)


# --- inputs -------------------------------------------------------------------


def make_corpus(run: Run):
    return run.span(
        "corpus.synth_corpus", sid_pipeline.synth_corpus, run.work / "corpus", N_SPEAKERS,
        TRAIN_UTTERANCES, TEST_UTTERANCES, TRAIN_SECONDS, TEST_SECONDS, run.seed,
    )


def merge_databases(dbs: list) -> sid_pipeline.SpeakerDatabase:
    spectral, residual = {}, {}
    for db in dbs:
        spectral.update(db.spectral_models)
        residual.update(db.residual_models)
    return sid_pipeline.SpeakerDatabase(
        config=dbs[0].config,
        speaker_ids=tuple(sid for db in dbs for sid in db.speaker_ids),
        spectral_models=spectral,
        residual_models=residual,
    )


def add_decoys(db: sid_pipeline.SpeakerDatabase, seed: int) -> sid_pipeline.SpeakerDatabase:
    """db plus N_DECOYS speakers, each a trained speaker's models with the
    means moved by a seeded normal draw of DECOY_SHIFT_SIGMA standard
    deviations per component and dimension."""
    rng = np.random.default_rng([seed, DECOY_STREAM])
    spectral, residual = dict(db.spectral_models), dict(db.residual_models)
    ids = list(db.speaker_ids)
    for i in range(N_DECOYS):
        base = db.speaker_ids[i % db.n_speakers]
        decoy = f"decoy{i:03d}"
        for store in (spectral, residual):
            m = store[base]
            shift = DECOY_SHIFT_SIGMA * np.sqrt(m.variances) * rng.standard_normal(m.means.shape)
            store[decoy] = voxid.GmmModel(m.feature_kind, m.weights, m.means + shift, m.variances)
        ids.append(decoy)
    return sid_pipeline.SpeakerDatabase(db.config, tuple(ids), spectral, residual)


# --- measurement --------------------------------------------------------------


def measure_setup(run: Run, kind: str, path: Path, expected: int) -> float:
    """Median time from spawning a fresh interpreter to its first timed call."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(run.src), kind, str(path)],
            capture_output=True, text=True, timeout=120, cwd=run.root,
        )
        fields = proc.stdout.split()
        ok = proc.returncode == 0 and len(fields) == 2 and fields[1] == str(expected)
        run.check("setup_child_loads", ok, proc.stderr[-400:])
        if ok:
            times.append((int(fields[0]) - start) / 1e9)
    run.samples["setup_s"] = len(times)
    return statistics.median(times) if times else float("nan")


def closed_loop(
    run: Run, items: list, operate, summarize, min_ops: int, seconds: float, trace: bool,
    ref_calls: int = 0,
) -> dict:
    """One client cycling over items until seconds have passed and at least
    min_ops operations ran, stopping only at the end of a pass so that every
    item is measured equally often.

    With trace set, traced and untraced operations alternate, and the
    alternation flips each pass so that items are measured both ways.
    With ref_calls set, every operation is followed by that many passes of
    the reference computation, timed apart from the operation.
    Returns the latencies (ms) of operations that did not raise, with the
    reference time (ms per pass) measured after each untraced one, the first
    output per item, and every summarized output per item in order.
    """
    plain, ref_ms, traced_ms, firsts, outputs, traced_ops = [], [], [], {}, {}, set()
    ref_total_ns = 0
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        k, passes = i % len(items), i // len(items)
        traced = trace and (i + passes) % 2 == 1
        run.tracer.op = i if traced else None
        with run.tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter_ns()
            try:
                out = operate(items[k])
            except VoxidError as exc:
                out = exc
            t1 = time.perf_counter_ns()
        run.tracer.op = None
        if ref_calls:
            t2 = time.perf_counter_ns()
            ref = time_reference(ref_calls)
            ref_total_ns += time.perf_counter_ns() - t2
        if isinstance(out, VoxidError):
            failed += 1
            summary = ("failed", type(out).__name__, str(out))
        else:
            (traced_ms if traced else plain).append((t1 - t0) / 1e6)
            if ref_calls and not traced:
                ref_ms.append(ref)
            summary = summarize(out)
        if traced:
            traced_ops.add(i)
        firsts.setdefault(k, out)
        outputs.setdefault(k, []).append(summary)
        i += 1
        whole_pass = i % len(items) == 0
        if whole_pass and i >= min_ops and time.perf_counter() - start >= seconds:
            break
    run.attempted += i
    run.failed += failed
    return {
        "elapsed_s": time.perf_counter() - start,
        "ref_s": ref_total_ns / 1e9,
        "ops": i,
        "failed": failed,
        "plain_ms": plain,
        "ref_ms": ref_ms,
        "traced_ms": traced_ms,
        "traced_ops": traced_ops,
        "firsts": [firsts[k] for k in range(len(items))],
        "outputs": outputs,
    }


def check_repeats(run: Run, name: str, loop: dict, items: list, operate, summarize) -> None:
    """Every item's output must repeat exactly on every later pass.

    The first RECHECKED items run once more, untimed, so that a run whose
    loop made a single pass still checks repeatability.
    """
    n = min(RECHECKED, len(items))
    again = closed_loop(run, items[:n], operate, summarize, n, 0.0, False)
    for k, seen in again["outputs"].items():
        loop["outputs"][k].extend(seen)
    for k, seen in loop["outputs"].items():
        run.check(name, all(s == seen[0] for s in seen[1:]), f"item {k} changed between passes")


def winners(result) -> tuple:
    """(fused, spectral, residual) winners; all None for a failed trial."""
    if isinstance(result, VoxidError):
        return (None, None, None)
    return (result.fused_winner, result.spectral_winner, result.residual_winner)


def identification_summary(result) -> tuple:
    scores = tuple((s.speaker_id, s.spectral, s.residual) for s in result.scores)
    return winners(result) + (scores,)


def loop_metrics(run: Run, loop: dict) -> dict[str, float]:
    """Latency of the timed loop's operations, in multiples of the reference.

    On a shared 2-core x86-64 virtual machine the CPU speed switched between
    levels up to 1.5x apart, in phases of seconds to minutes, so latency in
    ms depends on the phase a run lands in. Each operation's latency is
    therefore divided by the reference computation's time measured right
    after it (calibration.py), and the median of these ratios is the gated
    metric. Their p90, latency in ms, throughput and the reference's own time
    are reported beside it, not gated.
    """
    samples = np.asarray(loop["plain_ms"])
    ref = np.asarray(loop["ref_ms"])
    ratios = samples / ref
    completed = loop["ops"] - loop["failed"]
    n = len(samples)
    run.samples["latency_p50_ref"] = n
    run.reported["latency_p90_ref"] = {
        "value": float(np.percentile(ratios, 90)), "unit": "ref", "n": n
    }
    for q in (10, 50, 90):
        run.reported[f"latency_p{q}_ms"] = {
            "value": float(np.percentile(samples, q)), "unit": "ms", "n": n
        }
    run.reported["ops_per_s"] = {
        "value": completed / (loop["elapsed_s"] - loop["ref_s"]), "unit": "1/s", "n": completed
    }
    run.reported["reference_p50_ms"] = {"value": float(np.median(ref)), "unit": "ms", "n": n}
    return {"latency_p50_ref": float(np.median(ratios))}


def accuracy_metrics(run: Run, trials: list, loop: dict) -> dict[str, float]:
    """PIA per stream and fused, counted as evaluate() counts it, from the
    first pass; fused PIA on the twin pair's trials goes to the report."""
    scored = twins = twins_correct = 0
    correct = {"fused": 0, "spectral": 0, "residual": 0}
    for (speaker, _), result in zip(trials, loop["firsts"]):
        if isinstance(result, VoxidError):
            continue
        scored += 1
        for stream, winner in zip(correct, winners(result)):
            correct[stream] += winner == speaker
        if speaker in TWINS:
            twins += 1
            twins_correct += result.fused_winner == speaker
    metrics = {f"pia_{stream}": 100.0 * n / scored for stream, n in correct.items()}
    for name in metrics:
        run.samples[name] = scored
    run.reported["twin_pia_fused"] = {
        "value": 100.0 * twins_correct / twins, "unit": "%", "n": twins
    }
    return metrics


def enroll_loop(run: Run, manifest, seconds: float, trace: bool, ref_calls: int = 0) -> dict:
    """Enroll each speaker on its own, pass after pass, at least one pass."""
    config = sid_pipeline.PipelineConfig()
    items = [sid_pipeline.CorpusManifest((entry,)) for entry in manifest.speakers]

    def operate(one):
        return run.call("sid_pipeline.train_database", sid_pipeline.train_database, one, config)

    summarize = sid_pipeline.database_to_bytes
    loop = closed_loop(run, items, operate, summarize, len(items), seconds, trace, ref_calls)
    check_repeats(run, "enrolled_models_repeat", loop, items, operate, summarize)
    return loop


def identify_loop(
    run: Run, db, paths: list[str], seconds: float, trace: bool, ref_calls: int = 0
) -> dict:
    """read_wav + identify of each path, pass after pass, at least one pass."""

    def operate(path):
        audio = voxid.audio_io.read_wav(path)
        return run.call("sid_pipeline.identify", sid_pipeline.identify, db, audio)

    summarize = identification_summary
    loop = closed_loop(run, paths, operate, summarize, len(paths), seconds, trace, ref_calls)
    check_repeats(run, "identify_scores_repeat", loop, paths, operate, summarize)
    return loop


def save_and_reload(run: Run, db, path: Path):
    """save_database then load_database; the round trip must be bit-exact."""
    run.span("sid_pipeline.save_database", sid_pipeline.save_database, db, path)
    blob = path.read_bytes()
    run.check("saved_database_bytes", blob == sid_pipeline.database_to_bytes(db))
    loaded = run.span("sid_pipeline.load_database", sid_pipeline.load_database, path)
    run.check("database_round_trip", sid_pipeline.database_to_bytes(loaded) == blob)
    run.info["database_bytes"] = len(blob)
    run.info["database_sha256"] = hashlib.sha256(blob).hexdigest()
    return loaded


def labelled_trials(manifest) -> list[tuple[str, str]]:
    """(true speaker, path) of every test utterance, in evaluate()'s order."""
    return [(e.speaker_id, p) for e in manifest.speakers for p in e.test_utterances]


# --- workloads ----------------------------------------------------------------


def workload_enroll(run: Run) -> tuple[dict, dict]:
    manifest, manifest_path = make_corpus(run)
    metrics = {"setup_s": measure_setup(run, "manifest", manifest_path, N_SPEAKERS)}
    sid_pipeline.train_database(
        sid_pipeline.CorpusManifest(manifest.speakers[:1]), sid_pipeline.PipelineConfig()
    )  # warm-up, untimed
    loop = enroll_loop(run, manifest, run.seconds, run.trace, REF_CALLS["enroll"])
    metrics.update(loop_metrics(run, loop))
    db = save_and_reload(run, merge_databases(loop["firsts"]), run.work / "speakers.db")
    # One identify pass against the database just enrolled: its accuracy
    # guards against a training change that alters answers.
    trials = labelled_trials(manifest)
    check = identify_loop(run, db, [p for _, p in trials], 0.0, False)
    metrics.update(accuracy_metrics(run, trials, check))
    return metrics, loop


def identify_workload(run: Run, wide: bool) -> tuple[dict, dict]:
    manifest, _ = make_corpus(run)
    # One enrollment pass builds the database the loop reads.
    enrolled = enroll_loop(run, manifest, 0.0, False)["firsts"]
    db = merge_databases(enrolled)
    if wide:
        db = add_decoys(db, run.seed)
        again = add_decoys(merge_databases(enrolled), run.seed)
        run.check(
            "decoys_deterministic",
            sid_pipeline.database_to_bytes(db) == sid_pipeline.database_to_bytes(again),
        )
    db_path = run.work / "speakers.db"
    db = save_and_reload(run, db, db_path)
    metrics = {"setup_s": measure_setup(run, "database", db_path, db.n_speakers)}

    trials = labelled_trials(manifest)
    paths = [p for _, p in trials]
    for path in paths[:WARMUP_UTTERANCES]:
        sid_pipeline.identify(db, voxid.read_wav(path))
    loop = identify_loop(
        run, db, paths, run.seconds, run.trace, REF_CALLS["wide_db" if wide else "identify"]
    )
    metrics.update(loop_metrics(run, loop))
    metrics.update(accuracy_metrics(run, trials, loop))
    if not wide:
        report = sid_pipeline.evaluate(db, manifest)
        measured_winners = [winners(r) for r in loop["firsts"]]
        expected = [(t.fused_winner, t.spectral_winner, t.residual_winner) for t in report.trials]
        reported = (report.pia_fused, report.pia_spectral, report.pia_residual)
        measured = (metrics["pia_fused"], metrics["pia_spectral"], metrics["pia_residual"])
        run.check(
            "pia_matches_evaluate",
            measured_winners == expected and measured == reported,
            f"evaluate reports {reported}, the loop {measured}",
        )
    return metrics, loop


WORKLOADS = {
    "enroll": workload_enroll,
    "identify": lambda run: identify_workload(run, wide=False),
    "wide_db": lambda run: identify_workload(run, wide=True),
}


# --- per-layer metrics ----------------------------------------------------------


NO_CALLS = LayerTotals(0, 0, 0, 0, {})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run, loop: dict) -> dict[str, float]:
    """Per-layer figures from the traced operations' spans, per operation."""
    ops = loop["traced_ops"]
    n = len(ops)
    per_op = run.tracer.totals(ops)
    whole = run.tracer.totals()

    def get(table, name) -> LayerTotals:
        return table.get(name, NO_CALLS)

    def calls(name):
        return _ratio(get(per_op, name).calls, n)

    def busy_ms(name):
        return _ratio(get(per_op, name).busy_ns / 1e6, n)

    def self_ms(name):
        return _ratio(get(per_op, name).self_ns / 1e6, n)

    def count(name, key):
        return _ratio(get(per_op, name).counts.get(key, 0), n)

    def failed(layer):
        return sum(t.failed for name, t in whole.items() if name.startswith(layer + "."))

    silence = get(per_op, "signal_prep.remove_silence").counts
    acrlag = get(per_op, "acrlag.extract_acrlag").counts
    scoring = get(per_op, "gmm.utterance_score")
    load = get(whole, "sid_pipeline.load_database")
    save = get(whole, "sid_pipeline.save_database")
    plain = float(np.median(loop["plain_ms"]))
    traced = float(np.median(loop["traced_ms"]))
    return {
        "audio_io.read_wav.calls": calls("audio_io.read_wav"),
        "audio_io.read_wav.busy_ms": busy_ms("audio_io.read_wav"),
        "audio_io.read_wav.bytes": count("audio_io.read_wav", "bytes"),
        "audio_io.failed": failed("audio_io"),
        "signal_prep.remove_silence.calls": calls("signal_prep.remove_silence"),
        "signal_prep.remove_silence.busy_ms": busy_ms("signal_prep.remove_silence"),
        "signal_prep.preprocess.calls": calls("signal_prep.preprocess"),
        "signal_prep.preprocess.busy_ms": busy_ms("signal_prep.preprocess"),
        "signal_prep.preprocess.frames_out": count("signal_prep.preprocess", "frames_out"),
        "signal_prep.keep_ratio": _ratio(
            silence.get("samples_out", 0), silence.get("samples_in", 0)
        ),
        "signal_prep.failed": failed("signal_prep"),
        "spectral.fb_cepstra.calls": calls("spectral.fb_cepstra"),
        "spectral.fb_cepstra.busy_ms": busy_ms("spectral.fb_cepstra"),
        "spectral.fb_cepstra.frames": count("spectral.fb_cepstra", "frames"),
        "spectral.failed": failed("spectral"),
        "acrlag.extract_acrlag.calls": calls("acrlag.extract_acrlag"),
        "acrlag.extract_acrlag.busy_ms": busy_ms("acrlag.extract_acrlag"),
        "acrlag.valid_ratio": _ratio(acrlag.get("rows_out", 0), acrlag.get("frames_in", 0)),
        "acrlag.failed": failed("acrlag"),
        "gmm.lbg_init.calls": calls("gmm.lbg_init"),
        "gmm.lbg_init.busy_ms": busy_ms("gmm.lbg_init"),
        "gmm.em_fit.calls": calls("gmm.em_fit"),
        "gmm.em_fit.busy_ms": busy_ms("gmm.em_fit"),
        "gmm.utterance_score.calls": calls("gmm.utterance_score"),
        "gmm.utterance_score.busy_ms": busy_ms("gmm.utterance_score"),
        "gmm.utterance_score.us_per_model": _ratio(scoring.busy_ns / 1e3, scoring.calls),
        "gmm.failed": failed("gmm"),
        "sid_pipeline.train_database.busy_ms": busy_ms("sid_pipeline.train_database"),
        "sid_pipeline.train_database.self_ms": self_ms("sid_pipeline.train_database"),
        "sid_pipeline.score_utterance.busy_ms": busy_ms("sid_pipeline.score_utterance"),
        "sid_pipeline.score_utterance.self_ms": self_ms("sid_pipeline.score_utterance"),
        "sid_pipeline.identify.busy_ms": busy_ms("sid_pipeline.identify"),
        "sid_pipeline.identify.self_ms": self_ms("sid_pipeline.identify"),
        "sid_pipeline.load_database.busy_ms": _ratio(load.busy_ns / 1e6, load.calls),
        "sid_pipeline.load_database.bytes": run.info["database_bytes"],
        "sid_pipeline.save_database.busy_ms": _ratio(save.busy_ns / 1e6, save.calls),
        "sid_pipeline.save_database.bytes": run.info["database_bytes"],
        "sid_pipeline.failed": failed("sid_pipeline"),
        "corpus.synth_corpus.busy_s": get(whole, "corpus.synth_corpus").busy_ns / 1e9,
        "trace.ops": n,
        "trace.untraced_p50_ms": plain,
        "trace.traced_p50_ms": traced,
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
    }


# --- machine record and output ----------------------------------------------------


def _blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(run: Run) -> dict:
    """What a number depends on besides the code: never compare numbers
    whose records differ."""
    source = hashlib.sha256()
    for path in sorted((run.src / "voxid").rglob("*.py")):
        source.update(path.relative_to(run.src).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _commit(run.root),
        "source_sha256": source.hexdigest(),
        "seed": run.seed,
    }


def print_table(metrics: dict[str, float], units: dict[str, str], samples: dict[str, int]) -> None:
    for name, value in metrics.items():
        n = samples.get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"{name:42s} {value:14.6g} {units[name]}{tail}")


def run_benchmark(args, root: Path, src: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    run = Run(args, root, src)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, loop = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if args.trace:
        metrics = layer_metrics(run, loop)
    else:
        metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    correct = all(run.checks.values())
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(run),
        "checks": run.checks,
        "samples": run.samples,
        "database_sha256": run.info["database_sha256"],
        "reported": run.reported,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    run.out.mkdir(parents=True, exist_ok=True)
    (run.out / f"report_{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        run.tracer.write(run.out / f"spans_{stem}.json")
    print(json.dumps({k: report[k] for k in ("machine", "checks", "database_sha256")}))
    if correct:
        print_table(metrics, units, run.samples)
        print("reported, not gated:")
        for name, fig in run.reported.items():
            print(f"  {name:40s} {fig['value']:14.6g} {fig['unit']}  (n={fig['n']})")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"] if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1
