"""tools/fingerprint.py: repeatable hashes, and a one-ulp model change named."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxid.gmm import GmmModel
from voxid.sid_pipeline import load_database, save_database

SMALL = dict(speakers=3, train_utterances=2, test_utterances=1, seconds=(1.5, 1.5), orders=(2,))


@pytest.fixture(scope="module")
def fingerprint():
    path = Path(__file__).parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_write_equal_json(fingerprint, tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        fingerprint.write(out, **SMALL)
    assert outs[0].read_text() == outs[1].read_text()
    names = json.loads(outs[0].read_text())["hashes"]
    assert {"outputs/db_m2.db", "outputs/evaluate_m2.json", "corpus/manifest.json"} <= set(names)
    # The database with 90 decoys, and what identifies and evaluates against it.
    wide = {"outputs/db_m2_s93.db", "outputs/identify_m2_s93.json", "outputs/evaluate_m2_s93.json"}
    assert wide <= set(names)
    assert fingerprint.compare(*[json.loads(out.read_text())] * 2) == ([], False)


def test_one_ulp_in_a_saved_database_is_named(fingerprint, tmp_path):
    fingerprint.produce(tmp_path, **SMALL)
    base = fingerprint.fingerprint(tmp_path)
    path = tmp_path / "outputs" / "db_m2.db"
    db = load_database(path)
    model = db.spectral_models["spk01"]
    means = model.means.copy()
    means[1, 3] = np.nextafter(means[1, 3], np.inf)
    moved = GmmModel(model.feature_kind, model.weights, means, model.variances)
    db = replace(db, spectral_models={**db.spectral_models, "spk01": moved})
    save_database(db, path)
    assert fingerprint.compare(base, fingerprint.fingerprint(tmp_path)) == (
        ["moved: outputs/db_m2.db"],
        True,
    )


def test_compare_needs_neither_voxid_nor_numpy(tmp_path):
    # python -S leaves site-packages, and so NumPy, off sys.path, and no
    # PYTHONPATH leaves voxid off it.
    script = Path(__file__).parents[1] / "tools" / "fingerprint.py"
    doc = {"platform": {"python": "3"}, "hashes": {"a": "0" * 64, "b": "1" * 64}}
    for name in ("base.json", "head.json"):
        (tmp_path / name).write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", str(script), "compare", "base.json", "head.json"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "all 2 hashes equal\n", "")
