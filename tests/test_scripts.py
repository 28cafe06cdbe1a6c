"""Smoke tests of the study scripts: each runs in-process with tiny arguments
and its output is parsed."""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tail_study(capsys):
    _load("tail_study").main(["--n", "4", "--lambdas", "0:0.5:0.5", "--u-grid", "0.5:1:0.5"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["lambda", "u", "exact_tail", "fjs", "healy", "iid", "rao"]
    assert len(rows) == 1 + 2 * 2
    for row in rows[1:]:
        lam, u, exact, *bounds = map(float, row)
        assert 0.0 <= exact <= 1.0
        assert all(math.isfinite(b) and b > 0 for b in bounds)


def test_matrix_study(capsys):
    _load("matrix_study").main(["--d", "3", "--trials", "4", "--lambdas", "0:0.5:0.5"])
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    assert blob["pattern"] == "all-ones"
    assert [r["lambda"] for r in blob["reports"]] == pytest.approx([0.0, 0.5])
    for r in blob["reports"]:
        assert r["d"] == 3 and r["trials"] == 4
        assert r["ci_low"] <= r["mean_norm"] <= r["ci_high"]
        assert r["mean_norm"] <= r["b_norm"] + 1e-9
    assert captured.err.count("fitted C=") == 2


# the keys that earlier BENCH_*.json records hold, kept so that runs stay comparable
WALK_KEYS = {f"mc_tail.{name}" for name in
             ("draws", "lookup", "fallback", "accumulate", "simulate_sums")} | {
    "search_T300.simulate_sums", "search_T5000.simulate_sums", "scan.sample_paths"}


def test_walk_layers(capsys):
    script = _load("walk_layers")
    script.main(["--repeats", "1", "--scale", "0.01"])
    blob = json.loads(capsys.readouterr().out)
    assert blob["traced_matches"] is True
    ms = blob["median_ms"]
    assert WALK_KEYS <= set(ms)
    assert all(math.isfinite(v) and v >= 0 for v in ms.values())
    # each shape reaches the layers of the kernel it takes; a renamed function would read 0
    for shape, layers in [("mc_tail", ("draws", "lookup", "fallback", "build", "accumulate")),
                          ("search_T300", ("draws", "search", "build", "accumulate")),
                          ("search_T5000", ("draws", "search", "build", "accumulate")),
                          ("scan", ("draws", "scan"))]:
        assert all(ms[f"{shape}.{layer}"] > 0 for layer in layers), shape
        # the layers are disjoint and cover the traced call (one repeat: each a rounded sample)
        parts = sum(ms[f"{shape}.{layer}"] for layer in script.LAYER_NAMES)
        assert parts == pytest.approx(ms[f"{shape}.traced"], abs=1e-3 * len(script.LAYER_NAMES))
    # every span name the attribution table reads is one the recorder wraps
    wrapped = script.recorder().functions
    for name, parent in script.LAYERS:
        assert {name, parent} - {"*", "walk", None} <= set(wrapped)
    assert set(script.WALKS) <= set(wrapped)
