"""Smoke test of the benchmark at a tiny input size.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
It checks that every workload runs its checks and emits exactly the metrics
BENCHMARK.json declares, untraced and traced, that the same seed repeats the
digests and work counts exactly, and that a renamed layer is reported as
missing without breaking the untraced run.
"""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from rxtract.encoder import EncoderConfig, TrainConfig  # noqa: E402

import rxtract.preproc as preproc  # noqa: E402
from bench import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402

TINY = replace(
    FULL,
    enc=EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=64,
                      dropout_rate=0.1, seed=0),
    ner_tc=replace(FULL.ner_tc, batch_size=8),
    cls_tc=replace(FULL.cls_tc, batch_size=8),
    vocab_size=300,
    corpus=dict(FULL.corpus, n_train=10, n_dev=4, n_test=4, min_sentences=2, max_sentences=4),
    batch_notes=5,
    stream_notes=6,
    agree_sample=3,
    setups={"train": 2, "pipeline_batch": 2, "pipeline_stream": 2},
    ner_f1_floor=0.0,
    e2e_acc_floor=0.0,
)


def _run(name, trace, tmp_path, seed=3):
    return run_workload(name, seed, 0.01, trace, TINY, tmp_path / "work", ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_complete(name, tmp_path):
    a = _run(name, False, tmp_path)
    assert a.correct, a.report
    assert a.attempted > 0 and a.failed == 0
    assert set(a.metrics) == set(END_TO_END)
    assert a.metrics["ops_ok_frac"] == 1.0
    b = _run(name, False, tmp_path)
    assert [l for l in a.report if l.startswith(("digest", "counts"))] == \
        [l for l in b.report if l.startswith(("digest", "counts"))]
    json.dumps(a.result())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    out = _run(name, True, tmp_path)
    assert out.correct, out.report
    assert set(out.metrics) == set(PER_LAYER)
    assert out.metrics["trace.missing_layers"] == 0
    assert out.metrics["encoder.forward_batch.calls"] > 0
    assert out.metrics["pipeline.mentions"] > 0
    if name == "train":
        assert out.metrics["encoder.loss_and_grads.calls"] > 0
    else:
        assert out.metrics["encoder.loss_and_grads.calls"] == 0
        assert out.metrics["artifacts.load_s"] > 0


def test_renamed_layer_is_missing_not_fatal(tmp_path, monkeypatch):
    renamed = preproc.decode_bio
    monkeypatch.delattr(preproc, "decode_bio")
    monkeypatch.setattr(preproc, "decode_bio_renamed", renamed, raising=False)
    untraced = _run("pipeline_stream", False, tmp_path)
    assert untraced.correct, untraced.report
    traced = _run("pipeline_stream", True, tmp_path)
    assert traced.metrics["trace.missing_layers"] == 1
    assert any("missing layer: preproc.decode_bio" in l for l in traced.report)


def test_env_pin_refuses_other_thread_counts():
    import subprocess

    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "train"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip()
