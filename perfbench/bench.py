"""Runs one workload: its set-ups, then passes until the time is up, then
the end-to-end metrics (untraced run) or the per-layer metrics (traced run).

A traced run alternates traced and untraced passes over the same input, so
the tracing overhead is measured as traced minus untraced pass time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, TraceData
from workloads import WORKLOADS, Record, Sizes

# Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Functions the per-layer metrics are measured at.
TRACED_FUNCTIONS = (
    "encoder.loss_and_grads", "encoder.optimizer_step", "encoder.clip_gradients",
    "encoder.forward_batch", "encoder.pack_batch", "encoder.fit",
    "preproc.tokenize", "preproc.split_sentences", "preproc.align_to_subtokens",
    "preproc.decode_bio", "preproc.build_vocab",
    "ner.predict_ner", "ner.build_ner_examples",
    "context.build_classification_example", "context.classify_batch",
    "context.collect_task_examples",
    "evaluation.ner_metrics", "artifacts.save_artifact", "artifacts.load_artifact",
    "synth.gen_corpus",
)

# A median needs two passes; so does a traced run, one traced and one not.
MIN_PASSES = 2

NO_WAIT_NOTE = ("no layer has a wait-time metric: the program is single-threaded "
                "and does no I/O in the timed region, so nothing queues")


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    units: dict
    report: list  # human-readable lines

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        }


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def machine_facts(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(rec: Record, setup_s: list) -> dict:
    s = rec.samples
    lat = s["doc_latency_ms"]
    return {
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": (rec.ops - rec.failed) / rec.ops if rec.ops else 0.0,
        "ner_epoch_s": median(s["ner_epoch_s"]),
        "cls_epoch_s": median(s["cls_epoch_s"]),
        "ner_dev_f1": median(s["ner_dev_f1"]),
        "cls_dev_acc": median(s["cls_dev_acc"]),
        "docs_per_s": median(s["docs_per_s"]),
        "mentions_per_s": median(s["mentions_per_s"]),
        "e2e_combined_acc": median(s["e2e_combined_acc"]),
        "doc_latency_p50_ms": percentile(lat, 50),
        "doc_latency_p95_ms": percentile(lat, 95),
    }


def per_layer(setup: TraceData, passes: TraceData, n_setups: int, n_passes: int,
              state, rec: Record, overhead: float, missing: list) -> dict:
    L, S, c = passes.layer, setup.layer, passes.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(name):
        return L(name).self_s / n_passes

    return {
        "encoder.loss_and_grads.self_s": self_s("encoder.loss_and_grads"),
        "encoder.loss_and_grads.calls": L("encoder.loss_and_grads").calls / n_passes,
        "encoder.optimizer_step.self_s": self_s("encoder.optimizer_step"),
        "encoder.clip_gradients.self_s": self_s("encoder.clip_gradients"),
        "encoder.forward_batch.self_s": self_s("encoder.forward_batch"),
        "encoder.forward_batch.calls": L("encoder.forward_batch").calls / n_passes,
        "encoder.rows_per_call": ratio(c["encoder.forward_batch.rows"],
                                       L("encoder.forward_batch").calls),
        "encoder.pack_batch.self_s": self_s("encoder.pack_batch"),
        "encoder.pack_fill": ratio(c["encoder.pack.real"], c["encoder.pack.slots"]),
        "encoder.fit.self_s": self_s("encoder.fit"),
        "preproc.tokenize.self_s": self_s("preproc.tokenize"),
        "preproc.tokenize.per_doc": ratio(L("preproc.tokenize").calls,
                                          n_passes * state.docs_per_pass),
        "preproc.split_sentences.self_s": self_s("preproc.split_sentences"),
        "preproc.align_to_subtokens.self_s": self_s("preproc.align_to_subtokens"),
        "preproc.align_real_fraction": ratio(c["preproc.align.real"], c["preproc.align.emitted"]),
        "preproc.decode_bio.self_s": self_s("preproc.decode_bio"),
        "preproc.build_vocab_s": S("preproc.build_vocab").incl_s / n_setups,
        "ner.predict_ner.incl_s": L("ner.predict_ner").incl_s / n_passes,
        "ner.build_ner_examples.self_s": self_s("ner.build_ner_examples"),
        "context.build_classification_example.self_s":
            self_s("context.build_classification_example"),
        "context.examples_per_mention": ratio(L("context.build_classification_example").calls,
                                              n_passes * state.mentions_per_pass),
        "context.classify_batch.Event.incl_s": L("context.classify_batch.Event").incl_s / n_passes,
        "context.classify_batch.dims.incl_s": L("context.classify_batch.dims").incl_s / n_passes,
        "context.collect_task_examples.self_s": self_s("context.collect_task_examples"),
        "pipeline.sentences": rec.counts.get("sentences", 0),
        "pipeline.mentions": rec.counts.get("mentions", 0),
        "pipeline.disposition_mentions": rec.counts.get("disposition_mentions", 0),
        "evaluation.ner_metrics.self_s": self_s("evaluation.ner_metrics"),
        "artifacts.save_s": S("artifacts.save_artifact").incl_s / n_setups,
        "artifacts.load_s": S("artifacts.load_artifact").incl_s / n_setups,
        "synth.gen_corpus_s": S("synth.gen_corpus").incl_s / n_setups,
        "trace.overhead_frac": overhead,
        "trace.missing_layers": len(missing),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 workdir: Path, root: Path) -> Outcome:
    wl = WORKLOADS[name]
    rec = Record()
    tracer = Tracer() if trace else None

    setup_s, state = [], None

    def set_up():
        nonlocal state
        t0 = time.perf_counter()
        new = wl.setup(sizes, seed, workdir / f"setup{len(setup_s)}", rec)
        setup_s.append(time.perf_counter() - t0)
        if state is not None and new.fingerprint != state.fingerprint:
            rec.setup_problems.append("repeated set-ups made different inputs or models")
        state = state or new

    if tracer:
        tracer.install()
    for _ in range(sizes.setups[name]):
        set_up()
    if tracer:
        tracer.uninstall()
        setup_trace = tracer.take()

    # A set-up this short is sampled again between the steps of every pass:
    # the box's speed drifts within seconds, and set-ups made back to back
    # would all sample one moment of it.
    between_s = 0.0

    def between():
        nonlocal between_s
        t0 = time.perf_counter()
        if traced:
            tracer.uninstall()
        set_up()
        if traced:
            tracer.install()
        between_s += time.perf_counter() - t0

    # Passes alternate traced and untraced in a traced run.
    pass_s = {True: [], False: []}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_s[True]) <= len(pass_s[False])
        if traced:
            tracer.install()
        between_s = 0.0
        t0 = time.perf_counter()
        try:
            out, error = wl.work(state, sizes, between), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, exc
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer:
                tracer.uninstall()
        pass_s[traced].append(time.perf_counter() - t0 - between_s)
        keys = wl.op_keys(state)
        if error is None:
            bad = wl.check(state, out, sizes, rec)
        else:
            bad = {k: f"{type(error).__name__}: {error}" for k in keys}
        rec.settle(keys, bad)
        passes = len(pass_s[True]) + len(pass_s[False])
        if passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break

    report = [f"machine: {machine_facts(root)}",
              f"workload {name}: seed {seed}, {len(setup_s)} set-ups, "
              f"{passes} passes, {rec.ops} ops, {rec.failed} failed",
              f"digest: {rec.digests}",
              f"counts: {rec.counts}"]
    report += [f"problem: {p}" for p in rec.setup_problems + rec.problems]

    if tracer:
        traced_s, plain_s = median(pass_s[True]), median(pass_s[False])
        overhead = (traced_s - plain_s) / plain_s
        missing = tracer.missing(TRACED_FUNCTIONS)
        metrics = per_layer(setup_trace, tracer.take(), sizes.setups[name], len(pass_s[True]),
                            state, rec, overhead, missing)
        units = PER_LAYER
        report.append(f"tracing overhead: traced pass {traced_s:.4f} s - untraced pass "
                      f"{plain_s:.4f} s = {traced_s - plain_s:.4f} s ({100 * overhead:.1f}%)")
        report += [f"missing layer: {m} (no longer a public function; reported as 0)"
                   for m in missing]
        report.append(NO_WAIT_NOTE)
    else:
        metrics = end_to_end(rec, setup_s)
        units = END_TO_END
        report.append(f"doc latency samples: {len(rec.samples['doc_latency_ms'])}")
    report += [f"  {k:<48} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
    correct = rec.failed == 0 and not rec.setup_problems
    return Outcome(correct, rec.ops, rec.failed, metrics, units, report)
