"""The three workloads: set-up, the timed work of one pass, and its checks.

Every call into the program goes through a module attribute
(`ner.train_ner`, not a name imported from it), so the tracer's wrappers
see it. A pass is the unit the runner repeats until the time is up:

- train: one round, i.e. one epoch of NER training plus one epoch of each
  of the six classifiers, then the freshly trained pipeline run over the
  dev and test splits, once batched and once note by note;
- pipeline_batch: one `run_pipeline_over` call over the held-out notes;
- pipeline_stream: the held-out short notes, one `run_pipeline` call each,
  one after another (closed loop, one client, no think time).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rxtract.artifacts as artifacts
import rxtract.context as context
import rxtract.evaluation as evaluation
import rxtract.ner as ner
import rxtract.pipeline as pipeline
import rxtract.preproc as preproc
import rxtract.synth as synth
from rxtract.corpus import AnnotatedDocument, EventLabel
from rxtract.encoder import EncoderConfig, TrainConfig

# Inputs are generated from this offset plus the benchmark seed, which keeps
# held-out notes apart from the fixed training corpus (seed 7) below.
SEED_BASE = 1_000_000
TRAINING_CORPUS_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """Model, corpus and pass sizes, plus the quality floors checked."""

    enc: EncoderConfig
    ner_tc: TrainConfig
    cls_tc: TrainConfig
    vocab_size: int
    corpus: dict  # GeneratorSpec fields of the training-corpus shape
    batch_notes: int
    stream_notes: int
    agree_sample: int  # notes on which run_pipeline and run_pipeline_over must agree
    setups: dict  # set-ups made before the passes, by workload
    ner_f1_floor: float
    e2e_acc_floor: float


# The acceptance suite's corpus shape, encoder and optimiser settings, one epoch.
FULL = Sizes(
    enc=EncoderConfig(layers=2, hidden_dim=128, heads=4, ffn_dim=256,
                      max_len=256, dropout_rate=0.1, seed=0),
    ner_tc=TrainConfig(learning_rate=3e-4, batch_size=16, max_epochs=1, patience=2, seed=0),
    cls_tc=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1, patience=4, seed=0),
    vocab_size=4096,
    corpus=dict(n_train=200, n_dev=40, n_test=40, min_sentences=5, max_sentences=9,
                mention_prob=0.75, novel_form_rate=0.03),
    batch_notes=200,
    stream_notes=600,
    agree_sample=16,
    setups={"train": 1, "pipeline_batch": 2, "pipeline_stream": 2},
    ner_f1_floor=0.90,
    e2e_acc_floor=0.60,
)


@dataclass
class Record:
    """Ops, failures and metric samples gathered over a run."""

    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_problems: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def settle(self, op_keys, bad: dict) -> None:
        """Count one pass's ops; `bad` maps each failed op to its reason."""
        self.ops += len(op_keys)
        self.failed += len(bad)
        for reason in sorted(set(bad.values())):
            self.problems.append(reason)


def params_digest(bundle) -> str:
    h = hashlib.sha256()
    models = [("ner", bundle.ner.model)] + sorted(
        (name, tm.model) for name, tm in bundle.classifiers.tasks.items()
    )
    for model_name, model in models:
        for name in sorted(model.params):
            h.update(f"{model_name}/{name}".encode())
            h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


def predictions_digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(pipeline.mentions_to_jsonl(doc).encode())
    return h.hexdigest()


def work_counts(docs) -> dict:
    """Sentences the NER stage is given, mentions found, Disposition among them."""
    split = getattr(preproc, "split_sentences", None)
    tokenize = getattr(preproc, "tokenize", None)
    sentences = 0
    if split is not None and tokenize is not None:
        sentences = sum(len(split(d.text, tokenize(d.text))) for d in docs)
    mentions = [m for d in docs for m in d.mentions]
    return {
        "sentences": sentences,
        "mentions": len(mentions),
        "disposition_mentions": sum(m.event is EventLabel.DISPOSITION for m in mentions),
    }


def validate_all(docs, bad: dict) -> None:
    for doc in docs:
        try:
            doc.validate()
        except Exception as exc:  # any failure of the output contract
            bad[doc.doc_id] = f"{doc.doc_id}: invalid output: {exc}"


def gen_docs(seed: int, **shape) -> list[AnnotatedDocument]:
    spec = synth.GeneratorSpec(seed=SEED_BASE + seed, n_train=0, n_dev=0, **shape)
    return synth.gen_corpus(spec).corpus.test


def check_predictions(state, rec: Record, sizes: Sizes, bad: dict, gold, docs,
                      busy_s: float) -> None:
    """Checks and samples shared by every pass that runs the pipeline: valid
    output, the same predictions as the first pass, the accuracy floor."""
    validate_all(docs, bad)
    digest = predictions_digest(docs)
    if "predictions" not in rec.digests:
        rec.digests["predictions"] = digest
        rec.counts.update(work_counts(docs))
        state.mentions_per_pass += rec.counts["mentions"]
    elif digest != rec.digests["predictions"]:
        for doc in docs:
            bad[doc.doc_id] = "predictions differ between passes"
    acc = evaluation.combined_accuracy(gold, {d.doc_id: d.mentions for d in docs})
    if acc < sizes.e2e_acc_floor:
        for doc in docs:
            bad[doc.doc_id] = f"e2e_combined_acc {acc:.4f} below floor {sizes.e2e_acc_floor}"
    rec.samples["docs_per_s"].append(len(docs) / busy_s)
    rec.samples["mentions_per_s"].append(sum(len(d.mentions) for d in docs) / busy_s)
    rec.samples["e2e_combined_acc"].append(acc)


# ---------------------------------------------------------------------------
# training


@dataclass
class Trained:
    bundle: pipeline.PipelineBundle
    ner_s: float
    cls_s: float
    ner_f1: float
    cls_acc: float
    digest: str


def train_stages(corpus, vocab, sizes: Sizes, between=lambda: None) -> Trained:
    """One epoch of NER training and one of each classifier, calling
    `between` after each of the seven (untimed)."""
    t0 = time.perf_counter()
    ner_bundle = ner.train_ner(corpus, sizes.enc, sizes.ner_tc, vocab=vocab)
    ner_s = time.perf_counter() - t0
    between()
    tasks, cls_s = {}, 0.0
    for name, task in context.TASKS.items():
        t0 = time.perf_counter()
        tasks[name] = context.train_task(corpus, task, sizes.enc, sizes.cls_tc, vocab)
        cls_s += time.perf_counter() - t0
        between()
    bundle = pipeline.PipelineBundle(
        ner=ner_bundle, classifiers=context.ClassifierBundle(tasks=tasks, vocab=vocab)
    )
    return Trained(
        bundle=bundle,
        ner_s=ner_s,
        cls_s=cls_s,
        ner_f1=ner_bundle.history[-1],
        cls_acc=statistics.fmean(tm.history[-1] for tm in tasks.values()),
        digest=params_digest(bundle),
    )


def record_training(rec: Record, trained: Trained) -> None:
    rec.samples["ner_epoch_s"].append(trained.ner_s)
    rec.samples["cls_epoch_s"].append(trained.cls_s)
    rec.samples["ner_dev_f1"].append(trained.ner_f1)
    rec.samples["cls_dev_acc"].append(trained.cls_acc)


def training_corpus(sizes: Sizes, seed: int):
    spec = synth.GeneratorSpec(seed=seed, **sizes.corpus)
    corpus = synth.gen_corpus(spec).corpus
    vocab = preproc.build_vocab([d.text for d in corpus.train], sizes.vocab_size)
    return corpus, vocab


# ---------------------------------------------------------------------------
# workload: train


@dataclass
class TrainState:
    corpus: object
    vocab: object
    fingerprint: str
    docs_per_pass: int
    mentions_per_pass: int = 0

    @property
    def held_out(self):
        return self.corpus.dev + self.corpus.test


class Train:
    """Training is the cost users wait on longest, and the only workload
    that runs backward and the optimizer."""

    name = "train"

    def setup(self, sizes: Sizes, seed: int, workdir: Path, rec: Record) -> TrainState:
        corpus, vocab = training_corpus(sizes, SEED_BASE + seed)
        h = hashlib.sha256("\x00".join(vocab.pieces).encode())
        for _, docs in corpus.splits():
            h.update(predictions_digest(docs).encode())
        gold = sum(len(d.mentions) for d in corpus.train + corpus.dev)
        return TrainState(corpus, vocab, h.hexdigest(),
                          docs_per_pass=sum(len(docs) for _, docs in corpus.splits()),
                          mentions_per_pass=gold)

    def work(self, state: TrainState, sizes: Sizes, between):
        trained = train_stages(state.corpus, state.vocab, sizes, between)
        held_out = state.held_out
        t0 = time.perf_counter()
        preds = pipeline.run_pipeline_over(trained.bundle, held_out)
        batch_s = time.perf_counter() - t0
        docs, latencies = [], []
        for note in held_out:
            t0 = time.perf_counter()
            docs.append(pipeline.run_pipeline(trained.bundle, note.text, note.doc_id))
            latencies.append(time.perf_counter() - t0)
        return trained, preds, batch_s, docs, latencies

    def op_keys(self, state: TrainState):
        return ["epoch:ner"] + [f"epoch:{t}" for t in context.TASKS] + [
            d.doc_id for d in state.held_out]

    def check(self, state: TrainState, out, sizes: Sizes, rec: Record) -> dict:
        trained, preds, batch_s, docs, latencies = out
        bad: dict = {}
        rec.digests.setdefault("params", trained.digest)
        if trained.digest != rec.digests["params"]:
            for key in self.op_keys(state)[:1 + len(context.TASKS)]:
                bad[key] = "trained parameters differ between rounds"
        if trained.ner_f1 < sizes.ner_f1_floor:
            bad["epoch:ner"] = f"ner_dev_f1 {trained.ner_f1:.4f} below floor {sizes.ner_f1_floor}"
        record_training(rec, trained)
        for doc in docs:
            if doc.mentions != preds.get(doc.doc_id):
                bad[doc.doc_id] = "run_pipeline disagrees with run_pipeline_over"
        check_predictions(state, rec, sizes, bad, state.held_out, docs, batch_s)
        rec.samples["doc_latency_ms"].extend(1e3 * s for s in latencies)
        return bad


# ---------------------------------------------------------------------------
# pipeline workloads


@dataclass
class PipelineState:
    bundle: object
    notes: list
    fingerprint: str
    docs_per_pass: int
    mentions_per_pass: int = 0


def setup_pipeline(sizes: Sizes, seed: int, workdir: Path, rec: Record,
                   notes_shape: dict) -> PipelineState:
    """Train the model on the fixed corpus, save and reload it as the CLI
    does, and generate the held-out notes from the benchmark seed."""
    corpus, vocab = training_corpus(sizes, TRAINING_CORPUS_SEED)
    trained = train_stages(corpus, vocab, sizes)
    record_training(rec, trained)
    if trained.ner_f1 < sizes.ner_f1_floor:
        rec.setup_problems.append(f"set-up ner_dev_f1 {trained.ner_f1:.4f} below floor")
    artifacts.save_artifact(trained.bundle, workdir)
    loaded = artifacts.load_artifact(workdir)
    if params_digest(loaded) != trained.digest:
        rec.setup_problems.append("reloaded model differs from the trained one")
    rec.digests.setdefault("params", trained.digest)
    notes = gen_docs(seed, **notes_shape)
    return PipelineState(loaded, notes, trained.digest, docs_per_pass=len(notes))


class PipelineBatch:
    """Forward-only and preprocessing-heavy: where cross-document batching
    and build-once marker examples show."""

    name = "pipeline_batch"

    def setup(self, sizes, seed, workdir, rec):
        return setup_pipeline(sizes, seed, workdir, rec, dict(
            n_test=sizes.batch_notes, min_sentences=5, max_sentences=9,
            mention_prob=0.75, novel_form_rate=0.03))

    def work(self, state: PipelineState, sizes: Sizes, between):
        t0 = time.perf_counter()
        preds = pipeline.run_pipeline_over(state.bundle, state.notes)
        return preds, time.perf_counter() - t0

    def op_keys(self, state):
        return [n.doc_id for n in state.notes]

    def check(self, state: PipelineState, out, sizes: Sizes, rec: Record) -> dict:
        preds, call_s = out
        bad: dict = {}
        docs = [AnnotatedDocument(n.doc_id, n.text, list(preds.get(n.doc_id, [])))
                for n in state.notes]
        if "predictions" not in rec.digests:
            for note, doc in zip(state.notes[: sizes.agree_sample], docs):
                single = pipeline.run_pipeline(state.bundle, note.text, note.doc_id)
                if single.mentions != doc.mentions:
                    bad[note.doc_id] = "run_pipeline disagrees with run_pipeline_over"
        check_predictions(state, rec, sizes, bad, state.notes, docs, call_s)
        # Every note of a batch waits until the call returns.
        rec.samples["doc_latency_ms"].append(1e3 * call_s)
        return bad


class PipelineStream:
    """Per-call overhead on tiny batches, as `rxtract pipeline` runs per
    note; latency is bimodal because Disposition notes run five more
    classifiers. A batching gain should leave it unchanged."""

    name = "pipeline_stream"

    def setup(self, sizes, seed, workdir, rec):
        return setup_pipeline(sizes, seed, workdir, rec, dict(
            n_test=sizes.stream_notes, min_sentences=1, max_sentences=3,
            mention_prob=0.75, novel_form_rate=0.03))

    def work(self, state: PipelineState, sizes: Sizes, between):
        docs, latencies = [], []
        for note in state.notes:
            t0 = time.perf_counter()
            docs.append(pipeline.run_pipeline(state.bundle, note.text, note.doc_id))
            latencies.append(time.perf_counter() - t0)
        return docs, latencies

    def op_keys(self, state):
        return [n.doc_id for n in state.notes]

    def check(self, state: PipelineState, out, sizes: Sizes, rec: Record) -> dict:
        docs, latencies = out
        bad: dict = {}
        if "predictions" not in rec.digests:
            sample = state.notes[: sizes.agree_sample]
            batched = pipeline.run_pipeline_over(state.bundle, sample)
            for note, doc in zip(sample, docs):
                if batched.get(note.doc_id) != doc.mentions:
                    bad[note.doc_id] = "run_pipeline disagrees with run_pipeline_over"
        check_predictions(state, rec, sizes, bad, state.notes, docs, sum(latencies))
        rec.samples["doc_latency_ms"].extend(1e3 * s for s in latencies)
        return bad


WORKLOADS = {w.name: w for w in (Train(), PipelineBatch(), PipelineStream())}
