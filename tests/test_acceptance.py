"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Training-based criteria share module-scope fixtures so each model is
fine-tuned exactly once; their wall-clock budgets cover that training.
"""

import random
import sys
import time

import pytest

from rxtract.artifacts import load_artifact, save_artifact
from rxtract.cli import run_command
from rxtract.context import train_all_tasks
from rxtract.corpus import (
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    ActionLabel,
    ActorLabel,
    CertaintyLabel,
    EventLabel,
    MedicationMention,
    NegationLabel,
    TemporalityLabel,
)
from rxtract.encoder import (
    EncoderConfig,
    TrainConfig,
    grad_check,
    init_model,
    toy_examples,
)
from rxtract.evaluation import (
    combined_accuracy,
    context_metrics,
    event_metrics,
    gold_context_table,
    ner_metrics,
)
from rxtract.ner import predict_ner, train_ner
from rxtract.pipeline import (
    PipelineBundle,
    classify_gold_context,
    classify_gold_events,
    run_pipeline_over,
)
from rxtract.preproc import (
    BioTag,
    PieceTable,
    align_to_subtokens,
    build_vocab,
    decode_bio,
    spans_to_bio,
    split_sentences,
    tokenize,
)
from rxtract.synth import GeneratorSpec, gen_corpus

from metric_oracle import oracle_context_metrics, oracle_event_metrics, oracle_ner_metrics

DESK_ENC = EncoderConfig(layers=2, hidden_dim=128, heads=4, ffn_dim=256,
                         max_len=256, dropout_rate=0.1, seed=0)
NER_TC = TrainConfig(learning_rate=3e-4, batch_size=16, max_epochs=6,
                     patience=2, seed=0)
CLS_TC = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=12,
                     patience=4, seed=0)


def _report(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"


# Fixed acceptance corpus: separable cues, with a small share of dev/test
# mentions wearing dose-form words never seen in training so extraction
# faces real boundary generalization.
ACCEPTANCE_SPEC = GeneratorSpec(
    seed=7, n_train=200, n_dev=40, n_test=40,
    min_sentences=5, max_sentences=9, mention_prob=0.75,
    novel_form_rate=0.03,
)


@pytest.fixture(scope="module")
def corpus200():
    return gen_corpus(ACCEPTANCE_SPEC).corpus


@pytest.fixture(scope="module")
def shared_vocab(corpus200):
    return build_vocab([d.text for d in corpus200.train], 4096)


@pytest.fixture(scope="module")
def ner_trained(corpus200, shared_vocab):
    start = time.monotonic()
    bundle = train_ner(corpus200, DESK_ENC, NER_TC, vocab=shared_vocab)
    return bundle, time.monotonic() - start


@pytest.fixture(scope="module")
def classifiers_trained(corpus200, shared_vocab):
    start = time.monotonic()
    bundle = train_all_tasks(corpus200, DESK_ENC, CLS_TC, shared_vocab)
    return bundle, time.monotonic() - start


def _random_sentence_case(rng):
    n_words = rng.randint(1, 14)
    words = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
             for _ in range(n_words)]
    text = " ".join(words)
    sent = split_sentences(text, tokenize(text))[0]
    mentions = []
    i = 0
    while i < n_words:
        if rng.random() < 0.4:
            j = min(n_words - 1, i + rng.randint(0, 2))
            mentions.append(CharSpan(sent.starts[i], sent.ends[j]))
            i = j + 2
        else:
            i += 1
    return sent, mentions


def test_criterion_1_bio_round_trip(shared_vocab):
    rng = random.Random(101)
    start = time.monotonic()
    failures = 0
    for _ in range(10_000):
        sent, mentions = _random_sentence_case(rng)
        tags = spans_to_bio(sent, mentions)
        seq = align_to_subtokens(sent, tags, PieceTable(shared_vocab), max_len=256)
        if decode_bio(seq, seq.tags, sent) != mentions:
            failures += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (BIO round trip, 10k cases)",
        failures == 0 and elapsed < 10.0,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_alignment_conservation(shared_vocab):
    rng = random.Random(202)
    failures = 0
    for _ in range(10_000):
        sent, mentions = _random_sentence_case(rng)
        word_tags = spans_to_bio(sent, mentions)
        seq = align_to_subtokens(sent, word_tags, PieceTable(shared_vocab), max_len=256)
        b_words = sum(1 for t in word_tags if t is BioTag.B)
        b_pieces = sum(1 for t in seq.tags if t is BioTag.B)
        # project back from each word's first piece
        projected = {}
        for pos, w in enumerate(seq.word_index):
            if w >= 0 and w not in projected:
                projected[w] = seq.tags[pos]
        inverted = [projected[w] for w in range(len(word_tags))]
        if b_pieces != b_words or inverted != list(word_tags):
            failures += 1
    _report(
        "criterion 2 (alignment conservation, 10k cases)",
        failures == 0,
        f"{failures} failures",
    )


def _metric_case_spans(rng):
    out = []
    pos = rng.randint(0, 3)
    for _ in range(rng.randint(0, 12)):
        width = rng.randint(1, 4)
        if pos + width > 190:
            break
        out.append(CharSpan(pos, pos + width))
        pos += width + rng.randint(1, 5)
    return out


def _metric_case(rng):
    docs, preds = [], {}
    for d in range(rng.randint(1, 3)):
        gold = _metric_case_spans(rng)
        pred = [s for s in gold if rng.random() < 0.7]
        for extra in _metric_case_spans(rng):
            if len(pred) >= 12:
                break
            if not any(extra.overlaps(p) for p in pred):
                pred.append(extra)
        doc_id = f"doc{d}"
        docs.append(
            AnnotatedDocument(doc_id, "x" * 200, [
                MedicationMention(s, "x" * len(s), EventLabel.NO_DISPOSITION)
                for s in gold
            ])
        )
        preds[doc_id] = sorted(pred)
    return docs, preds


def _close(a, b):
    return abs(a - b) <= 1e-12


def test_criterion_3_metric_oracle_equivalence():
    rng = random.Random(303)
    labels = list(EventLabel)
    checked = 0

    for _ in range(400):  # extraction metrics
        docs, preds = _metric_case(rng)
        main = ner_metrics(docs, preds, "strict")
        oracle = oracle_ner_metrics(docs, preds, "strict")
        assert main.micro == oracle.micro
        assert _close(main.macro.precision, oracle.macro.precision)
        assert _close(main.macro.recall, oracle.macro.recall)
        assert _close(main.macro.f1, oracle.macro.f1)
        checked += 1

    for _ in range(300):  # event metrics
        docs, preds = _metric_case(rng)
        event_docs, event_preds = [], {}
        for doc in docs:
            events = [rng.choice(labels) for _ in doc.mentions]
            event_docs.append(AnnotatedDocument(doc.doc_id, doc.text, [
                MedicationMention(
                    m.span, m.surface, e,
                    ContextAttributes() if e is EventLabel.DISPOSITION else None,
                )
                for m, e in zip(doc.mentions, events)
            ]))
            event_preds[doc.doc_id] = [
                MedicationMention(s, "x" * len(s), rng.choice(labels))
                for s in preds[doc.doc_id]
            ]
        main = event_metrics(event_docs, event_preds, "strict")
        oracle = oracle_event_metrics(event_docs, event_preds, "strict")
        assert main.per_class == oracle.per_class
        assert main.micro == oracle.micro
        checked += 1

    all_attrs = dict(
        action=list(ActionLabel), negation=list(NegationLabel),
        temporality=list(TemporalityLabel), certainty=list(CertaintyLabel),
        actor=list(ActorLabel),
    )
    for _ in range(300):  # context metrics
        gold, pred = {}, {}
        for i in range(rng.randint(0, 12)):
            key = ("d", 10 * i, 10 * i + 4)
            gold[key] = ContextAttributes(**{k: rng.choice(v) for k, v in all_attrs.items()})
            if rng.random() < 0.9:
                pred[key] = ContextAttributes(**{k: rng.choice(v) for k, v in all_attrs.items()})
        main = context_metrics(gold, pred)
        oracle = oracle_context_metrics(gold, pred)
        assert main.per_dimension == oracle.per_dimension
        assert _close(main.overall_accuracy, oracle.overall_accuracy)
        checked += 1

    _report(
        "criterion 3 (metric oracle equivalence, 1000 instances)",
        checked == 1000,
        f"{checked} instances agreed exactly",
    )


def test_criterion_4_overall_accuracy_identity():
    n = 10_000
    correct = {"Action": 8862, "Negation": 9790, "Temporality": 8503,
               "Certainty": 9102, "Actor": 9371}
    base = ContextAttributes(
        action=ActionLabel.START, negation=NegationLabel.NOT_NEGATED,
        temporality=TemporalityLabel.PAST, certainty=CertaintyLabel.CERTAIN,
        actor=ActorLabel.PHYSICIAN,
    )
    flipped = ContextAttributes(
        action=ActionLabel.STOP, negation=NegationLabel.NEGATED,
        temporality=TemporalityLabel.PRESENT, certainty=CertaintyLabel.HYPOTHETICAL,
        actor=ActorLabel.PATIENT,
    )
    gold, pred = {}, {}
    for i in range(n):
        key = ("d", 10 * i, 10 * i + 5)
        gold[key] = base
        pred[key] = ContextAttributes(
            action=base.action if i < correct["Action"] else flipped.action,
            negation=base.negation if i < correct["Negation"] else flipped.negation,
            temporality=base.temporality if i < correct["Temporality"] else flipped.temporality,
            certainty=base.certainty if i < correct["Certainty"] else flipped.certainty,
            actor=base.actor if i < correct["Actor"] else flipped.actor,
        )
    rep = context_metrics(gold, pred)
    expected_dims = {"Action": 0.8862, "Negation": 0.9790, "Temporality": 0.8503,
                     "Certainty": 0.9102, "Actor": 0.9371}
    dims_ok = all(
        _close(rep.per_dimension[d], expected_dims[d]) for d in expected_dims
    )
    overall_ok = round(rep.overall_accuracy, 4) == 0.9126
    _report(
        "criterion 4 (overall accuracy identity)",
        dims_ok and overall_ok,
        f"overall={rep.overall_accuracy:.5f} rounds to {round(rep.overall_accuracy, 4)}",
    )


def test_criterion_5_gradient_correctness():
    cfg = EncoderConfig(layers=2, hidden_dim=32, heads=2, ffn_dim=64,
                        max_len=32, dropout_rate=0.0,
                        seed=3, precision=64)
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for mode, task in (("token", None), ("sequence", "Event")):
        model = init_model(cfg, 64, {"Event": 3} if task else {})
        batch = toy_examples(mode, 64, n=4, length=20, seed=7)
        report = grad_check(model, batch, task=task, n_samples=200, seed=13)
        worst = max(worst, report.max_rel_error)
        checked += report.n_checked
    elapsed = time.monotonic() - start
    _report(
        "criterion 5 (gradient correctness)",
        worst < 1e-4 and checked >= 400 and elapsed < 60.0,
        f"max rel err {worst:.2e} over {checked} parameters in {elapsed:.1f}s",
    )


def test_criterion_6_ner_learning(corpus200, ner_trained):
    bundle, train_time = ner_trained
    preds = {d.doc_id: predict_ner(bundle, d.text) for d in corpus200.test}
    rep = ner_metrics(corpus200.test, preds, "strict")
    _report(
        "criterion 6 (desk-scale extraction learning)",
        rep.micro.f1 >= 0.95 and train_time < 600.0,
        f"test strict micro-F1 {rep.micro.f1:.4f}, training {train_time:.0f}s",
    )


def test_criterion_7_classification_learning(corpus200, classifiers_trained):
    bundle, train_time = classifiers_trained
    event_preds = classify_gold_events(bundle, corpus200.test)
    event_rep = event_metrics(corpus200.test, event_preds, "strict")
    gold = gold_context_table(corpus200.test)
    ctx_rep = context_metrics(gold, classify_gold_context(bundle, corpus200.test))
    dims_ok = all(v >= 0.90 for v in ctx_rep.per_dimension.values())
    detail = (
        f"event acc {event_rep.micro.f1:.4f}; dims "
        + " ".join(f"{d}={v:.3f}" for d, v in ctx_rep.per_dimension.items())
        + f"; training {train_time:.0f}s"
    )
    _report(
        "criterion 7 (desk-scale classification learning)",
        event_rep.micro.f1 >= 0.90 and dims_ok and train_time < 900.0,
        detail,
    )


def test_criterion_8_end_to_end_degradation(corpus200, ner_trained, classifiers_trained):
    ner_bundle, _ = ner_trained
    cls_bundle, _ = classifiers_trained
    pipe = PipelineBundle(ner=ner_bundle, classifiers=cls_bundle)
    combined = combined_accuracy(corpus200.test, run_pipeline_over(pipe, corpus200.test))

    event_rep = event_metrics(
        corpus200.test, classify_gold_events(cls_bundle, corpus200.test), "strict"
    )
    gold = gold_context_table(corpus200.test)
    ctx_rep = context_metrics(gold, classify_gold_context(cls_bundle, corpus200.test))
    ner_rep = ner_metrics(
        corpus200.test,
        {d.doc_id: predict_ner(ner_bundle, d.text) for d in corpus200.test},
        "strict",
    )
    ok = (
        combined <= event_rep.micro.f1 + 1e-12
        and combined <= ctx_rep.overall_accuracy + 1e-12
        and combined <= ner_rep.micro.recall + 1e-12
    )
    _report(
        "criterion 8 (end-to-end degradation inequality)",
        ok,
        f"combined {combined:.4f} <= event {event_rep.micro.f1:.4f}, "
        f"context {ctx_rep.overall_accuracy:.4f}, ner recall {ner_rep.micro.recall:.4f}",
    )


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_determinism(tmp_path):
    fast = ["--layers", "1", "--hidden-dim", "32", "--heads", "2",
            "--ffn-dim", "64", "--max-len", "64", "--max-epochs", "2",
            "--patience", "2", "--learning-rate", "0.001", "--seed", "0"]
    outputs = []
    import warnings

    for run in ("one", "two"):
        base = tmp_path / run
        data = base / "data"
        assert run_command(["synth", "--seed", "5", "--out", str(data),
                            "--train", "20", "--dev", "5", "--test", "5"]) == 0
        model = base / "model"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_command(["train", "--task", "all", "--data", str(data),
                                "--out", str(model), *fast]) == 0
        note = sorted((data / "test").glob("*.txt"))[0]
        preds = base / "preds.jsonl"
        assert run_command(["pipeline", "--model", str(model),
                            "--in", str(note), "--out", str(preds)]) == 0
        outputs.append((_tree_bytes(model), preds.read_bytes()))

    same_models = outputs[0][0] == outputs[1][0]
    same_preds = outputs[0][1] == outputs[1][1]
    _report(
        "criterion 9 (determinism of full runs)",
        same_models and same_preds,
        f"artifacts identical: {same_models}, predictions identical: {same_preds}",
    )


def test_criterion_10_persistence_fidelity(tmp_path, corpus200, ner_trained):
    bundle, _ = ner_trained
    save_artifact(bundle, tmp_path / "model")
    loaded = load_artifact(tmp_path / "model")
    docs = (corpus200.train + corpus200.dev + corpus200.test)[:100]
    mismatches = sum(
        1 for d in docs if predict_ner(loaded, d.text) != predict_ner(bundle, d.text)
    )
    _report(
        "criterion 10 (persistence fidelity, 100 documents)",
        mismatches == 0,
        f"{mismatches} documents differ after save/load round trip",
    )
