"""Marker-based classification examples and the per-task classifiers."""

import numpy as np
import pytest

from rxtract.context import (
    DIMENSION_TASKS,
    TASKS,
    ClassifierBundle,
    build_classification_example,
    classify_batch,
    collect_task_examples,
    mention_examples,
    predict_contexts,
    predict_events,
    train_all_tasks,
    train_task,
)
from rxtract.corpus import EventLabel, parse_standoff
from rxtract.encoder import EncoderConfig, TrainConfig, init_model
from rxtract.errors import SpanRangeError
from rxtract.preproc import (
    CLS_ID,
    E_MARK_ID,
    PAD_ID,
    S_MARK_ID,
    SEP_ID,
    build_vocab,
    split_sentences,
    subword_encode,
    tokenize,
)
from rxtract.synth import GeneratorSpec, gen_corpus

SMALL_ENC = EncoderConfig(
    layers=1, hidden_dim=32, heads=2, ffn_dim=64, max_len=96,
    vocab_size=64, dropout_rate=0.0, seed=0,
)


def _sentence(text):
    return split_sentences(text, tokenize(text))[0]


class TestBuildExample:
    def test_markers_bracket_the_mention(self):
        text = "doctor started plavix this morning"
        sent = _sentence(text)
        vocab = build_vocab([text], 256)
        mention = sent.tokens[2].span
        seq = build_classification_example(sent, mention, vocab, max_len=64)
        ids = seq.subtoken_ids
        s, e = ids.index(S_MARK_ID), ids.index(E_MARK_ID)
        assert s < e
        assert ids[s + 1 : e] == subword_encode("plavix", vocab)
        assert ids.count(S_MARK_ID) == 1 and ids.count(E_MARK_ID) == 1
        assert ids[0] == CLS_ID
        assert len(seq) == 64

    def test_mention_spanning_whole_sentence(self):
        text = "insulin glargine"
        sent = _sentence(text)
        vocab = build_vocab([text], 256)
        seq = build_classification_example(sent, sent.span, vocab, max_len=32)
        ids = seq.subtoken_ids
        real = [i for i in ids if i != PAD_ID]
        assert real[0] == CLS_ID and real[1] == S_MARK_ID
        assert real[-1] == SEP_ID and real[-2] == E_MARK_ID

    def test_long_sentence_truncates_to_window_around_mention(self):
        words = [f"w{i}" for i in range(300)]
        words[290] = "zlatokril"
        text = " ".join(words)
        sent = _sentence(text)
        vocab = build_vocab([text], 4096)
        mention = sent.tokens[290].span
        seq = build_classification_example(sent, mention, vocab, max_len=256)
        ids = seq.subtoken_ids
        assert len(seq) == 256
        assert sum(seq.attention_mask) == 256  # filled to the brim
        s, e = ids.index(S_MARK_ID), ids.index(E_MARK_ID)
        assert ids[s + 1 : e] == subword_encode("zlatokril", vocab)

    def test_exact_padding_length(self):
        text = "one two"
        sent = _sentence(text)
        vocab = build_vocab([text], 64)
        seq = build_classification_example(sent, sent.tokens[0].span, vocab, max_len=40)
        assert len(seq.subtoken_ids) == len(seq.attention_mask) == 40

    def test_mention_outside_sentence_rejected(self):
        text = "first part. second part."
        sents = split_sentences(text, tokenize(text))
        with pytest.raises(SpanRangeError):
            build_classification_example(
                sents[0], sents[1].tokens[0].span, build_vocab([text], 64)
            )


class TestTaskInventories:
    def test_class_orders(self):
        assert TASKS["Event"].classes == ("Disposition", "NoDisposition", "Undetermined")
        assert TASKS["Action"].classes == (
            "Start", "Stop", "Increase", "Decrease", "UniqueDose", "OtherChange", "Unknown",
        )
        assert TASKS["Negation"].classes == ("Negated", "NotNegated")
        assert TASKS["Temporality"].classes == ("Past", "Present", "Future", "Unknown")
        assert TASKS["Certainty"].classes == ("Certain", "Hypothetical", "Conditional", "Unknown")
        assert TASKS["Actor"].classes == ("Physician", "Patient", "Unknown")

    def test_dimension_examples_only_from_disposition(self):
        text = "pt started lisinopril"
        ann = "T1\tDrug 11 21\tlisinopril\nE1\tNoDisposition:T1\n"
        doc = parse_standoff(text, ann)
        vocab = build_vocab([text], 128)
        assert collect_task_examples([doc], TASKS["Action"], vocab) == []
        assert len(collect_task_examples([doc], TASKS["Event"], vocab)) == 1


def _zero_head_bundle(texts):
    vocab = build_vocab(texts, 256)
    tasks = {}
    for name, task in TASKS.items():
        cfg = EncoderConfig(
            layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=64,
            vocab_size=len(vocab), dropout_rate=0.0, seed=1,
        )
        model = init_model(cfg, {name: len(task.classes)})
        model.params[f"seq_head.{name}.w"][:] = 0.0
        model.params[f"seq_head.{name}.b"][:] = 0.0
        from rxtract.context import TaskModel

        tasks[name] = TaskModel(model=model, train_config=TrainConfig(), history=[])
    return ClassifierBundle(tasks=tasks, vocab=vocab)


def _plavix_example(bundle):
    text = "doctor started plavix today"
    sent = _sentence(text)
    return mention_examples("d", [sent], [sent.tokens[2].span], bundle.vocab,
                            bundle.max_len)


class TestTieBreaks:
    def test_zero_weight_heads_pick_first_classes(self):
        bundle = _zero_head_bundle(["doctor started plavix today"])
        seqs = _plavix_example(bundle)
        assert predict_events(bundle, seqs) == [EventLabel.DISPOSITION]
        [attrs] = predict_contexts(bundle, seqs)
        assert attrs.action.value == "Start"
        assert attrs.negation.value == "Negated"
        assert attrs.temporality.value == "Past"
        assert attrs.certainty.value == "Certain"
        assert attrs.actor.value == "Physician"

    def test_label_closure(self):
        bundle = _zero_head_bundle(["doctor started plavix today"])
        [attrs] = predict_contexts(bundle, _plavix_example(bundle))
        for task in DIMENSION_TASKS:
            field = task.name.lower()
            assert getattr(attrs, field).value in task.classes


class TestTrainTask:
    def test_degenerate_single_class_constant_classifier(self):
        text = "pt started lisinopril"
        ann = (
            "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\n"
            "A1\tActor E1 Physician\n"
        )
        from rxtract.corpus import Corpus

        docs = [parse_standoff(text, ann, doc_id=f"d{i}") for i in range(4)]
        corpus = Corpus(train=docs[:3], dev=docs[3:])
        vocab = build_vocab([text], 128)
        with pytest.warns(UserWarning, match="constant classifier"):
            tm = train_task(corpus, TASKS["Actor"], SMALL_ENC,
                            TrainConfig(max_epochs=1), vocab)
        examples = collect_task_examples(corpus.dev, TASKS["Actor"], vocab)
        preds = classify_batch(tm.model, TASKS["Actor"], examples)
        assert all(TASKS["Actor"].classes[p] == "Physician" for p in preds)

    def test_identical_seeds_identical_parameters(self):
        result = gen_corpus(GeneratorSpec(seed=4, n_train=12, n_dev=3, n_test=3))
        vocab = build_vocab([d.text for d in result.corpus.train], 512)
        tc = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, seed=5)
        a = train_task(result.corpus, TASKS["Event"], SMALL_ENC, tc, vocab)
        b = train_task(result.corpus, TASKS["Event"], SMALL_ENC, tc, vocab)
        for k in a.model.params:
            assert np.array_equal(a.model.params[k], b.model.params[k])

    def test_task_independence(self):
        result = gen_corpus(GeneratorSpec(seed=4, n_train=16, n_dev=4, n_test=4))
        vocab = build_vocab([d.text for d in result.corpus.train], 512)
        tc = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, seed=5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = train_all_tasks(result.corpus, SMALL_ENC, tc, vocab)
            alone = train_task(result.corpus, TASKS["Negation"], SMALL_ENC, tc, vocab)
        for k in alone.model.params:
            assert np.array_equal(
                alone.model.params[k], bundle.tasks["Negation"].model.params[k]
            )

    def test_memorized_example_recovers_gold_label(self):
        result = gen_corpus(GeneratorSpec(seed=6, n_train=20, n_dev=5, n_test=5))
        vocab = build_vocab([d.text for d in result.corpus.train], 512)
        tc = TrainConfig(learning_rate=2e-3, max_epochs=10, patience=10, seed=0)
        tm = train_task(result.corpus, TASKS["Event"], SMALL_ENC, tc, vocab)
        examples = collect_task_examples(result.corpus.train, TASKS["Event"], vocab)
        preds = classify_batch(tm.model, TASKS["Event"], examples[:20])
        agree = sum(p == s.label for p, s in zip(preds, examples[:20]))
        assert agree >= 18
