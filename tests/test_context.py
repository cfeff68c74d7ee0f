"""Marker-based classification examples and the per-task classifiers."""

import numpy as np
import pytest

from rxtract import context, pipeline
from rxtract.context import (
    CONTEXT_STACK,
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
from rxtract.corpus import AnnotatedDocument, CharSpan, EventLabel, parse_standoff
from rxtract.encoder import EncoderConfig, TrainConfig, head_widths, init_model
from rxtract.errors import ConfigError, SpanRangeError
from rxtract.pipeline import classify_gold_context, classify_gold_events
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
    dropout_rate=0.0, seed=0,
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
        pieces = sum(len(subword_encode(t.text, vocab)) for t in sent.tokens)
        assert len(seq) == 4 + pieces <= 64  # [CLS] [S] [E] [SEP] + every word
        assert PAD_ID not in ids

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
        assert len(seq) == 256  # filled to the brim
        s, e = ids.index(S_MARK_ID), ids.index(E_MARK_ID)
        assert ids[s + 1 : e] == subword_encode("zlatokril", vocab)

    def test_exact_padding_length(self):
        text = "one two"
        sent = _sentence(text)
        vocab = build_vocab([text], 64)
        seq = build_classification_example(sent, sent.tokens[0].span, vocab, max_len=40)
        pieces = sum(len(subword_encode(t.text, vocab)) for t in sent.tokens)
        assert len(seq.subtoken_ids) == len(seq.word_index)
        assert len(seq) == 4 + pieces <= 40  # real positions only, never padded
        assert PAD_ID not in seq.subtoken_ids

    def test_over_long_word_closes_only_its_own_side(self):
        long_word = "q" * 100
        text = f"caregiver never started velamab {long_word} 5mg yesterday definitely."
        short = "caregiver never started velamab"
        vocab = build_vocab([short], 512)  # no "q": one piece per character
        sent = _sentence(text)
        assert len(subword_encode(long_word, vocab)) == 100
        seq = build_classification_example(sent, sent.tokens[3].span, vocab, max_len=64)
        # the right side stops at the long word; the left side keeps every word
        assert sorted(set(seq.word_index) - {-1}) == [0, 1, 2, 3]
        alone = _sentence(short)
        want = build_classification_example(alone, alone.tokens[3].span, vocab, max_len=64)
        assert seq.subtoken_ids == want.subtoken_ids

    def test_mention_outside_sentence_rejected(self):
        text = "first part. second part."
        sents = split_sentences(text, tokenize(text))
        with pytest.raises(SpanRangeError):
            build_classification_example(
                sents[0], sents[1].tokens[0].span, build_vocab([text], 64), 256
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
        assert collect_task_examples([doc], TASKS["Action"], vocab, 256) == []
        assert len(collect_task_examples([doc], TASKS["Event"], vocab, 256)) == 1

    @pytest.mark.parametrize("task", ["Event", "Action"])
    def test_only_documents_with_a_covered_mention_are_split(self, task, monkeypatch):
        docs = gen_corpus(GeneratorSpec(seed=4, n_train=20, n_dev=2, n_test=2)).corpus.train
        docs.insert(3, AnnotatedDocument("quiet", "no changes today. follow up soon.", []))
        vocab = build_vocab([d.text for d in docs], 512)
        covered = [d for d in docs if any(
            task == "Event" or m.event is EventLabel.DISPOSITION for m in d.mentions)]
        assert 0 < len(covered) < len(docs)
        want = collect_task_examples(covered, TASKS[task], vocab, 256)
        calls = []
        split = context.split_text
        monkeypatch.setattr(context, "split_text", lambda text: calls.append(text) or split(text))
        got = collect_task_examples(docs, TASKS[task], vocab, 256)
        assert calls == [d.text for d in covered]
        assert got == want and all(s.label is not None for s in got)

    @pytest.mark.parametrize("task", ["Event", "Action"])
    def test_gold_span_evaluators_split_only_covered_documents(self, task, tiny, monkeypatch):
        corpus, pipe = tiny
        no_disposition = parse_standoff("pt started lisinopril",
                                        "T1\tDrug 11 21\tlisinopril\nE1\tNoDisposition:T1\n",
                                        doc_id="no_disposition")
        docs = [*corpus.dev[:4], AnnotatedDocument("quiet", "no changes today.", []),
                no_disposition]
        covered = [d for d in docs if any(
            task == "Event" or m.event is EventLabel.DISPOSITION for m in d.mentions)]
        assert docs[4] not in covered and (no_disposition in covered) == (task == "Event")
        classify = classify_gold_events if task == "Event" else classify_gold_context
        want = classify(pipe.classifiers, covered)
        assert want
        calls = []
        for module in (context, pipeline):
            split = module.split_text
            monkeypatch.setattr(module, "split_text",
                                lambda text, split=split: calls.append(text) or split(text))
        got = classify(pipe.classifiers, docs)
        assert calls == [d.text for d in covered]
        if task == "Event":
            want = {d.doc_id: want.get(d.doc_id, []) for d in docs}
        assert got == want


def _zero_head_bundle(texts):
    vocab = build_vocab(texts, 256)
    tasks = {}
    for name, task in TASKS.items():
        cfg = EncoderConfig(
            layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=64,
            dropout_rate=0.0, seed=1,
        )
        model = init_model(cfg, len(vocab), {name: len(task.classes)})
        model.params[f"seq_head.{name}.w"][:] = 0.0
        model.params[f"seq_head.{name}.b"][:] = 0.0
        from rxtract.context import TaskModel

        tasks[name] = TaskModel(model=model, train_config=TrainConfig(), history=[])
    return ClassifierBundle(tasks=tasks, vocab=vocab)


def _plavix_example(bundle):
    text = "doctor started plavix today"
    sent = _sentence(text)
    return mention_examples([AnnotatedDocument("d", text)], [[sent]], [[sent.tokens[2].span]],
                            bundle.vocab, bundle.max_len)[1]


class TestMentionExamples:
    def test_keys_are_document_and_mention_indices(self):
        texts = ["Stop. aspirin now", "took plavix"]
        docs = [AnnotatedDocument(f"d{i}", t) for i, t in enumerate(texts)]
        sentences = [split_sentences(t, tokenize(t)) for t in texts]
        # (5, 13) starts between the first document's two sentences
        spans = [[CharSpan(5, 13), CharSpan(6, 13)], [CharSpan(5, 11)]]
        vocab = build_vocab(texts, 256)
        with pytest.warns(UserWarning, match="not contained in a sentence"):
            keys, seqs = mention_examples(docs, sentences, spans, vocab, 256)
        assert keys == [(0, 1), (1, 0)]
        assert [s.origin[0] for s in seqs] == ["d0", "d1"]
        for (d, j), seq in zip(keys, seqs):
            want = build_classification_example(sentences[d][-1], spans[d][j], vocab, 256,
                                                doc_id=docs[d].doc_id)
            assert seq.subtoken_ids == want.subtoken_ids


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
        examples = collect_task_examples(corpus.dev, TASKS["Actor"], vocab, SMALL_ENC.max_len)
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
        examples = collect_task_examples(result.corpus.train, TASKS["Event"], vocab,
                                         SMALL_ENC.max_len)
        preds = classify_batch(tm.model, TASKS["Event"], examples[:20])
        agree = sum(p == s.label for p, s in zip(preds, examples[:20]))
        assert agree >= 18


class TestStackedContexts:
    """The five dimension classifiers run as one stacked forward pass."""

    def _examples(self, corpus, bundle):
        docs = corpus.dev + corpus.test
        seqs = collect_task_examples(docs, TASKS["Event"], bundle.vocab, bundle.max_len)
        assert len(seqs) > 64  # several stacked chunks and more than one single-model chunk
        return seqs

    def test_predictions_equal_one_classifier_at_a_time(self, tiny):
        corpus, pipe = tiny
        bundle = pipe.classifiers
        seqs = self._examples(corpus, bundle)
        got = predict_contexts(bundle, seqs)
        for task in DIMENSION_TASKS:
            ids = classify_batch(bundle.tasks[task.name].model, task, seqs)
            field = task.name.lower()
            assert [getattr(attrs, field).value for attrs in got] == \
                [task.classes[i] for i in ids]

    def test_stack_is_the_classifiers_own_memory(self, tiny):
        bundle = tiny[1].classifiers
        stack = bundle.contexts
        widths = head_widths((name, w.shape) for name, w in stack.params.items())
        assert list(widths) == [task.name for task in CONTEXT_STACK.tasks]
        for i, task in enumerate(DIMENSION_TASKS):
            params = bundle.tasks[task.name].model.params
            for name, w in stack.params.items():
                if not name.startswith("seq_head."):
                    assert np.shares_memory(w[i], params[name])
            assert np.shares_memory(stack.params[f"seq_head.{task.name}.w"], params.flat)
        assert not np.shares_memory(stack.params["tok_emb"],
                                    bundle.tasks["Event"].model.params.flat)

    def test_bundle_without_dimensions_has_no_stack(self, tiny):
        bundle = tiny[1].classifiers
        events = ClassifierBundle({"Event": bundle.tasks["Event"]}, bundle.vocab)
        assert events.contexts is None and events.max_len == bundle.max_len
        with pytest.raises(ConfigError, match="lacks context classifiers"):
            predict_contexts(events, self._examples(tiny[0], bundle)[:1])

    def test_vocabulary_of_another_size_is_config_error(self, tiny):
        bundle = tiny[1].classifiers
        other = build_vocab(["a few other words"], 64)
        with pytest.raises(ConfigError, match="vocabulary rows"):
            ClassifierBundle(dict(bundle.tasks), other)
