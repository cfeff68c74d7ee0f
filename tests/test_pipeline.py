"""End-to-end chaining and the JSON-lines prediction format."""

import json
from dataclasses import replace

import pytest

from rxtract.context import TASKS, ClassifierBundle, TaskModel
from rxtract.corpus import (
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    EventLabel,
    MedicationMention,
)
from rxtract.encoder import EncoderConfig, TrainConfig, head_widths, init_model
from rxtract.ner import NerModelBundle, predict_ner
from rxtract.errors import ConfigError, DuplicateDocIdError
from rxtract.pipeline import (
    PipelineBundle,
    classify_gold_context,
    classify_gold_events,
    mentions_to_jsonl,
    run_pipeline,
    run_pipeline_over,
)
from rxtract import preproc
from rxtract.corpus import normalize_newlines
from rxtract.preproc import build_vocab, split_text
from rxtract.synth import GeneratorSpec, gen_corpus


def _toy_pipeline(texts, ner_bias_o=True, event_bias=None, seed=2):
    """Untrained pipeline whose heads are rigged for predictable outputs."""
    vocab = build_vocab(texts, 512)
    enc = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32,
                        max_len=64, dropout_rate=0.0,
                        seed=seed)
    ner_model = init_model(enc, len(vocab))
    if ner_bias_o:
        ner_model.params["token_head.w"][:] = 0.0
        ner_model.params["token_head.b"][:] = [-5.0, -5.0, 5.0]
    tasks = {}
    for name, task in TASKS.items():
        m = init_model(enc, len(vocab), {name: len(task.classes)})
        m.params[f"seq_head.{name}.w"][:] = 0.0
        m.params[f"seq_head.{name}.b"][:] = 0.0
        if name == "Event" and event_bias is not None:
            m.params["seq_head.Event.b"][:] = event_bias
        tasks[name] = TaskModel(m, TrainConfig(), [])
    return PipelineBundle(
        ner=NerModelBundle(ner_model, vocab, TrainConfig(), []),
        classifiers=ClassifierBundle(tasks=tasks, vocab=vocab),
    )


class TestRunPipeline:
    def test_empty_text(self):
        p = _toy_pipeline(["anything"])
        doc = run_pipeline(p, "", "empty")
        assert doc.mentions == []

    def test_no_ner_spans_means_no_mentions(self):
        p = _toy_pipeline(["took plavix today"])
        doc = run_pipeline(p, "took plavix today")
        assert doc.mentions == []

    def test_context_present_iff_disposition(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=6, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        # unbiased NER emits junk spans; Event head forced to NoDisposition
        p = _toy_pipeline(texts, ner_bias_o=False,
                          event_bias=[0.0, 5.0, 0.0])
        any_mentions = False
        for text in texts[:3]:
            doc = run_pipeline(p, text)
            doc.validate()
            for m in doc.mentions:
                any_mentions = True
                assert (m.context is not None) == (m.event is EventLabel.DISPOSITION)
        assert any_mentions

    def test_spans_equal_ner_spans(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=6, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        p = _toy_pipeline(texts, ner_bias_o=False)
        for text in texts[:3]:
            doc = run_pipeline(p, text)
            assert [m.span for m in doc.mentions] == predict_ner(p.ner, text)

    def test_disposition_mentions_get_all_five_dimensions(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=6, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        p = _toy_pipeline(texts, ner_bias_o=False,
                          event_bias=[5.0, 0.0, 0.0])  # force Disposition
        doc = run_pipeline(p, texts[0])
        for m in doc.mentions:
            assert m.event is EventLabel.DISPOSITION
            assert m.context is not None


class TestJsonl:
    def test_record_fields(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=6, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        p = _toy_pipeline(texts, ner_bias_o=False, event_bias=[5.0, 0.0, 0.0])
        doc = run_pipeline(p, texts[0], "note1")
        out = mentions_to_jsonl(doc)
        lines = [json.loads(ln) for ln in out.strip().split("\n")]
        assert len(lines) == len(doc.mentions) > 0
        for rec, m in zip(lines, doc.mentions):
            assert rec["doc_id"] == "note1"
            assert rec["start"] == m.span.start and rec["end"] == m.span.end
            assert rec["surface"] == m.surface
            assert rec["event"] == "Disposition"
            assert set(rec) == {
                "doc_id", "start", "end", "surface", "event",
                "action", "negation", "temporality", "certainty", "actor",
            }

    def test_no_context_fields_for_other_events(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=6, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        p = _toy_pipeline(texts, ner_bias_o=False, event_bias=[0.0, 5.0, 0.0])
        doc = run_pipeline(p, texts[0], "note1")
        lines = [json.loads(ln) for ln in mentions_to_jsonl(doc).strip().split("\n")]
        for rec in lines:
            assert set(rec) == {"doc_id", "start", "end", "surface", "event"}

    def test_empty_doc_writes_empty_string(self):
        p = _toy_pipeline(["x"])
        assert mentions_to_jsonl(run_pipeline(p, "", "e")) == ""


class TestBundleValidation:
    def test_vocabulary_mismatch_detected(self):
        a = _toy_pipeline(["alpha beta"])
        b = _toy_pipeline(["gamma delta epsilon zeta"])
        with pytest.raises(ConfigError, match="vocabulary"):
            PipelineBundle(ner=a.ner, classifiers=b.classifiers)

    def test_missing_classifier_detected(self):
        p = _toy_pipeline(["alpha beta"])
        tasks = {name: tm for name, tm in p.classifiers.tasks.items() if name != "Actor"}
        with pytest.raises(ConfigError, match="missing components: Actor"):
            PipelineBundle(ner=p.ner, classifiers=ClassifierBundle(tasks, p.classifiers.vocab))

    def test_run_pipeline_over_keys_by_doc_id(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=3, n_dev=1, n_test=1))
        p = _toy_pipeline([d.text for d in result.corpus.train])
        preds = run_pipeline_over(p, result.corpus.train)
        assert set(preds) == {d.doc_id for d in result.corpus.train}

    def test_repeated_notes_keep_their_own_offsets(self, tiny):
        # the third note is the first one twice: its sentences share the
        # first note's ids, so each is encoded once for all of them and its
        # result must be decoded against each sentence's own span
        corpus, p = tiny
        first, second = corpus.test[:2]
        docs = [first, second, AnnotatedDocument("twice", first.text * 2)]
        preds = run_pipeline_over(p, docs)
        for d in docs:
            assert preds[d.doc_id] == run_pipeline(p, d.text, d.doc_id).mentions
        once, shift = preds[first.doc_id], len(first.text)
        assert once
        assert preds["twice"] == once + [
            replace(m, span=CharSpan(m.span.start + shift, m.span.end + shift)) for m in once]

    @pytest.mark.parametrize("run", [run_pipeline_over, classify_gold_events,
                                     classify_gold_context])
    def test_shared_doc_id_is_refused(self, run):
        # predictions are keyed by doc_id: one note's would silently replace the other's
        result = gen_corpus(GeneratorSpec(seed=3, n_train=3, n_dev=1, n_test=1))
        p = _toy_pipeline([d.text for d in result.corpus.train])
        docs = [replace(d, doc_id="same") for d in result.corpus.train[:2]]
        with pytest.raises(DuplicateDocIdError, match="'same'"):
            run(p if run is run_pipeline_over else p.classifiers, docs)

    def test_classifiers_disagreeing_on_max_len_rejected(self):
        # checked once, when the bundle is built, not on every run
        p = _toy_pipeline(["took plavix today"])
        tasks = dict(p.classifiers.tasks)
        actor = tasks["Actor"].model
        widths = head_widths((name, w.shape) for name, w in actor.params.items())
        tasks["Actor"] = TaskModel(init_model(replace(actor.config, max_len=32),
                                              len(p.classifiers.vocab), widths),
                                   TrainConfig(), [])
        with pytest.raises(ConfigError, match="classifier Actor has max_len 32"):
            ClassifierBundle(tasks=tasks, vocab=p.classifiers.vocab)


class TestGoldSpans:
    TEXT = "Stop. aspirin now and plavix today"

    def _doc(self):
        def mention(start, end):
            return MedicationMention(CharSpan(start, end), self.TEXT[start:end],
                                     EventLabel.DISPOSITION, ContextAttributes())

        # (5, 13) starts on the space between the two sentences.
        return AnnotatedDocument("d", self.TEXT, [mention(5, 13), mention(22, 28)])

    def test_mention_outside_one_sentence_skipped_for_events(self):
        p = _toy_pipeline([self.TEXT])
        with pytest.warns(UserWarning, match="not contained in a sentence"):
            preds = classify_gold_events(p.classifiers, [self._doc()])
        assert [m.span for m in preds["d"]] == [CharSpan(22, 28)]

    def test_mention_outside_one_sentence_skipped_for_context(self):
        p = _toy_pipeline([self.TEXT])
        with pytest.warns(UserWarning, match="not contained in a sentence"):
            preds = classify_gold_context(p.classifiers, [self._doc()])
        assert list(preds) == [("d", 22, 28)]


class TestPreprocessingObjects:
    def test_one_char_span_per_sentence_and_per_mention(self, tiny, monkeypatch):
        # words are held as offsets: a CharSpan is made only for a
        # sentence's span (its examples' origin) and for a returned mention
        corpus, p = tiny
        docs = corpus.dev + corpus.test
        sentences = sum(len(split_text(normalize_newlines(d.text))) for d in docs)
        made = []
        post_init = CharSpan.__post_init__

        def counting(span):
            made.append(span)
            post_init(span)

        monkeypatch.setattr(CharSpan, "__post_init__", counting)
        preds = run_pipeline_over(p, docs)
        mentions = sum(map(len, preds.values()))
        assert mentions
        assert len(made) <= sentences + mentions
        assert not hasattr(preproc, "Token")  # no per-word object to build

    def test_benchmark_sentence_count_is_the_pipeline_split(self, tiny):
        # perfbench counts sentences as split_sentences(text, tokenize(text))
        corpus, _ = tiny
        for doc in corpus.dev + corpus.test:
            text = doc.text
            assert len(preproc.split_sentences(text, preproc.tokenize(text))) == \
                len(preproc.split_text(text)) > 0
