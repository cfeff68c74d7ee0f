"""Extraction example building, training behavior, and span prediction."""

import random
import string
from collections import Counter

import numpy as np
import pytest

from rxtract import ner
from rxtract.corpus import AnnotatedDocument, CharSpan, EventLabel, MedicationMention
from rxtract.encoder import EncoderConfig, TrainConfig, fit, init_model
from rxtract.errors import ConfigError, DataError
from rxtract.ner import NerModelBundle, build_ner_examples, predict_ner, train_ner
from rxtract.pipeline import PipelineBundle
from rxtract.preproc import (
    NO_WORD,
    BioTag,
    PieceTable,
    Vocabulary,
    build_vocab,
    split_text,
    tokenize,
)
from rxtract.synth import GeneratorSpec, gen_corpus

SMALL_ENC = EncoderConfig(
    layers=1, hidden_dim=32, heads=2, ffn_dim=64, max_len=64,
    dropout_rate=0.0, seed=0,
)


def _train_vocab(corpus):
    return build_vocab([d.text for d in corpus.train])


def _two_sentence_doc():
    text = "Start plavix today. Vitals look fine."
    return AnnotatedDocument(
        "d",
        text,
        [MedicationMention(CharSpan(6, 12), "plavix", EventLabel.NO_DISPOSITION)],
    )


def _over_long_word_doc():
    """Two sentences; the second is one word of more than 62 pieces."""
    rng = random.Random(0)
    text = "Start plavix today. " + "".join(rng.choices(string.ascii_lowercase + string.digits,
                                                        k=200))
    return AnnotatedDocument(
        "d",
        text,
        [MedicationMention(CharSpan(6, 12), "plavix", EventLabel.NO_DISPOSITION)],
    )


class TestBuildExamples:
    def test_one_sequence_per_sentence(self):
        doc = _two_sentence_doc()
        vocab = build_vocab([doc.text], 128)
        seqs = build_ner_examples([doc], vocab, max_len=32)
        assert len(seqs) == 2
        with_b = [s for s in seqs if BioTag.B in s.tags]
        assert len(with_b) == 1

    def test_sentence_of_over_long_words_gives_no_example(self):
        doc = _over_long_word_doc()
        seqs = build_ner_examples([doc], build_vocab([doc.text], 128), max_len=32)
        assert len(seqs) == 1
        assert BioTag.B in seqs[0].tags

    def test_empty_corpus(self):
        vocab = build_vocab(["x"], 64)
        assert build_ner_examples([], vocab, 256) == []

    def test_b_count_equals_mention_count(self):
        result = gen_corpus(GeneratorSpec(seed=3, n_train=10, n_dev=2, n_test=2))
        docs = result.corpus.train
        vocab = build_vocab([d.text for d in docs], 512)
        seqs = build_ner_examples(docs, vocab, 256)
        total_b = sum(sum(1 for t in s.tags if t is BioTag.B) for s in seqs)
        assert total_b == sum(len(d.mentions) for d in docs)

    def test_cross_sentence_mention_warns(self):
        text = "took aspirin. daily dose"
        doc = AnnotatedDocument(
            "d", text,
            [MedicationMention(CharSpan(5, 18), text[5:18], EventLabel.NO_DISPOSITION)],
        )
        vocab = build_vocab([text], 128)
        with pytest.warns(UserWarning, match="crosses a sentence"):
            build_ner_examples([doc], vocab, 256)


class TestPredict:
    def _random_bundle(self, texts):
        vocab = build_vocab(texts, 256)
        model = init_model(SMALL_ENC, len(vocab))
        return NerModelBundle(model, vocab, TrainConfig(), [])

    def test_empty_text(self):
        bundle = self._random_bundle(["some text"])
        assert predict_ner(bundle, "") == []

    def test_spans_sorted_disjoint_and_token_aligned(self):
        result = gen_corpus(GeneratorSpec(seed=5, n_train=4, n_dev=1, n_test=1))
        texts = [d.text for d in result.corpus.train]
        bundle = self._random_bundle(texts)
        for text in texts:
            spans = predict_ner(bundle, text)
            _, starts, ends = tokenize(text)
            boundaries = {(s, "s") for s in starts} | {(e, "e") for e in ends}
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start
            for s in spans:
                assert 0 <= s.start < s.end <= len(text)
                assert (s.start, "s") in boundaries
                assert (s.end, "e") in boundaries


class TestVocabularyRows:
    """A bundle's model has one embedding row per vocabulary piece."""

    # with fewer rows than pieces, prediction indexes past the embedding;
    # with more, the model was built for another vocabulary
    @pytest.mark.parametrize("rows", [-1, 1])
    def test_model_of_another_vocabulary_size_is_config_error(self, tiny, rows):
        p = tiny[1]
        model = init_model(p.ner.model.config, len(p.ner.vocab) + rows)
        message = (f"extraction model has {len(p.ner.vocab) + rows} vocabulary rows, "
                   f"the bundle's vocabulary {len(p.ner.vocab)} pieces")
        with pytest.raises(ConfigError, match=message):
            NerModelBundle(model, p.ner.vocab, TrainConfig(), [])
        with pytest.raises(ConfigError, match=message):
            PipelineBundle(NerModelBundle(model, p.ner.vocab, TrainConfig(), []), p.classifiers)


class TestTraining:
    def test_empty_split_rejected(self):
        from rxtract.corpus import Corpus

        with pytest.raises(DataError):
            train_ner(Corpus(), SMALL_ENC, TrainConfig(max_epochs=1), build_vocab(["a"]))

    def test_sentence_of_over_long_words_is_not_trained_on(self):
        # a batch of it alone would have no position to score
        from rxtract.corpus import Corpus

        doc = _over_long_word_doc()
        bundle = train_ner(Corpus(train=[doc], dev=[doc]), SMALL_ENC,
                           TrainConfig(batch_size=1, max_epochs=1), build_vocab([doc.text], 128))
        assert len(bundle.history) == 1

    def test_identical_seeds_identical_parameters(self):
        result = gen_corpus(GeneratorSpec(seed=5, n_train=8, n_dev=2, n_test=2))
        tc = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, seed=1)
        vocab = _train_vocab(result.corpus)
        a = train_ner(result.corpus, SMALL_ENC, tc, vocab)
        b = train_ner(result.corpus, SMALL_ENC, tc, vocab)
        for k in a.model.params:
            assert np.array_equal(a.model.params[k], b.model.params[k])

    def test_patience_stops_after_flat_epochs(self):
        model = init_model(SMALL_ENC, 64)
        examples = build_ner_examples(
            gen_corpus(GeneratorSpec(seed=2, n_train=4, n_dev=1, n_test=1)).corpus.train,
            build_vocab(["a"], 64), SMALL_ENC.max_len,
        )
        # dev metric frozen at zero: never improves after the first epoch
        res = fit(model, examples,
                  TrainConfig(max_epochs=10, patience=1, seed=0), lambda m: 0.0)
        assert len(res.history) == 2
        assert res.best_epoch == 1

    def test_memorization_recovers_training_span(self):
        result = gen_corpus(GeneratorSpec(seed=9, n_train=12, n_dev=3, n_test=3))
        tc = TrainConfig(learning_rate=1e-3, max_epochs=6, patience=6, seed=0)
        bundle = train_ner(result.corpus, SMALL_ENC, tc, _train_vocab(result.corpus))
        doc = next(d for d in result.corpus.train if d.mentions)
        spans = predict_ner(bundle, doc.text)
        assert doc.mentions[0].span in spans

    def test_history_records_dev_scores(self):
        result = gen_corpus(GeneratorSpec(seed=5, n_train=8, n_dev=2, n_test=2))
        tc = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, seed=1)
        bundle = train_ner(result.corpus, SMALL_ENC, tc, _train_vocab(result.corpus))
        assert len(bundle.history) == 2
        assert all(0.0 <= h <= 1.0 for h in bundle.history)

    def test_train_sentences_aligned_once_dev_sentences_once_per_epoch(self, monkeypatch):
        result = gen_corpus(GeneratorSpec(seed=5, n_train=8, n_dev=3, n_test=2))
        tc = TrainConfig(learning_rate=1e-3, max_epochs=3, patience=3, seed=1)
        aligned, align = Counter(), ner.align_to_subtokens

        def counting(sent, *args, **kwargs):
            aligned[sent] += 1
            return align(sent, *args, **kwargs)

        monkeypatch.setattr(ner, "align_to_subtokens", counting)
        bundle = train_ner(result.corpus, SMALL_ENC, tc, _train_vocab(result.corpus))
        assert len(bundle.history) == 3
        # each train sentence once; each dev sentence once per epoch's dev score
        expected = Counter(s for d in result.corpus.train for s in split_text(d.text))
        for _ in bundle.history:
            expected.update(s for d in result.corpus.dev for s in split_text(d.text))
        assert aligned == expected


class TestWindows:
    """A sentence of more than max_len pieces runs through NER as windows."""

    VOCAB = Vocabulary.from_pieces(tuple("abcdefghx"))

    def test_windows_hold_every_word_once_in_order(self):
        # pieces per word 3, 2, 3, 9, 2, 1, 4; max_len 8 leaves room for 6
        (sent,) = split_text("abc de fgh xxxxxxxxx ab c defg")
        windows = ner._align_windows(sent, PieceTable(self.VOCAB), 8)
        assert [sorted({w for w in s.word_index if w != NO_WORD}) for s in windows] == \
            [[0, 1], [2, 4, 5], [6]]
        assert all(len(s) <= 8 for s in windows)

    def test_over_long_words_at_the_end_open_no_window(self):
        (sent,) = split_text("abc de xxxxxxxxx")
        (window,) = ner._align_windows(sent, PieceTable(self.VOCAB), 8)
        assert window.word_index == [NO_WORD, 0, 0, 0, 1, 1, NO_WORD]

    def test_mention_across_a_window_boundary_stays_one_span(self):
        (sent,) = split_text("abc def gh")
        windows = ner._align_windows(sent, PieceTable(self.VOCAB), 8)
        assert [len(s) for s in windows] == [8, 4]
        b, i, o = BioTag.B, BioTag.I, BioTag.O
        tags = iter([[o, o, o, o, b, i, i, o], [o, i, i, o]])
        assert ner._decode_windows(windows, tags, sent) == [CharSpan(4, 10)]
