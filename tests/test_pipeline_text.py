"""Property tests of the pipeline on odd text, with the tiny pipeline of
conftest.py: empty text, CRLF, blank-line runs, non-ASCII, a word of more
than max_len pieces and a sentence of more than max_len pieces, which
NER reads as windows of whole words."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxtract.corpus import AnnotatedDocument, normalize_newlines
from rxtract.ner import predict_ner
from rxtract.pipeline import run_pipeline, run_pipeline_over
from rxtract.preproc import split_text, subword_encode

MAX_LEN = 64  # the tiny pipeline's max_len
CLINICAL = (
    "patient duly started velamab 5mg yesterday definitely.",
    "home regimen keeps haldinib forte 250mg continues unchanged.",
    "med list shows joramab 2ml continues unchanged",
)
LONG_WORD = "ж" * 100  # one unknown piece per character
LONG_SENTENCE = " ".join(["patient started joramab 5mg and"] * 20)
ODD = ("", "\r\n", "\r", "\n\n\n\n", " \t ", "café naïve Ünïcödé", "日本語のテキスト",
       "💊🙂", LONG_WORD, LONG_SENTENCE, "velamab" + LONG_WORD)
SEPARATORS = ("", " ", "\n", "\r\n", "\n\n", "\r\n\r\n\r\n", ". ")

texts = st.lists(
    st.sampled_from(CLINICAL + ODD) | st.text(max_size=12), max_size=6
).flatmap(lambda parts: st.lists(st.sampled_from(SEPARATORS), min_size=len(parts),
                                 max_size=len(parts))
          .map(lambda seps: "".join(p + s for p, s in zip(parts, seps))))


def test_odd_inputs_are_as_long_as_claimed(tiny):
    _, bundle = tiny
    assert bundle.ner.model.config.max_len == MAX_LEN
    vocab = bundle.ner.vocab
    assert len(subword_encode(LONG_WORD, vocab)) > MAX_LEN
    (sent,) = split_text(LONG_SENTENCE)
    assert 2 + sum(len(subword_encode(w, vocab)) for w in sent.words) > MAX_LEN
    # the properties below see predicted mentions, not only empty outputs
    assert run_pipeline(bundle, LONG_SENTENCE).mentions
    assert run_pipeline(bundle, CLINICAL[0]).mentions


@pytest.mark.parametrize("junk", [LONG_WORD, "ж" * 99, "q" * 100, "x" * 99, "qz" * 50],
                         ids=["zh100", "zh99", "q100", "x99", "qz50"])
def test_over_long_word_hides_no_later_word(tiny, junk):
    """A word of more pieces than any sequence holds is left out of NER
    alone; the words after it are still tagged."""
    _, bundle = tiny
    assert len(subword_encode(junk, bundle.ner.vocab)) > MAX_LEN - 2
    text = f"patient duly started {junk} velamab 5mg yesterday definitely."
    assert [text[s.start:s.end] for s in predict_ner(bundle.ner, text)] == ["velamab"]


def _pieces(vocab, text):
    (sent,) = split_text(text)
    return sum(len(subword_encode(w, vocab)) for w in sent.words)


@pytest.mark.parametrize("junk", ["ж" * 60, "ж" * 61, "q" * 61, "x" * 60],
                         ids=["zh60", "zh61", "q61", "x60"])
def test_over_long_sentence_keeps_its_tail(tiny, junk):
    """The words after a sentence's first max_len pieces are still tagged."""
    _, bundle = tiny
    text = f"patient duly started {junk} velamab 5mg yesterday definitely."
    assert len(subword_encode(junk, bundle.ner.vocab)) <= MAX_LEN - 2
    assert 2 + _pieces(bundle.ner.vocab, text) > MAX_LEN
    assert [text[s.start:s.end] for s in predict_ner(bundle.ner, text)] == ["velamab"]


def test_sentence_of_three_windows_yields_each_windows_mention(tiny):
    _, bundle = tiny
    vocab = bundle.ner.vocab
    thirds = []
    for third in CLINICAL:  # each padded to just under one window
        third = third.rstrip(".")
        while _pieces(vocab, f"{third} continues unchanged") <= MAX_LEN - 2:
            third += " continues unchanged"
        thirds.append(third)
    text = " ".join(thirds)
    assert 2 + _pieces(vocab, text) > 2.5 * MAX_LEN
    assert [text[s.start:s.end] for s in predict_ner(bundle.ner, text)] == \
        ["velamab", "haldinib forte", "joramab"]


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(texts, min_size=1, max_size=4))
@example(batch=[""])
@example(batch=["velamab 5mg started.\r\nstop joramab.\r\n"])
@example(batch=["started velamab.\n\n\n\n\nstopped joramab."])
@example(batch=["café: started velamab 5mg — naïve 日本語 💊"])
@example(batch=["started " + LONG_WORD + " today. started velamab 5mg."])
@example(batch=[LONG_SENTENCE, "", CLINICAL[0]])
def test_pipeline_on_odd_text(tiny, batch):
    _, bundle = tiny
    docs = [AnnotatedDocument(f"doc{i}", text) for i, text in enumerate(batch)]
    over = run_pipeline_over(bundle, docs)
    for doc in docs:
        out = run_pipeline(bundle, doc.text, doc.doc_id)
        out.validate()
        assert out.text == normalize_newlines(doc.text)
        for m in out.mentions:
            assert 0 <= m.span.start < m.span.end <= len(out.text)
            assert m.surface == out.text[m.span.start : m.span.end]
        assert over[doc.doc_id] == out.mentions
        assert predict_ner(bundle.ner, doc.text) == [m.span for m in out.mentions]
