"""The single-pass BIO decoder, NER cut and marker-example builder against
the multi-pass versions they replaced, kept here as oracles.

Inputs cover what the gold round trip never produces: word tags no gold
span gives (an I after an O, an I on the first word), arbitrary per-piece
tag ids as ints and as BioTags, cuts that fall inside a mention, words with
more pieces than the whole sequence may hold, and mentions that start or
end inside a word or cover only whitespace.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from rxtract.context import build_classification_example
from rxtract.corpus import CharSpan
from rxtract.preproc import (
    CLS_ID,
    E_MARK_ID,
    NO_WORD,
    S_MARK_ID,
    SEP_ID,
    BioTag,
    LabeledSequence,
    Sentence,
    align_to_subtokens,
    build_vocab,
    decode_bio,
    subword_encode,
    tokenize,
)

# "x" and "y" stay single pieces, so a long run of them is an over-long
# word; "z" is not in the vocabulary and maps to UNK.
VOCAB = build_vocab(["abcd dcba abab cdcd ab cd x y , ."], 40)


def _reference_align(sent, word_tags, vocab, max_len, doc_id=""):
    # A word that cannot fit between [CLS] and [SEP] contributes no pieces.
    piece_lists = [subword_encode(tok.text, vocab) for tok in sent.tokens]
    piece_lists = [[] if 2 + len(p) > max_len else p for p in piece_lists]

    keep = len(sent.tokens)
    while keep > 0:
        total = 2 + sum(len(p) for p in piece_lists[:keep])
        if total <= max_len and (keep == len(sent.tokens) or word_tags[keep] is not BioTag.I):
            break
        keep -= 1

    ids = [CLS_ID]
    word_index = [NO_WORD]
    tags = [BioTag.O]
    for w in range(keep):
        for j, pid in enumerate(piece_lists[w]):
            ids.append(pid)
            word_index.append(w)
            if word_tags[w] is BioTag.B:
                tags.append(BioTag.B if j == 0 else BioTag.I)
            else:
                tags.append(word_tags[w])
    ids.append(SEP_ID)
    word_index.append(NO_WORD)
    tags.append(BioTag.O)

    return LabeledSequence(
        subtoken_ids=ids,
        word_index=word_index,
        tags=tags,
        origin=(doc_id, sent.span),
    )


def _reference_decode(seq, predicted_tags, sent):
    word_tag: dict[int, BioTag] = {}
    for pos, w in enumerate(seq.word_index):
        if w != NO_WORD and w not in word_tag:
            word_tag[w] = predicted_tags[pos]

    spans: list[CharSpan] = []
    open_range: Optional[list[int]] = None  # [first_word, last_word]

    def close():
        nonlocal open_range
        if open_range is not None:
            first, last = open_range
            spans.append(
                CharSpan(sent.tokens[first].span.start, sent.tokens[last].span.end)
            )
            open_range = None

    for w in sorted(word_tag):
        tag = word_tag[w]
        if tag is BioTag.B:
            close()
            open_range = [w, w]
        elif tag is BioTag.I:
            if open_range is not None and open_range[1] == w - 1:
                open_range[1] = w
            else:
                close()
                open_range = [w, w]  # orphan I repaired to B
        else:
            close()
    close()
    return spans


def _reference_example(sent, mention, vocab, max_len, doc_id=""):
    tokens = sent.tokens
    pieces = [subword_encode(t.text, vocab) for t in tokens]
    inside = [i for i, t in enumerate(tokens) if t.span.overlaps(mention)]
    if inside:
        a, b = inside[0], inside[-1]
    else:
        a = next((i for i, t in enumerate(tokens) if t.span.start >= mention.end),
                 len(tokens))
        b = a - 1

    mention_pieces: list[tuple[int, int]] = []  # (word, piece id)
    for w in range(a, b + 1):
        mention_pieces.extend((w, pid) for pid in pieces[w])
    budget = max_len - 4 - len(mention_pieces)
    if budget < 0:
        mention_pieces = mention_pieces[: max_len - 4]
        budget = 0

    lo, hi = a, b
    first, last = 0, len(tokens) - 1
    while lo > first or hi < last:
        left = lo > first and (hi == last or a - (lo - 1) <= (hi + 1) - b)
        w = lo - 1 if left else hi + 1
        if len(pieces[w]) > budget:
            first, last = (lo, last) if left else (first, hi)
            continue
        budget -= len(pieces[w])
        lo, hi = (w, hi) if left else (lo, w)

    ids = [CLS_ID]
    word_index = [NO_WORD]
    for w in range(lo, a):
        ids.extend(pieces[w])
        word_index.extend([w] * len(pieces[w]))
    ids.append(S_MARK_ID)
    word_index.append(NO_WORD)
    for w, pid in mention_pieces:
        ids.append(pid)
        word_index.append(w)
    ids.append(E_MARK_ID)
    word_index.append(NO_WORD)
    for w in range(b + 1, hi + 1):
        ids.extend(pieces[w])
        word_index.extend([w] * len(pieces[w]))
    ids.append(SEP_ID)
    word_index.append(NO_WORD)

    return LabeledSequence(
        subtoken_ids=ids,
        word_index=word_index,
        origin=(doc_id, sent.span),
    )


_WORDS = st.one_of(
    st.text(alphabet="abcdxz,.", min_size=1, max_size=8),
    st.text(alphabet="xy", min_size=30, max_size=60),  # more pieces than max_len
)


@st.composite
def _sentences(draw):
    words = draw(st.lists(_WORDS, min_size=1, max_size=12))
    gaps = draw(st.lists(st.sampled_from([" ", "  "]), min_size=len(words),
                         max_size=len(words)))
    text = "".join(g + w for g, w in zip(gaps, words))
    tokens = tuple(tokenize(text))
    return Sentence(tokens)


@st.composite
def _tagged_sentences(draw):
    sent = draw(_sentences())
    n = len(sent.tokens)
    word_tags = draw(st.lists(st.sampled_from(list(BioTag)), min_size=n, max_size=n))
    return sent, word_tags


_MAX_LEN = st.integers(8, 40)


class TestAlignMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(_tagged_sentences(), _MAX_LEN)
    def test_same_sequence(self, case, max_len):
        sent, word_tags = case
        got = align_to_subtokens(sent, word_tags, VOCAB, max_len, doc_id="d")
        assert got == _reference_align(sent, word_tags, VOCAB, max_len, doc_id="d")
        assert all(type(t) is BioTag for t in got.tags)


class TestDecodeMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(_tagged_sentences(), _MAX_LEN, st.data())
    def test_same_spans_from_ints_and_tags(self, case, max_len, data):
        sent, word_tags = case
        seq = align_to_subtokens(sent, word_tags, VOCAB, max_len)
        n = len(seq)
        ids = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        tags = [BioTag(t) for t in ids]
        expected = _reference_decode(seq, tags, sent)
        assert decode_bio(seq, ids, sent) == expected
        assert decode_bio(seq, tags, sent) == expected


class TestExampleMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(_sentences(), _MAX_LEN, st.data())
    def test_same_example(self, sent, max_len, data):
        start = data.draw(st.integers(sent.span.start, sent.span.end - 1))
        end = data.draw(st.integers(start + 1, sent.span.end))
        mention = CharSpan(start, end)
        got = build_classification_example(sent, mention, VOCAB, max_len, doc_id="d")
        assert got == _reference_example(sent, mention, VOCAB, max_len, doc_id="d")
