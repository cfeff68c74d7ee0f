"""Tokenization, sentence splitting, subword vocabulary, BIO alignment."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxtract.corpus import CharSpan
from rxtract.errors import CapacityError, ConfigError, ConflictError
from rxtract.preproc import (
    CLS_ID,
    NO_WORD,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_PIECES,
    UNK_ID,
    BioTag,
    Sentence,
    Vocabulary,
    align_to_subtokens,
    build_vocab,
    decode_bio,
    spans_to_bio,
    split_sentences,
    subword_encode,
    tokenize,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_offsets(self):
        toks = tokenize("lisinopril 10mg, daily")
        assert [t.text for t in toks] == ["lisinopril", "10mg", ",", "daily"]
        assert [(t.span.start, t.span.end) for t in toks] == [
            (0, 10), (11, 15), (15, 16), (17, 22),
        ]

    def test_alnum_token_idempotence(self):
        for tok in tokenize("metformin 500mg bid x30 days"):
            again = tokenize(tok.text)
            assert len(again) == 1 and again[0].text == tok.text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_spans_cover_exactly_the_non_whitespace(self, text):
        toks = tokenize(text)
        covered = set()
        for t in toks:
            assert t.text == text[t.span.start : t.span.end]
            covered.update(range(t.span.start, t.span.end))
        expected = {i for i, ch in enumerate(text) if not ch.isspace()}
        assert covered == expected

    def test_tokens_sorted_and_disjoint(self):
        toks = tokenize("x1 (y-2) z.3")
        for a, b in zip(toks, toks[1:]):
            assert a.span.end <= b.span.start


def _reference_tokenize(text):
    """Character loop over `str.isalnum`/`str.isspace`: an oracle for the
    regular expression in `tokenize`."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i + 1
        if text[i].isalnum():
            while j < n and text[j].isalnum():
                j += 1
        out.append((text[i:j], i, j))
        i = j
    return out


class TestTokenizeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=40),
        # underscore, superscript digit, combining accent, no-break and
        # line-separator spaces, fraction, CJK: where \w and isalnum
        # could part ways
        st.text(alphabet="a1_\u00b2\u0301\u00a0\u2028\u00bd\u4e2d .-", max_size=40),
    ))
    def test_same_tokens_as_character_loop(self, text):
        got = [(t.text, t.span.start, t.span.end) for t in tokenize(text)]
        assert got == _reference_tokenize(text)


class TestSplitSentences:
    def test_terminator_boundaries(self):
        text = "Stopped aspirin. Start plavix."
        sents = split_sentences(text, tokenize(text))
        assert len(sents) == 2
        assert [len(s.tokens) for s in sents] == [3, 3]

    def test_no_terminator_single_sentence(self):
        text = "continue metformin at current dose"
        sents = split_sentences(text, tokenize(text))
        assert len(sents) == 1
        assert len(sents[0].tokens) == 5

    def test_blank_line_boundary(self):
        sents = split_sentences("a.\n\nb", tokenize("a.\n\nb"))
        assert len(sents) == 2

    def test_blank_line_without_terminator(self):
        sents = split_sentences("plan a\n\nplan b", tokenize("plan a\n\nplan b"))
        assert len(sents) == 2

    def test_span_runs_from_first_to_last_token(self):
        tokens = tuple(tokenize("  took plavix ."))
        assert Sentence(tokens).span == CharSpan(2, 15)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab .!?\n", max_size=50))
    def test_every_token_in_exactly_one_sentence(self, text):
        toks = tokenize(text)
        sents = split_sentences(text, toks)
        flattened = [t for s in sents for t in s.tokens]
        assert flattened == toks
        for s in sents:
            assert s.span.start == s.tokens[0].span.start
            assert s.span.end == s.tokens[-1].span.end


class TestBuildVocab:
    def test_merge_order_on_repeats(self):
        v = build_vocab(["aaaa"], target_size=32)
        assert "a" in v.pieces and "aa" in v.pieces

    def test_all_single_characters_present(self):
        texts = ["metformin 500mg", "x?!"]
        v = build_vocab(texts, target_size=512)
        for text in texts:
            for ch in text:
                assert ch in v.pieces

    def test_deterministic(self):
        texts = ["aspirin aspirin plavix", "plavix daily"]
        assert build_vocab(texts, 64).pieces == build_vocab(texts, 64).pieces

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_vocab(["abcdefgh"], target_size=10)

    def test_specials_reserved(self):
        v = build_vocab(["ab"], 64)
        assert v.pieces[PAD_ID] == "[PAD]"
        assert v.pieces[CLS_ID] == "[CLS]"
        assert len(set(v.pieces)) == len(v.pieces)

    def test_lookup_derived_from_pieces(self):
        v = Vocabulary(SPECIAL_PIECES + ("ab",))
        assert subword_encode("ab", v) == [NUM_SPECIALS]
        assert v == Vocabulary.from_pieces(["ab"])

    @pytest.mark.parametrize("pieces", [("ab",), SPECIAL_PIECES[1:] + ("ab",), ()])
    def test_pieces_must_start_with_the_specials(self, pieces):
        with pytest.raises(ConfigError):
            Vocabulary(pieces)


def _reference_build_vocab(texts, target_size):
    """The plain merge loop: recount every pair and re-segment every word
    on every merge. An oracle for the incremental `build_vocab`."""
    chars = sorted({ch for text in texts for ch in text})
    if target_size < len(chars) + NUM_SPECIALS:
        raise CapacityError("too small")

    word_counts = Counter()
    for text in texts:
        word_counts.update(tok.text for tok in tokenize(text))

    segmented = {w: list(w) for w in word_counts}
    pieces = list(chars)
    piece_set = set(pieces)

    while len(pieces) + NUM_SPECIALS < target_size:
        pair_counts = Counter()
        for word, segs in segmented.items():
            count = word_counts[word]
            for a, b in zip(segs, segs[1:]):
                pair_counts[(a, b)] += count
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merged = best[0] + best[1]
        if merged not in piece_set:
            pieces.append(merged)
            piece_set.add(merged)
        for word, segs in segmented.items():
            out = []
            i = 0
            while i < len(segs):
                if i + 1 < len(segs) and segs[i] == best[0] and segs[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(segs[i])
                    i += 1
            segmented[word] = out

    return Vocabulary.from_pieces(pieces)


class TestBuildVocabMatchesReference:
    # A tiny alphabet makes ties and pairs shared across words common.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="abc d.", max_size=24), max_size=6),
        st.integers(min_value=NUM_SPECIALS, max_value=NUM_SPECIALS + 40),
    )
    def test_same_pieces_as_reference_loop(self, texts, target_size):
        try:
            expected = _reference_build_vocab(texts, target_size)
        except CapacityError:
            with pytest.raises(CapacityError):
                build_vocab(texts, target_size)
            return
        assert build_vocab(texts, target_size).pieces == expected.pieces


class TestSubwordEncode:
    def test_whole_word_single_piece(self):
        v = build_vocab(["drug drug drug"], 64)
        assert subword_encode("drug", v) == [v.piece_to_id["drug"]]

    def test_greedy_longest_match(self):
        v = Vocabulary.from_pieces(("a", "b", "c", "ab"))
        ids = subword_encode("abc", v)
        assert ids == [v.piece_to_id["ab"], v.piece_to_id["c"]]

    def test_unknown_character_maps_to_unk(self):
        v = build_vocab(["abc"], 64)
        assert subword_encode("aZc", v) == [
            v.piece_to_id["a"], UNK_ID, v.piece_to_id["c"],
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcdef", min_size=1, max_size=20))
    def test_pieces_concatenate_to_word(self, word):
        v = build_vocab(["abcdef fedcba abc"], 128)
        ids = subword_encode(word, v)
        assert "".join(v.pieces[i] for i in ids) == word


def _sentence(text):
    return split_sentences(text, tokenize(text))[0]


class TestSpansToBio:
    def test_single_token_mention(self):
        sent = _sentence("pt started lisinopril 10mg daily")
        tags = spans_to_bio(sent, [CharSpan(11, 21)])
        assert tags == [BioTag.O, BioTag.O, BioTag.B, BioTag.O, BioTag.O]

    def test_two_token_mention(self):
        sent = _sentence("insulin glargine")
        assert spans_to_bio(sent, [CharSpan(0, 16)]) == [BioTag.B, BioTag.I]

    def test_no_mentions_all_o(self):
        sent = _sentence("nothing to see")
        assert spans_to_bio(sent, []) == [BioTag.O] * 3

    def test_partial_overlap_counts_token_inside(self):
        sent = _sentence("pt started lisinopril 10mg daily")
        tags = spans_to_bio(sent, [CharSpan(13, 24)])  # cuts two tokens
        assert tags == [BioTag.O, BioTag.O, BioTag.B, BioTag.I, BioTag.O]

    def test_overlapping_mentions_conflict(self):
        sent = _sentence("a b c d")
        with pytest.raises(ConflictError):
            spans_to_bio(sent, [CharSpan(0, 3), CharSpan(2, 5)])


class TestAlignToSubtokens:
    def test_b_word_spreads_b_then_i(self):
        v = Vocabulary.from_pieces(("lis", "ino", "pril", "x"))
        sent = _sentence("lisinopril")
        seq = align_to_subtokens(sent, [BioTag.B], v, max_len=16)
        real_tags = [t for t, w in zip(seq.tags, seq.word_index) if w != NO_WORD]
        assert real_tags == [BioTag.B, BioTag.I, BioTag.I]

    def test_all_o_sentence(self):
        v = build_vocab(["check vitals daily"], 64)
        sent = _sentence("check vitals daily")
        seq = align_to_subtokens(sent, [BioTag.O] * 3, v, max_len=32)
        assert all(t is BioTag.O for t in seq.tags)

    def test_layout_and_padding(self):
        v = build_vocab(["ab cd"], 64)
        sent = _sentence("ab cd")
        seq = align_to_subtokens(sent, [BioTag.O, BioTag.O], v, max_len=16)
        pieces = sum(len(subword_encode(t.text, v)) for t in sent.tokens)
        assert len(seq) == 2 + pieces <= 16  # [CLS] + both words + [SEP], unpadded
        assert PAD_ID not in seq.subtoken_ids
        assert len(seq.word_index) == len(seq.tags) == len(seq)
        assert seq.subtoken_ids[0] == CLS_ID and seq.subtoken_ids[-1] == SEP_ID
        assert seq.word_index[0] == NO_WORD and seq.word_index[-1] == NO_WORD

    def test_truncation_drops_whole_trailing_words(self):
        v = Vocabulary.from_pieces(tuple("abcdefgh"))
        sent = _sentence("abc def gh")
        # pieces per word: 3 + 3 + 2, plus specials = 10 > max_len 8
        seq = align_to_subtokens(sent, [BioTag.O] * 3, v, max_len=8)
        kept_words = {w for w in seq.word_index if w != NO_WORD}
        assert kept_words == {0, 1}

    def test_truncation_never_splits_a_mention(self):
        v = Vocabulary.from_pieces(tuple("abcdefgh"))
        sent = _sentence("abc def gh")
        # words 1..2 form one mention (B, I); word 2 does not fit,
        # so the whole mention is dropped rather than cut
        seq = align_to_subtokens(sent, [BioTag.O, BioTag.B, BioTag.I], v, max_len=8)
        kept_words = {w for w in seq.word_index if w != NO_WORD}
        assert kept_words == {0}
        assert BioTag.B not in seq.tags

    def test_over_long_word_contributes_no_pieces(self):
        v = Vocabulary.from_pieces(tuple("abx"))
        sent = _sentence("ab xxxxxxxx ab")
        # the middle word's 8 pieces exceed max_len - 2; the words after it stay
        seq = align_to_subtokens(sent, [BioTag.O, BioTag.O, BioTag.B], v, max_len=8)
        assert seq.word_index == [NO_WORD, 0, 0, 2, 2, NO_WORD]
        assert decode_bio(seq, seq.tags, sent) == [sent.tokens[2].span]

    def test_round_trip_through_decode(self):
        v = build_vocab(["pt started lisinopril 10mg daily"], 256)
        sent = _sentence("pt started lisinopril 10mg daily")
        mention = [CharSpan(11, 21)]
        seq = align_to_subtokens(sent, spans_to_bio(sent, mention), v, max_len=32)
        assert decode_bio(seq, seq.tags, sent) == mention


class TestDecodeBio:
    def _seq_and_sent(self, text, v=None):
        v = v or build_vocab([text], 256)
        sent = _sentence(text)
        seq = align_to_subtokens(sent, [BioTag.O] * len(sent.tokens), v, max_len=32)
        return seq, sent

    def _word_tags_to_piece_tags(self, seq, word_tags):
        tags = []
        seen = set()
        for w in seq.word_index:
            if w == NO_WORD:
                tags.append(BioTag.O)
            elif w in seen:
                tags.append(BioTag.I if word_tags[w] is not BioTag.O else BioTag.O)
            else:
                seen.add(w)
                tags.append(word_tags[w])
        return tags

    def test_single_span(self):
        seq, sent = self._seq_and_sent("pt started lisinopril 10mg daily")
        tags = self._word_tags_to_piece_tags(
            seq, [BioTag.O, BioTag.O, BioTag.B, BioTag.O, BioTag.O]
        )
        assert decode_bio(seq, tags, sent) == [CharSpan(11, 21)]

    def test_orphan_i_repaired_to_b(self):
        seq, sent = self._seq_and_sent("one two three")
        tags = self._word_tags_to_piece_tags(seq, [BioTag.O, BioTag.I, BioTag.O])
        spans = decode_bio(seq, tags, sent)
        assert spans == [sent.tokens[1].span]

    def test_all_o_decodes_empty(self):
        seq, sent = self._seq_and_sent("nothing here")
        assert decode_bio(seq, seq.tags, sent) == []

    def test_adjacent_mentions_stay_separate(self):
        seq, sent = self._seq_and_sent("aspirin plavix daily")
        tags = self._word_tags_to_piece_tags(seq, [BioTag.B, BioTag.B, BioTag.O])
        assert decode_bio(seq, tags, sent) == [
            sent.tokens[0].span, sent.tokens[1].span,
        ]


@st.composite
def _sentence_with_mentions(draw):
    n_words = draw(st.integers(1, 10))
    words = [draw(st.text(alphabet="abcd", min_size=1, max_size=6)) for _ in range(n_words)]
    text = " ".join(words)
    sent = _sentence(text)
    picks = draw(st.lists(st.booleans(), min_size=n_words, max_size=n_words))
    extends = draw(st.lists(st.integers(0, 2), min_size=n_words, max_size=n_words))
    mentions = []
    i = 0
    while i < n_words:
        if picks[i]:
            j = min(n_words - 1, i + extends[i])
            mentions.append(
                CharSpan(sent.tokens[i].span.start, sent.tokens[j].span.end)
            )
            i = j + 2  # leave a gap so mentions never touch the same token
        else:
            i += 1
    return sent, mentions


class TestBioRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(_sentence_with_mentions())
    def test_token_aligned_mentions_round_trip(self, case):
        sent, mentions = case
        v = build_vocab(["abcd dcba ab cd"], 128)
        tags = spans_to_bio(sent, mentions)
        seq = align_to_subtokens(sent, tags, v, max_len=256)
        assert decode_bio(seq, seq.tags, sent) == mentions

    @settings(max_examples=300, deadline=None)
    @given(_sentence_with_mentions())
    def test_b_count_conserved_without_truncation(self, case):
        sent, mentions = case
        v = build_vocab(["abcd dcba ab cd"], 128)
        word_tags = spans_to_bio(sent, mentions)
        seq = align_to_subtokens(sent, word_tags, v, max_len=256)
        assert sum(1 for t in seq.tags if t is BioTag.B) == sum(
            1 for t in word_tags if t is BioTag.B
        )
