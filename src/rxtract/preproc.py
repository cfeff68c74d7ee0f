"""Offset-preserving tokenization, sentence splitting, subword vocabulary,
BIO encoding/decoding, and word-to-subtoken tag alignment.

Alignment and decoding are one pass each over a sentence: `align_to_subtokens`
finds its cut from one prefix sum of the words' piece counts, and
`decode_bio` walks the pieces once, reading the model's integer tag ids or
`BioTag`s alike (`BioTag` is an `IntEnum`).
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import accumulate
from typing import Optional, Sequence

from .corpus import CharSpan, check_disjoint
from .errors import CapacityError, ConfigError, ConflictError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
S_MARK_ID = 4
E_MARK_ID = 5

SPECIAL_PIECES = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[S]", "[E]")
NUM_SPECIALS = len(SPECIAL_PIECES)

# Sentinel word index for special tokens and padding positions.
NO_WORD = -1

DEFAULT_VOCAB_SIZE = 4096


class BioTag(IntEnum):
    B = 0
    I = 1
    O = 2


@dataclass(frozen=True)
class Token:
    text: str
    span: CharSpan


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    span: CharSpan = field(init=False)  # first token's start to last token's end

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "span", CharSpan(self.tokens[0].span.start, self.tokens[-1].span.end))


# A maximal run of alphanumerics, or one other non-space character.
# `[^\W_]` is exactly `str.isalnum()` and `\s` exactly `str.isspace()`.
_TOKEN_RE = re.compile(r"[^\W_]+|\S")


def tokenize(text: str) -> list[Token]:
    """Split text into maximal alphanumeric runs plus single-character symbols."""
    return [
        Token(text=m.group(), span=CharSpan(m.start(), m.end()))
        for m in _TOKEN_RE.finditer(text)
    ]


_TERMINATORS = {".", "!", "?"}


def split_sentences(text: str, tokens: Sequence[Token]) -> list[Sentence]:
    """Group tokens into sentences.

    A boundary falls after '.', '!', '?' tokens and wherever the gap between
    consecutive tokens contains a blank line (two adjacent newlines).
    """
    sentences: list[Sentence] = []
    current: list[Token] = []

    def flush():
        if current:
            sentences.append(Sentence(tuple(current)))
            current.clear()

    for idx, tok in enumerate(tokens):
        current.append(tok)
        if tok.text in _TERMINATORS:
            flush()
            continue
        if idx + 1 < len(tokens):
            gap = text[tok.span.end : tokens[idx + 1].span.start]
            if "\n\n" in gap:
                flush()
    flush()
    return sentences


def split_text(text: str) -> list[Sentence]:
    """Tokenize a text once and group its tokens into sentences."""
    return split_sentences(text, tokenize(text))


@dataclass(frozen=True)
class Vocabulary:
    """Subword piece inventory; index in `pieces` is the piece id.

    Ids 0-5 are reserved for the special tokens, which `pieces` starts with.
    Every character of the corpus it was built from is a piece, so segmentation never fails.
    """

    pieces: tuple[str, ...]
    piece_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    max_piece_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(self.pieces[:NUM_SPECIALS]) != SPECIAL_PIECES:
            raise ConfigError(f"a vocabulary's pieces must start with {SPECIAL_PIECES}")
        text = self.pieces[NUM_SPECIALS:]
        object.__setattr__(self, "piece_to_id", {p: i for i, p in enumerate(text, NUM_SPECIALS)})
        object.__setattr__(self, "max_piece_len", max(map(len, text), default=1))

    @staticmethod
    def from_pieces(text_pieces: Sequence[str]) -> "Vocabulary":
        return Vocabulary(SPECIAL_PIECES + tuple(text_pieces))

    def __len__(self) -> int:
        return len(self.pieces)


def build_vocab(texts: Sequence[str], target_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Greedy merge vocabulary over the words of `texts`.

    Starts from all single characters and repeatedly merges the most frequent
    adjacent piece pair within words (ties broken lexicographically) until
    `target_size` pieces exist or no adjacent pair is left.

    Pair counts and a pair -> words index are kept up to date across merges,
    so each merge re-segments only the words that may hold the merged pair. A
    heap yields the best pair; an entry whose count has changed since it was
    pushed is stale and skipped.
    """
    chars = sorted({ch for text in texts for ch in text})
    if target_size < len(chars) + NUM_SPECIALS:
        raise CapacityError(
            f"target_size {target_size} < {len(chars)} distinct characters "
            f"+ {NUM_SPECIALS} specials"
        )

    word_counts = Counter()
    for text in texts:
        word_counts.update(_TOKEN_RE.findall(text))

    # Each distinct word is a list of current pieces; counts weight the pairs.
    segmented: dict[str, list[str]] = {w: list(w) for w in word_counts}
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: defaultdict[tuple[str, str], set[str]] = defaultdict(set)
    for word, segs in segmented.items():
        for pair in zip(segs, segs[1:]):
            pair_counts[pair] += word_counts[word]
            pair_words[pair].add(word)
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)

    pieces: list[str] = list(chars)
    piece_set = set(pieces)

    while len(pieces) + NUM_SPECIALS < target_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        best = heapq.heappop(heap)[1]
        merged = best[0] + best[1]
        if merged not in piece_set:
            pieces.append(merged)
            piece_set.add(merged)
        # Re-segmenting removes every adjacency of `best`, so its count drops
        # to zero and the loop terminates even when `merged` was already a
        # piece. The index may also list words that no longer hold `best`;
        # re-segmenting those changes nothing.
        delta: Counter[tuple[str, str]] = Counter()
        for word in pair_words.pop(best):
            count = word_counts[word]
            old = segmented[word]
            new = segmented[word] = _merge_pair(old, best, merged)
            for pair in zip(old, old[1:]):
                delta[pair] -= count
            for pair in zip(new, new[1:]):
                delta[pair] += count
                pair_words[pair].add(word)
        for pair, d in delta.items():
            if d:
                c = pair_counts[pair] + d
                if c:
                    pair_counts[pair] = c
                    heapq.heappush(heap, (-c, pair))
                else:
                    del pair_counts[pair]

    return Vocabulary.from_pieces(pieces)


def _merge_pair(segs: list[str], pair: tuple[str, str], merged: str) -> list[str]:
    """Replace each left-to-right, non-overlapping occurrence of `pair`."""
    out = []
    i = 0
    while i < len(segs):
        if i + 1 < len(segs) and segs[i] == pair[0] and segs[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(segs[i])
            i += 1
    return out


def subword_encode(word: str, vocab: Vocabulary) -> list[int]:
    """Greedy longest-match segmentation; unknown characters map to UNK."""
    ids: list[int] = []
    i, n = 0, len(word)
    while i < n:
        match_id = None
        for length in range(min(vocab.max_piece_len, n - i), 0, -1):
            pid = vocab.piece_to_id.get(word[i : i + length])
            if pid is not None:
                match_id = pid
                i += length
                break
        if match_id is None:
            match_id = UNK_ID
            i += 1
        ids.append(match_id)
    return ids


def spans_to_bio(sent: Sentence, mentions: Sequence[CharSpan]) -> list[BioTag]:
    """Tag each token of the sentence with B/I/O against the mention spans.

    A token counts as inside a mention when their spans overlap by at least
    one character.
    """
    check_disjoint(mentions, "mentions")
    tags = [BioTag.O] * len(sent.tokens)
    for mention in mentions:
        first = True
        for i, tok in enumerate(sent.tokens):
            if tok.span.overlaps(mention):
                if tags[i] is not BioTag.O:
                    raise ConflictError(
                        f"token {tok.text!r} at {tok.span} claimed by two mentions"
                    )
                tags[i] = BioTag.B if first else BioTag.I
                first = False
    return tags


@dataclass
class LabeledSequence:
    """A model-ready subtoken sequence with alignment bookkeeping.

    All per-position lists share one length: the sequence's real
    positions, never padded (`pack_batch` pads a batch to its longest row).
    `word_index` maps each piece to its owning token index in the source
    sentence, or NO_WORD for specials. `tags` is set for the token head,
    `label` for a sequence head.
    """

    subtoken_ids: list[int]
    word_index: list[int]
    tags: Optional[list[BioTag]] = None
    label: Optional[int] = None
    origin: Optional[tuple[str, Optional[CharSpan]]] = None

    def __len__(self) -> int:
        return len(self.subtoken_ids)

    @property
    def attention_mask(self) -> list[int]:  # all real; read only by perfbench's tracer
        return [1] * len(self)


def align_to_subtokens(
    sent: Sentence,
    word_tags: Sequence[BioTag],
    vocab: Vocabulary,
    max_len: int,
    doc_id: str = "",
) -> LabeledSequence:
    """Project word-level BIO tags onto subword pieces as [CLS] ... [SEP].

    A B-tagged word contributes B on its first piece and I on the rest; an
    I word contributes I throughout; O words stay O. A word of more than
    `max_len - 2` pieces fits in no sequence, so it contributes no pieces;
    later words keep their own word indices. If the sequence would still
    exceed max_len, whole trailing words are dropped, never leaving a
    mention cut at the boundary.
    """
    if len(word_tags) != len(sent.tokens):
        raise ValueError("word_tags length must equal token count")

    room = max_len - 2
    piece_lists = [subword_encode(tok.text, vocab) for tok in sent.tokens]
    piece_lists = [p if len(p) <= room else [] for p in piece_lists]
    ends = list(accumulate(map(len, piece_lists)))  # pieces through each word

    keep = bisect_right(ends, room)
    while 0 < keep < len(sent.tokens) and word_tags[keep] is BioTag.I:
        keep -= 1

    ids = [CLS_ID]
    word_index = [NO_WORD]
    tags = [BioTag.O]
    for w in range(keep):
        pieces, tag = piece_lists[w], word_tags[w]
        if not pieces:
            continue
        ids += pieces
        word_index += [w] * len(pieces)
        tags.append(tag)
        tags += [BioTag.I if tag is BioTag.B else tag] * (len(pieces) - 1)
    ids.append(SEP_ID)
    word_index.append(NO_WORD)
    tags.append(BioTag.O)

    return LabeledSequence(
        subtoken_ids=ids,
        word_index=word_index,
        tags=tags,
        origin=(doc_id, sent.span),
    )


def decode_bio(
    seq: LabeledSequence, predicted_tags: Sequence[int], sent: Sentence
) -> list[CharSpan]:
    """Recover mention character spans from per-subtoken tag predictions.

    `predicted_tags` holds one tag id per piece, as BioTags or the model's
    integer ids. Each word takes the tag on its first piece (a word's pieces
    are adjacent, in word order). B, or an orphan I, opens a span; an I on
    the next word extends it; O closes it.
    """
    if len(predicted_tags) != len(seq.subtoken_ids):
        raise ValueError("predicted_tags length must equal sequence length")

    tokens = sent.tokens
    spans: list[CharSpan] = []
    first = last = None  # the open span's first and last word
    prev = NO_WORD
    for w, tag in zip(seq.word_index, predicted_tags):
        if w == NO_WORD or w == prev:
            continue
        prev = w
        if tag == BioTag.I and last == w - 1:
            last = w
            continue
        if first is not None:
            spans.append(CharSpan(tokens[first].span.start, tokens[last].span.end))
        first = last = w if tag in (BioTag.B, BioTag.I) else None
    if first is not None:
        spans.append(CharSpan(tokens[first].span.start, tokens[last].span.end))
    return spans
