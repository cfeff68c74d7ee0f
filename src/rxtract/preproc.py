"""Offset-preserving tokenization, sentence splitting, subword vocabulary,
BIO encoding/decoding, and word-to-subtoken tag alignment.

Text is held in one form: its words' text and their start and end offsets
as three parallel tuples. `tokenize` gives a text's words so, and a
`Sentence` holds its own. No object is made per word: a `CharSpan` is made
only at the pipeline's edges, for a sentence's `span` (the origin its
examples carry) or a decoded mention. Spans coming in (gold mentions, a
mention to classify) are placed among the words by bisecting the offsets.

Words become pieces through a `PieceTable`, one per batch-level call, and
`grow_window` is the one rule that picks a window of whole words under a
piece budget, for NER windows and marker examples alike.
`decode_bio` walks the pieces once, reading the model's integer tag ids or
`BioTag`s alike (`BioTag` is an `IntEnum`).
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left, bisect_right
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


# The members under plain names: reading `BioTag.I` looks the member up on
# the enum class each time, which the per-word and per-piece loops avoid.
_B, _I, _O = BioTag.B, BioTag.I, BioTag.O


# A text's words as three parallel tuples: each word's text and its start
# and end offsets into the text.
Words = tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence's words in the `Words` form, at least one of them."""

    words: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    # first word's start to last word's end: the one CharSpan a sentence makes
    span: CharSpan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "span", CharSpan(self.starts[0], self.ends[-1]))


# A maximal run of alphanumerics, or one other non-space character.
# `[^\W_]` is exactly `str.isalnum()` and `\s` exactly `str.isspace()`.
# The group makes `split` return the gaps and the words in turn.
_TOKEN_RE = re.compile(r"([^\W_]+|\S)")


def tokenize(text: str) -> Words:
    """A text's words: maximal alphanumeric runs and single other
    non-space characters, with their offsets."""
    parts = _TOKEN_RE.split(text)  # gap, word, gap, ..., word, gap
    offsets = tuple(accumulate(map(len, parts)))
    return tuple(parts[1::2]), offsets[0:-1:2], offsets[1::2]


_TERMINATORS = frozenset(".!?")


def split_sentences(text: str, tokens: Words) -> list[Sentence]:
    """Cut a text's words (`tokenize(text)`) into sentences.

    A boundary falls after '.', '!', '?' words and wherever the gap between
    consecutive words contains a blank line (two adjacent newlines).
    """
    words, starts, ends = tokens
    cuts = {0, len(words)}
    cuts.update(k + 1 for k, w in enumerate(words) if w in _TERMINATORS)
    blank = text.find("\n\n")
    while blank >= 0:  # a gap is all space, so the words after it start later
        cuts.add(bisect_left(starts, blank))
        blank = text.find("\n\n", blank + 2)
    cuts = sorted(cuts)
    return [Sentence(words[a:b], starts[a:b], ends[a:b])
            for a, b in zip(cuts, cuts[1:]) if a < b]


def split_text(text: str) -> list[Sentence]:
    """Tokenize a text once and group its words into sentences."""
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
    whole = vocab.piece_to_id.get(word)
    if whole is not None and word:  # the loop's first match, taken without the loop
        return [whole]
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


class PieceTable(dict):
    """Word -> its piece ids under `vocab`, as a tuple, since every lookup of
    the word shares it. A word is encoded on its first lookup. A batch-level
    builder makes one table per call."""

    def __init__(self, vocab: Vocabulary) -> None:
        super().__init__()
        self.vocab = vocab

    def __missing__(self, word: str) -> tuple[int, ...]:
        ids = self[word] = tuple(subword_encode(word, self.vocab))
        return ids


def grow_window(counts: Sequence[int], a: int, b: int, budget: int,
                first: int = 0) -> tuple[int, int]:
    """Grow the words `a..b` to `lo..hi` under `budget` more pieces, `counts`
    holding each word's: one word at a time, on the side whose next word is
    nearer `a..b` (the left on a tie), never left of `first`. A side stops at
    the first word that does not fit what is left; the other keeps growing."""
    last = len(counts) - 1  # the farthest words each side may still take
    if sum(counts[first:a]) + sum(counts[b + 1 :]) <= budget:  # every word fits
        return first, last
    lo, hi = a, b
    while lo > first or hi < last:
        left = lo > first and (hi == last or a - (lo - 1) <= (hi + 1) - b)
        w = lo - 1 if left else hi + 1
        if counts[w] > budget:  # the budget only shrinks: this side is done
            first, last = (lo, last) if left else (first, hi)
            continue
        budget -= counts[w]
        lo, hi = (w, hi) if left else (lo, w)
    return lo, hi


def spans_to_bio(sent: Sentence, mentions: Sequence[CharSpan]) -> list[BioTag]:
    """Tag each word of the sentence with B/I/O against the mention spans.

    A word counts as inside a mention when their spans overlap by at least
    one character.
    """
    check_disjoint(mentions, "mentions")
    tags = [_O] * len(sent.words)
    for mention in mentions:
        # words a..b-1 end after the mention starts and start before it ends
        a = bisect_right(sent.ends, mention.start)
        b = bisect_left(sent.starts, mention.end)
        for i in range(a, b):
            if tags[i] is not _O:
                raise ConflictError(f"word {sent.words[i]!r} at ({sent.starts[i]}, "
                                    f"{sent.ends[i]}) claimed by two mentions")
            tags[i] = _B if i == a else _I
    return tags


@dataclass
class LabeledSequence:
    """A model-ready subtoken sequence with alignment bookkeeping.

    All per-position lists share one length: the sequence's real
    positions, never padded (`pack_batch` pads a batch to its longest row).
    `word_index` maps each piece to its owning word's index in the source
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
    word_tags: Optional[Sequence[BioTag]],
    pieces: PieceTable,
    max_len: int,
    doc_id: str = "",
    start: int = 0,
) -> LabeledSequence:
    """Project word-level BIO tags onto subword pieces as [CLS] ... [SEP],
    from word `start` on.

    A B-tagged word contributes B on its first piece and I on the rest; an
    I word contributes I throughout; O words stay O. A word of more than
    `max_len - 2` pieces fits in no sequence, so it contributes no pieces;
    later words keep their own word indices. If the sequence would still
    exceed max_len, whole trailing words are dropped (`grow_window` from
    `start` rightward), never leaving a mention cut at the boundary; a
    `start` after the last word kept aligns the next window of the sentence.
    With `word_tags` None, as at inference, the sequence carries no tags.
    """
    n_words = len(sent.words)
    if word_tags is not None and len(word_tags) != n_words:
        raise ValueError("word_tags length must equal word count")

    room = max_len - 2
    piece_lists = [*map(pieces.__getitem__, sent.words)]
    counts = [len(p) if len(p) <= room else 0 for p in piece_lists]

    keep = grow_window(counts, start, start - 1, room, first=start)[1] + 1
    while word_tags is not None and start < keep < n_words and word_tags[keep] is _I:
        keep -= 1

    ids = [CLS_ID]
    word_index = [NO_WORD]
    tags = None if word_tags is None else [_O]
    for w in range(start, keep):
        n = counts[w]
        if not n:
            continue
        ids += piece_lists[w]
        word_index += [w] * n
        if tags is not None:
            tag = word_tags[w]
            tags.append(tag)
            tags += [_I if tag is _B else tag] * (n - 1)
    ids.append(SEP_ID)
    word_index.append(NO_WORD)
    if tags is not None:
        tags.append(_O)

    return LabeledSequence(subtoken_ids=ids, word_index=word_index, tags=tags,
                           origin=(doc_id, sent.span))


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

    starts, ends = sent.starts, sent.ends
    spans: list[CharSpan] = []
    first = last = None  # the open span's first and last word
    prev = NO_WORD
    for w, tag in zip(seq.word_index, predicted_tags):
        if w == prev or w == NO_WORD:
            continue
        prev = w
        if tag == _I and last == w - 1:
            last = w
            continue
        if first is not None:
            spans.append(CharSpan(starts[first], ends[last]))
        first = last = None if tag == _O else w
    if first is not None:
        spans.append(CharSpan(starts[first], ends[last]))
    return spans
