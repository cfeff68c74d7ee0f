"""Offset-preserving tokenization, sentence splitting, subword vocabulary,
BIO encoding/decoding, and word-to-subtoken tag alignment."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Sequence

from .corpus import CharSpan
from .errors import CapacityError, ConflictError

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

DEFAULT_MAX_LEN = 256
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
    span: CharSpan
    tokens: tuple[Token, ...]


def tokenize(text: str) -> list[Token]:
    """Split text into maximal alphanumeric runs plus single-character symbols."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
        else:
            j = i + 1
        tokens.append(Token(text=text[i:j], span=CharSpan(i, j)))
        i = j
    return tokens


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
            span = CharSpan(current[0].span.start, current[-1].span.end)
            sentences.append(Sentence(span=span, tokens=tuple(current)))
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

    Ids 0-5 are reserved for the special tokens. Every single character of
    the corpus it was built from is a piece, so segmentation never fails.
    """

    pieces: tuple[str, ...]
    piece_to_id: dict[str, int] = field(repr=False, compare=False, default_factory=dict)
    max_piece_len: int = field(compare=False, default=1)

    @staticmethod
    def from_pieces(text_pieces: Sequence[str]) -> "Vocabulary":
        pieces = SPECIAL_PIECES + tuple(text_pieces)
        lookup = {p: i for i, p in enumerate(text_pieces, start=NUM_SPECIALS)}
        max_len = max((len(p) for p in text_pieces), default=1)
        return Vocabulary(pieces=pieces, piece_to_id=lookup, max_piece_len=max_len)

    def __len__(self) -> int:
        return len(self.pieces)


def build_vocab(texts: Sequence[str], target_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Greedy merge vocabulary over the words of `texts`.

    Starts from all single characters and repeatedly merges the most frequent
    adjacent piece pair within words (ties broken lexicographically) until
    `target_size` pieces exist or no pair repeats.
    """
    chars = sorted({ch for text in texts for ch in text})
    if target_size < len(chars) + NUM_SPECIALS:
        raise CapacityError(
            f"target_size {target_size} < {len(chars)} distinct characters "
            f"+ {NUM_SPECIALS} specials"
        )

    word_counts = Counter()
    for text in texts:
        word_counts.update(tok.text for tok in tokenize(text))

    # Each distinct word is a list of current pieces; counts weight the pairs.
    segmented: dict[str, list[str]] = {w: list(w) for w in word_counts}
    pieces: list[str] = list(chars)
    piece_set = set(pieces)

    while len(pieces) + NUM_SPECIALS < target_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
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
        # Re-segmenting always removes at least one adjacency, so the loop
        # terminates even when the merged string was already a piece.
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
    ordered = sorted(mentions)
    for a, b in zip(ordered, ordered[1:]):
        if a.overlaps(b):
            raise ConflictError(f"overlapping mention spans {a} and {b}")
    tags = [BioTag.O] * len(sent.tokens)
    for mention in ordered:
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

    All per-position lists share one length (max_len after padding).
    `word_index` maps each piece to its owning token index in the source
    sentence, or NO_WORD for specials and padding. `tags` is set in token
    mode, `label` in classification mode.
    """

    subtoken_ids: list[int]
    attention_mask: list[int]
    word_index: list[int]
    tags: Optional[list[BioTag]] = None
    label: Optional[int] = None
    origin: tuple[str, CharSpan] = ("", CharSpan(0, 1))

    def __len__(self) -> int:
        return len(self.subtoken_ids)

    def real_length(self) -> int:
        return sum(self.attention_mask)


def align_to_subtokens(
    sent: Sentence,
    word_tags: Sequence[BioTag],
    vocab: Vocabulary,
    max_len: int = DEFAULT_MAX_LEN,
    doc_id: str = "",
) -> LabeledSequence:
    """Project word-level BIO tags onto subword pieces as [CLS] ... [SEP] + PAD.

    A B-tagged word contributes B on its first piece and I on the rest; an
    I word contributes I throughout; O words stay O. If the sequence would
    exceed max_len, whole trailing words are dropped, never leaving a
    mention cut at the boundary.
    """
    if len(word_tags) != len(sent.tokens):
        raise ValueError("word_tags length must equal token count")

    piece_lists = [subword_encode(tok.text, vocab) for tok in sent.tokens]

    keep = len(sent.tokens)
    while keep > 0:
        total = 2 + sum(len(p) for p in piece_lists[:keep])
        if total <= max_len and (keep == len(sent.tokens) or word_tags[keep] is not BioTag.I):
            break
        keep -= 1

    ids = [CLS_ID]
    mask = [1]
    word_index = [NO_WORD]
    tags = [BioTag.O]
    for w in range(keep):
        for j, pid in enumerate(piece_lists[w]):
            ids.append(pid)
            mask.append(1)
            word_index.append(w)
            if word_tags[w] is BioTag.B:
                tags.append(BioTag.B if j == 0 else BioTag.I)
            else:
                tags.append(word_tags[w])
    ids.append(SEP_ID)
    mask.append(1)
    word_index.append(NO_WORD)
    tags.append(BioTag.O)

    while len(ids) < max_len:
        ids.append(PAD_ID)
        mask.append(0)
        word_index.append(NO_WORD)
        tags.append(BioTag.O)

    return LabeledSequence(
        subtoken_ids=ids,
        attention_mask=mask,
        word_index=word_index,
        tags=tags,
        origin=(doc_id, sent.span),
    )


def decode_bio(
    seq: LabeledSequence, predicted_tags: Sequence[BioTag], sent: Sentence
) -> list[CharSpan]:
    """Recover mention character spans from per-subtoken tag predictions.

    Each word takes the tag predicted on its first piece; word-level runs
    then decode as B starting a span and I extending it, with an orphan I
    repaired to B.
    """
    if len(predicted_tags) != len(seq.subtoken_ids):
        raise ValueError("predicted_tags length must equal sequence length")

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
