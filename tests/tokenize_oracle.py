"""Independent oracle for `rxtract.preproc`'s tokenizer and sentence
splitter: one frozen object per token, each with its own validated span,
and a token-by-token walk that flushes a sentence at a terminator or at a
gap holding a blank line.

The tests check `tokenize`, `split_sentences` and `split_text` against
these functions, and the reference example builders in
`test_preproc_reference` read sentences in this form. Keep this code
independent: it may use `CharSpan`, but calls nothing in `preproc`. pytest
does not collect this module; the test modules import it.
"""

import re
from dataclasses import dataclass, field
from typing import Sequence

from rxtract.corpus import CharSpan


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
_TOKEN_RE = re.compile(r"[^\W_]+|\S")

_TERMINATORS = {".", "!", "?"}


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(), CharSpan(m.start(), m.end())) for m in _TOKEN_RE.finditer(text)]


def split_sentences(text: str, tokens: Sequence[Token]) -> list[Sentence]:
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
    return split_sentences(text, tokenize(text))
