"""Medication mention extraction: example building, fine-tuning, and
span prediction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .corpus import AnnotatedDocument, CharSpan, Corpus, normalize_newlines
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    check_vocab_rows,
    fit,
    init_model,
    predict_batch,
)
from .errors import DataError
from .evaluation import ner_metrics
from .preproc import (
    LabeledSequence,
    PieceTable,
    Sentence,
    Vocabulary,
    align_to_subtokens,
    decode_bio,
    spans_to_bio,
    split_text,
)

@dataclass
class NerModelBundle:
    """A trained extraction model with its vocabulary and training record."""

    model: EncoderModel
    vocab: Vocabulary
    train_config: TrainConfig
    history: list[float]  # per-epoch dev micro-F1

    def __post_init__(self) -> None:
        check_vocab_rows("the extraction model", self.model, len(self.vocab))


def build_ner_examples(
    docs: Sequence[AnnotatedDocument],
    vocab: Vocabulary,
    max_len: int,
) -> list[LabeledSequence]:
    """One tagged sequence per sentence; sentences without mentions are kept
    as all-O examples. Unlike inference, training reads no window past a
    sentence's first: `align_to_subtokens` drops the words that overflow. A
    sentence whose every word is longer than `max_len - 2` pieces aligns to
    `[CLS] [SEP]` alone and gives no example, having nothing to score."""
    examples: list[LabeledSequence] = []
    pieces = PieceTable(vocab)
    for doc in docs:
        for sent in split_text(doc.text):
            first, last = sent.starts[0], sent.ends[-1]
            spans = []
            for m in doc.mentions:
                if not (m.span.start < last and first < m.span.end):
                    continue
                if not (first <= m.span.start and m.span.end <= last):
                    warnings.warn(
                        f"{doc.doc_id}: mention {m.span} crosses a sentence "
                        "boundary and will be split"
                    )
                spans.append(m.span)
            tags = spans_to_bio(sent, spans)
            example = align_to_subtokens(sent, tags, pieces, max_len, doc_id=doc.doc_id)
            if len(example) > 2:
                examples.append(example)
    return examples


def _align_windows(sent: Sentence, pieces: PieceTable, max_len: int) -> list[LabeledSequence]:
    """`sent` aligned without tags as windows of whole words, each
    `grow_window`'s cut from the word after the last one of the window
    before, so that every word of at most `max_len - 2` pieces is in one.
    The windows keep the sentence's word indices and share one table."""
    windows = [align_to_subtokens(sent, None, pieces, max_len)]
    while len(windows[-1]) > 2 and (start := windows[-1].word_index[-2] + 1) < len(sent.words):
        window = align_to_subtokens(sent, None, pieces, max_len, start=start)
        if len(window) == 2:  # only over-long words were left
            break
        windows.append(window)
    return windows


def _decode_windows(windows, tag_ids, sent: Sentence) -> list[CharSpan]:
    """A sentence's spans from its windows' next tags in `tag_ids`, decoded
    as one sequence, so that a mention running on into the next window
    stays one span."""
    if len(windows) == 1:
        return decode_bio(windows[0], next(tag_ids), sent)
    joined = LabeledSequence([i for w in windows for i in w.subtoken_ids],
                             [i for w in windows for i in w.word_index])
    return decode_bio(joined, [t for _ in windows for t in next(tag_ids)], sent)


def predict_ner_batch(
    model: EncoderModel, vocab: Vocabulary, sentences: Sequence[Sequence[Sentence]]
) -> list[list[CharSpan]]:
    """Predicted mention spans for each document's pre-split sentences.

    The sentences of all documents share length-ordered batches, a
    sentence of more than `max_len` pieces as several windows; each
    document's spans come back sorted and non-overlapping.
    """
    pieces = PieceTable(vocab)
    windows = [[_align_windows(s, pieces, model.config.max_len) for s in doc]
               for doc in sentences]
    # ties: B < I < O
    tag_ids = iter(predict_batch(model, [w for doc in windows for ws in doc for w in ws]))
    return [[span for s, ws in zip(doc, doc_windows) for span in _decode_windows(ws, tag_ids, s)]
            for doc, doc_windows in zip(sentences, windows)]


def predict_ner(bundle: NerModelBundle, text: str) -> list[CharSpan]:
    """Predicted mention spans, sorted and non-overlapping. Offsets index
    `normalize_newlines(text)`, as the pipeline's and the standoff files' do."""
    return predict_ner_batch(bundle.model, bundle.vocab, [split_text(normalize_newlines(text))])[0]


def train_ner(
    corpus: Corpus,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    log: Optional[Callable[[str], None]] = None,
) -> NerModelBundle:
    """Fine-tune on the train split, keeping the epoch with the best strict
    micro-F1 on the dev split."""
    if not corpus.train or not corpus.dev:
        raise DataError("train and dev splits must be non-empty")
    model = init_model(enc_cfg, len(vocab))
    examples = build_ner_examples(corpus.train, vocab, enc_cfg.max_len)

    dev_ids = [doc.doc_id for doc in corpus.dev]
    dev_sentences = [split_text(doc.text) for doc in corpus.dev]

    def dev_f1(m: EncoderModel) -> float:
        preds = dict(zip(dev_ids, predict_ner_batch(m, vocab, dev_sentences)))
        return ner_metrics(corpus.dev, preds).micro.f1

    result = fit(model, examples, train_cfg, dev_f1, log=log)
    return NerModelBundle(
        model=model, vocab=vocab, train_config=train_cfg, history=result.history
    )
