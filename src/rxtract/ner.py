"""Medication mention extraction: example building, fine-tuning, and
span prediction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .corpus import AnnotatedDocument, CharSpan, Corpus
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    fit,
    init_model,
    predict_batch,
)
from .errors import DataError
from .evaluation import ner_metrics
from .preproc import (
    BioTag,
    LabeledSequence,
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


def build_ner_examples(
    docs: Sequence[AnnotatedDocument],
    vocab: Vocabulary,
    max_len: int,
) -> list[LabeledSequence]:
    """One tagged sequence per sentence; sentences without mentions are kept
    as all-O examples."""
    examples: list[LabeledSequence] = []
    for doc in docs:
        for sent in split_text(doc.text):
            spans = []
            for m in doc.mentions:
                if not m.span.overlaps(sent.span):
                    continue
                if not sent.span.contains(m.span):
                    warnings.warn(
                        f"{doc.doc_id}: mention {m.span} crosses a sentence "
                        "boundary and will be split"
                    )
                spans.append(m.span)
            tags = spans_to_bio(sent, spans)
            examples.append(
                align_to_subtokens(sent, tags, vocab, max_len, doc_id=doc.doc_id)
            )
    return examples


def _align_untagged(
    vocab: Vocabulary, sentences: Sequence[Sequence[Sentence]], max_len: int
) -> list[LabeledSequence]:
    """Every document's sentences, in order, aligned with all-O tags."""
    return [align_to_subtokens(s, [BioTag.O] * len(s.tokens), vocab, max_len)
            for doc in sentences for s in doc]


def _decode_aligned(
    model: EncoderModel, sentences: Sequence[Sequence[Sentence]], seqs: list[LabeledSequence]
) -> list[list[CharSpan]]:
    """Each document's predicted spans, given `_align_untagged`'s `seqs`."""
    tag_ids = predict_batch(model, seqs)  # ties: B < I < O
    per_sentence = map(decode_bio, seqs, tag_ids, (s for doc in sentences for s in doc))
    return [[span for _ in doc for span in next(per_sentence)] for doc in sentences]


def predict_ner_batch(
    model: EncoderModel, vocab: Vocabulary, sentences: Sequence[Sequence[Sentence]]
) -> list[list[CharSpan]]:
    """Predicted mention spans for each document's pre-split sentences.

    The sentences of all documents share length-ordered batches; each
    document's spans come back sorted and non-overlapping.
    """
    return _decode_aligned(model, sentences,
                           _align_untagged(vocab, sentences, model.config.max_len))


def predict_ner(bundle: NerModelBundle, text: str) -> list[CharSpan]:
    """Predicted mention spans, sorted and non-overlapping."""
    return predict_ner_batch(bundle.model, bundle.vocab, [split_text(text)])[0]


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
    dev_seqs = _align_untagged(vocab, dev_sentences, enc_cfg.max_len)  # once, for every epoch

    def dev_f1(m: EncoderModel) -> float:
        preds = dict(zip(dev_ids, _decode_aligned(m, dev_sentences, dev_seqs)))
        return ner_metrics(corpus.dev, preds).micro.f1

    result = fit(model, examples, train_cfg, dev_f1, log=log)
    return NerModelBundle(
        model=model, vocab=vocab, train_config=train_cfg, history=result.history
    )
