"""Medication mention extraction: example building, fine-tuning, and
span prediction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import AnnotatedDocument, CharSpan, Corpus
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    fit,
    forward_batch,
    init_model,
    length_chunks,
    token_logits,
)
from .errors import DataError
from .evaluation import ner_metrics
from .preproc import (
    DEFAULT_MAX_LEN,
    DEFAULT_VOCAB_SIZE,
    BioTag,
    LabeledSequence,
    Sentence,
    Vocabulary,
    align_to_subtokens,
    build_vocab,
    decode_bio,
    spans_to_bio,
    split_text,
)

PREDICT_BATCH = 64


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
    max_len: int = DEFAULT_MAX_LEN,
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


def predict_ner_batch(
    model: EncoderModel, vocab: Vocabulary, sentences: Sequence[Sequence[Sentence]]
) -> list[list[CharSpan]]:
    """Predicted mention spans for each document's pre-split sentences.

    The sentences of all documents share length-ordered batches; each
    document's spans come back sorted and non-overlapping.
    """
    flat = [sent for doc in sentences for sent in doc]
    seqs = [
        align_to_subtokens(s, [BioTag.O] * len(s.tokens), vocab, model.config.max_len)
        for s in flat
    ]
    found: list[list[CharSpan]] = [[] for _ in flat]
    for idx in length_chunks(seqs, PREDICT_BATCH):
        hidden, _ = forward_batch(model, [seqs[i] for i in idx])
        best = np.argmax(token_logits(model, hidden), axis=-1)  # ties: B < I < O
        for i, row in zip(idx, best):
            tags = [BioTag(int(t)) for t in row[: len(seqs[i])]]
            found[i] = decode_bio(seqs[i], tags, flat[i])
    per_sentence = iter(found)
    return [[span for _ in doc for span in next(per_sentence)] for doc in sentences]


def predict_ner(bundle: NerModelBundle, text: str) -> list[CharSpan]:
    """Predicted mention spans, sorted and non-overlapping."""
    return predict_ner_batch(bundle.model, bundle.vocab, [split_text(text)])[0]


def train_ner(
    corpus: Corpus,
    enc_cfg: EncoderConfig = EncoderConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    vocab_target_size: int = DEFAULT_VOCAB_SIZE,
    vocab: Optional[Vocabulary] = None,
    log: Optional[Callable[[str], None]] = None,
) -> NerModelBundle:
    """Fine-tune on the train split, keeping the epoch with the best strict
    micro-F1 on the dev split."""
    if not corpus.train or not corpus.dev:
        raise DataError("train and dev splits must be non-empty")
    if vocab is None:
        vocab = build_vocab([d.text for d in corpus.train], vocab_target_size)
    enc_cfg = replace(enc_cfg, vocab_size=len(vocab))
    model = init_model(enc_cfg)
    examples = build_ner_examples(corpus.train, vocab, enc_cfg.max_len)

    dev_ids = [doc.doc_id for doc in corpus.dev]
    dev_sentences = [split_text(doc.text) for doc in corpus.dev]

    def dev_f1(m: EncoderModel) -> float:
        preds = dict(zip(dev_ids, predict_ner_batch(m, vocab, dev_sentences)))
        return ner_metrics(corpus.dev, preds).micro.f1

    result = fit(model, examples, "token", train_cfg, dev_f1, log=log)
    return NerModelBundle(
        model=model, vocab=vocab, train_config=train_cfg, history=result.history
    )
