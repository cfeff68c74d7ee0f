"""End-to-end prediction: extraction, then event classification, then
context classification for Disposition mentions.

Every entry point runs one staged path over all the documents it is given,
so each stage batches across documents. The gold-span evaluators skip
extraction: they classify the marker examples `context.gold_examples`
builds from gold mentions. Results are keyed by doc_id, so documents given
together sharing one are a DuplicateDocIdError, raised before any stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .context import (
    CONTEXT_STACK,
    EVENT_TASK,
    TASKS,
    ClassifierBundle,
    gold_examples,
    mention_examples,
    predict_contexts,
    predict_events,
)
from .corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    ContextAttributes,
    EventLabel,
    MedicationMention,
    normalize_newlines,
)
from .errors import ConfigError, DuplicateDocIdError
from .evaluation import MentionKey
from .ner import NerModelBundle, predict_ner_batch
from .preproc import split_text


@dataclass
class PipelineBundle:
    """The three stages chained over one shared vocabulary, one classifier per task."""

    ner: NerModelBundle
    classifiers: ClassifierBundle

    def __post_init__(self) -> None:
        if self.ner.vocab.pieces != self.classifiers.vocab.pieces:
            raise ConfigError("pipeline components do not share one vocabulary")
        missing = [name for name in TASKS if name not in self.classifiers.tasks]
        if missing:
            raise ConfigError(f"missing components: {' '.join(missing)}")


def _check_unique_ids(docs: Sequence[AnnotatedDocument]) -> None:
    """Predictions are keyed by doc_id, so two documents may not share one."""
    seen = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise DuplicateDocIdError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)


def _run_staged(
    p: PipelineBundle, docs: Sequence[AnnotatedDocument]
) -> list[AnnotatedDocument]:
    _check_unique_ids(docs)
    docs = [AnnotatedDocument(d.doc_id, normalize_newlines(d.text)) for d in docs]
    sentences = [split_text(d.text) for d in docs]
    spans = predict_ner_batch(p.ner.model, p.ner.vocab, sentences)
    cb = p.classifiers
    keys, seqs = mention_examples(docs, sentences, spans, cb.vocab, cb.max_len)
    events = predict_events(cb, seqs)
    disposition = [k for k, e in enumerate(events) if e is EventLabel.DISPOSITION]
    contexts = predict_contexts(cb, [seqs[k] for k in disposition]) if disposition else []
    context_of = dict(zip(disposition, contexts))
    for k, ((d, j), event) in enumerate(zip(keys, events)):
        span = spans[d][j]
        surface = docs[d].text[span.start : span.end]
        docs[d].mentions.append(MedicationMention(span, surface, event, context_of.get(k)))
    for doc in docs:
        doc.validate()
    return docs


def run_pipeline(p: PipelineBundle, text: str, doc_id: str = "doc") -> AnnotatedDocument:
    """Predict mentions with events and, for Disposition, context attributes."""
    return _run_staged(p, [AnnotatedDocument(doc_id, text)])[0]


def run_pipeline_over(
    p: PipelineBundle, docs: Sequence[AnnotatedDocument]
) -> dict[str, list[MedicationMention]]:
    """End-to-end predictions for a split, keyed by doc_id."""
    return {d.doc_id: d.mentions for d in _run_staged(p, docs)}


def mentions_to_jsonl(doc: AnnotatedDocument) -> str:
    """One JSON object per mention; context fields only for Disposition."""
    lines = []
    for m in doc.mentions:
        record = {
            "doc_id": doc.doc_id,
            "start": m.span.start,
            "end": m.span.end,
            "surface": m.surface,
            "event": m.event.value,
        }
        if m.context is not None:
            record.update(
                (attr, getattr(m.context, attr).value) for _, attr in CONTEXT_DIMENSIONS.values()
            )
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# gold-span evaluation helpers


def classify_gold_events(
    bundle: ClassifierBundle, docs: Sequence[AnnotatedDocument]
) -> dict[str, list[MedicationMention]]:
    """Predicted events on gold spans, for NER-error-free event scoring.

    A gold mention outside any one sentence is skipped with a warning, so
    it scores as missed.
    """
    _check_unique_ids(docs)
    gold, seqs = gold_examples(docs, EVENT_TASK, bundle.vocab, bundle.max_len)
    out: dict[str, list[MedicationMention]] = {d.doc_id: [] for d in docs}
    for (doc_id, m), event in zip(gold, predict_events(bundle, seqs)):
        out[doc_id].append(MedicationMention(m.span, m.surface, event))
    return out


def classify_gold_context(
    bundle: ClassifierBundle, docs: Sequence[AnnotatedDocument]
) -> dict[MentionKey, ContextAttributes]:
    """Predicted context attributes on gold Disposition mentions.

    A gold mention outside any one sentence is skipped with a warning, so
    it scores as wrong in every dimension.
    """
    _check_unique_ids(docs)
    gold, seqs = gold_examples(docs, CONTEXT_STACK, bundle.vocab, bundle.max_len)
    return {(doc_id, m.span.start, m.span.end): context
            for (doc_id, m), context in zip(gold, predict_contexts(bundle, seqs))}
