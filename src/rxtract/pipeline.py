"""End-to-end prediction: extraction, then event classification, then
context classification for Disposition mentions.

Every entry point runs one staged path over all the documents it is given,
so each stage batches across documents. The gold-span evaluators enter it
at the marker-example stage, with gold spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .context import (
    ClassifierBundle,
    TASKS,
    mention_examples,
    predict_contexts,
    predict_events,
)
from .corpus import (
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    EventLabel,
    MedicationMention,
    normalize_newlines,
)
from .errors import ConfigError
from .evaluation import MentionKey
from .ner import NerModelBundle, predict_ner_batch
from .preproc import LabeledSequence, Sentence, split_text


@dataclass
class PipelineBundle:
    """The three stages chained over one shared vocabulary."""

    ner: NerModelBundle
    classifiers: ClassifierBundle

    def validate(self) -> None:
        if self.ner.vocab.pieces != self.classifiers.vocab.pieces:
            raise ConfigError("pipeline components do not share one vocabulary")
        for name in TASKS:
            if name not in self.classifiers.tasks:
                raise ConfigError(f"pipeline is missing the {name} classifier")


def _examples(
    bundle: ClassifierBundle,
    docs: Sequence[AnnotatedDocument],
    sentences: Sequence[Sequence[Sentence]],
    spans: Sequence[Sequence[CharSpan]],
) -> tuple[list[tuple[int, CharSpan]], list[LabeledSequence]]:
    """Stage 3: the marker example of every mention a classifier can see,
    with its (document index, span) key."""
    max_len = bundle.max_len
    keys, seqs = [], []
    for d, (doc, sents, doc_spans) in enumerate(zip(docs, sentences, spans)):
        built = mention_examples(doc.doc_id, sents, doc_spans, bundle.vocab, max_len)
        for span, seq in zip(doc_spans, built):
            if seq is not None:
                keys.append((d, span))
                seqs.append(seq)
    return keys, seqs


def _run_staged(
    p: PipelineBundle, docs: Sequence[AnnotatedDocument]
) -> list[AnnotatedDocument]:
    docs = [AnnotatedDocument(d.doc_id, normalize_newlines(d.text)) for d in docs]
    sentences = [split_text(d.text) for d in docs]
    spans = predict_ner_batch(p.ner.model, p.ner.vocab, sentences)
    keys, seqs = _examples(p.classifiers, docs, sentences, spans)
    events = predict_events(p.classifiers, seqs)
    disposition = [k for k, e in enumerate(events) if e is EventLabel.DISPOSITION]
    contexts = predict_contexts(p.classifiers, [seqs[k] for k in disposition])
    context_of = dict(zip(disposition, contexts))
    for k, ((d, span), event) in enumerate(zip(keys, events)):
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
                action=m.context.action.value,
                negation=m.context.negation.value,
                temporality=m.context.temporality.value,
                certainty=m.context.certainty.value,
                actor=m.context.actor.value,
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
    spans = [[m.span for m in d.mentions] for d in docs]
    keys, seqs = _examples(bundle, docs, [split_text(d.text) for d in docs], spans)
    out: dict[str, list[MedicationMention]] = {d.doc_id: [] for d in docs}
    for (d, span), event in zip(keys, predict_events(bundle, seqs)):
        surface = docs[d].text[span.start : span.end]
        out[docs[d].doc_id].append(MedicationMention(span, surface, event))
    return out


def classify_gold_context(
    bundle: ClassifierBundle, docs: Sequence[AnnotatedDocument]
) -> dict[MentionKey, ContextAttributes]:
    """Predicted context attributes on gold Disposition mentions.

    A gold mention outside any one sentence is skipped with a warning, so
    it scores as wrong in every dimension.
    """
    spans = [
        [m.span for m in d.mentions if m.event is EventLabel.DISPOSITION] for d in docs
    ]
    keys, seqs = _examples(bundle, docs, [split_text(d.text) for d in docs], spans)
    return {
        (docs[d].doc_id, span.start, span.end): context
        for (d, span), context in zip(keys, predict_contexts(bundle, seqs))
    }
