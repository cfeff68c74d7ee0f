"""Golden-prediction lock: a tiny trained pipeline must keep its outputs.

The digests below were recorded before inference was batched across
documents. A refactor of inference must reproduce them exactly; a change
that moves them on purpose must say why and record the new values. The
pipeline is the session fixture `tiny` in conftest.py.
"""

import hashlib

from rxtract.corpus import AnnotatedDocument, EventLabel
from rxtract.pipeline import (
    classify_gold_context,
    classify_gold_events,
    mentions_to_jsonl,
    run_pipeline,
    run_pipeline_over,
)

PIPELINE_DIGEST = "197e0dbc1b382d543fe17d80e94885d47edc2c5b5e8a0eac0e1c4f8d8464f453"
GOLD_EVENTS_DIGEST = "6bc6b0ebec3e0077caa01324a0eee052057b6ff419047a54fa3914ca641c67bd"
GOLD_CONTEXT_DIGEST = "c07e286e94315a277d160397da40efd355a424bc6b46f7ae21b600e8a7bf89e2"


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pipeline_predictions_locked(tiny):
    corpus, bundle = tiny
    preds = run_pipeline_over(bundle, corpus.test)
    docs = [AnnotatedDocument(d.doc_id, d.text, preds[d.doc_id]) for d in corpus.test]
    assert any(m.event is EventLabel.DISPOSITION for d in docs for m in d.mentions)
    assert _sha(mentions_to_jsonl(d) for d in docs) == PIPELINE_DIGEST


def test_batched_equals_per_document(tiny):
    corpus, bundle = tiny
    docs = corpus.dev + corpus.test
    preds = run_pipeline_over(bundle, docs)
    for doc in docs:
        assert preds[doc.doc_id] == run_pipeline(bundle, doc.text, doc.doc_id).mentions


def test_gold_span_labels_locked(tiny):
    corpus, bundle = tiny
    events = classify_gold_events(bundle.classifiers, corpus.test)
    event_lines = [
        f"{doc_id} {m.span.start} {m.span.end} {m.event.value}"
        for doc_id in sorted(events) for m in events[doc_id]
    ]
    contexts = classify_gold_context(bundle.classifiers, corpus.test)
    context_lines = [
        f"{key} {sorted(contexts[key].as_dict().items())}" for key in sorted(contexts)
    ]
    assert len(event_lines) == sum(len(d.mentions) for d in corpus.test)
    assert context_lines
    assert _sha(event_lines) == GOLD_EVENTS_DIGEST
    assert _sha(context_lines) == GOLD_CONTEXT_DIGEST
