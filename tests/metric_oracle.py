"""Independent oracle for `rxtract.evaluation`: exhaustive matching and a
direct recount of the three metric operations.

The tests check `ner_metrics`, `event_metrics` and `context_metrics`
against these functions. Keep this code independent: it may use the
evaluation module's result types and match mode names, but calls none of
its metric functions. pytest does not collect this module; the test
modules import it.
"""

from typing import Mapping, Sequence

from rxtract.corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    EventLabel,
    MedicationMention,
)
from rxtract.evaluation import STRICT, MacroScores, MentionKey, MetricsReport, Prf

_ORACLE_LIMIT = 12


class OracleLimitError(ValueError):
    """An instance beyond the oracle's reach: more than 12 spans in one
    document, or event matching other than strict."""


def _oracle_max_pairs(gold: Sequence[CharSpan], pred: Sequence[CharSpan], mode: str):
    """Maximum one-to-one matching size by exhaustive search over subsets."""
    if len(gold) > _ORACLE_LIMIT or len(pred) > _ORACLE_LIMIT:
        raise OracleLimitError("oracle instances are limited to 12 spans per document")
    compat = [
        [
            (g == p) if mode == STRICT else (g.start < p.end and p.start < g.end)
            for p in pred
        ]
        for g in gold
    ]
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == len(gold):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        result = best(i + 1, used)  # leave gold i unmatched
        for j in range(len(pred)):
            if compat[i][j] and not used & (1 << j):
                result = max(result, 1 + best(i + 1, used | (1 << j)))
        memo[key] = result
        return result

    return best(0, 0)


def _oracle_prf(tp: int, n_gold: int, n_pred: int) -> tuple[float, float, float]:
    if n_gold == 0 and n_pred == 0:
        return 1.0, 1.0, 1.0
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def oracle_ner_metrics(
    gold_docs: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Sequence[CharSpan]],
    mode: str = STRICT,
) -> MetricsReport:
    tp = n_gold = n_pred = 0
    ps, rs, fs = [], [], []
    for doc in gold_docs:
        gold = [m.span for m in doc.mentions]
        pred = list(predictions.get(doc.doc_id, ()))
        d_tp = _oracle_max_pairs(gold, pred, mode)
        tp += d_tp
        n_gold += len(gold)
        n_pred += len(pred)
        p, r, f = _oracle_prf(d_tp, len(gold), len(pred))
        ps.append(p)
        rs.append(r)
        fs.append(f)
    p, r, f = _oracle_prf(tp, n_gold, n_pred)
    macro = None
    if ps:
        macro = MacroScores(sum(ps) / len(ps), sum(rs) / len(rs), sum(fs) / len(fs))
    return MetricsReport(
        micro=Prf(tp, n_pred - tp, n_gold - tp, p, r, f), macro=macro
    )


def oracle_event_metrics(
    gold_docs: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Sequence[MedicationMention]],
    mode: str = STRICT,
) -> MetricsReport:
    if mode != STRICT:
        raise OracleLimitError("the event oracle covers strict matching only")
    per_class = {}
    pooled_tp = pooled_fp = pooled_fn = 0
    for label in EventLabel:
        tp = fp = fn = 0
        for doc in gold_docs:
            if len(doc.mentions) > _ORACLE_LIMIT:
                raise OracleLimitError("oracle instances are limited to 12 spans per document")
            gold_at = {(m.span.start, m.span.end): m.event for m in doc.mentions}
            pred_at = {
                (m.span.start, m.span.end): m.event
                for m in predictions.get(doc.doc_id, ())
            }
            for span, ev in pred_at.items():
                if ev is not label:
                    continue
                if gold_at.get(span) is label:
                    tp += 1
                else:
                    fp += 1
            for span, ev in gold_at.items():
                if ev is label and pred_at.get(span) is not label:
                    fn += 1
        p, r, f = _oracle_prf(tp, tp + fn, tp + fp)
        per_class[label.value] = Prf(tp, fp, fn, p, r, f)
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn
    p, r, f = _oracle_prf(pooled_tp, pooled_tp + pooled_fn, pooled_tp + pooled_fp)
    return MetricsReport(
        micro=Prf(pooled_tp, pooled_fp, pooled_fn, p, r, f), per_class=per_class
    )


def oracle_context_metrics(
    gold: Mapping[MentionKey, ContextAttributes],
    predicted: Mapping[MentionKey, ContextAttributes],
) -> MetricsReport:
    dims = list(CONTEXT_DIMENSIONS)
    if not gold:
        return MetricsReport(
            per_dimension={d: 1.0 for d in dims}, overall_accuracy=1.0
        )
    per_dim = {}
    grand_correct = 0
    for dim in dims:
        attr = CONTEXT_DIMENSIONS[dim][1]
        hits = 0
        for key in gold:
            if key in predicted and getattr(predicted[key], attr) == getattr(
                gold[key], attr
            ):
                hits += 1
        per_dim[dim] = hits / len(gold)
        grand_correct += hits
    return MetricsReport(
        per_dimension=per_dim,
        overall_accuracy=grand_correct / (len(gold) * len(dims)),
    )
