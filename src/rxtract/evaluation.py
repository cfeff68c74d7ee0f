"""Span matching and scoring: micro/macro P/R/F1 for extraction, strict
per-class scores for events, per-dimension accuracy for context, combined
end-to-end accuracy.

Conventions: a precision or recall whose denominator is zero scores 0 and
an F1 with P=R=0 scores 0, except that a scoring unit with no gold and no
predicted items at all counts as perfect (1.0), so scoring gold against
itself always yields 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    EventLabel,
    MedicationMention,
    check_disjoint,
)
from .errors import RxtractError

STRICT = "strict"
LENIENT = "lenient"

MentionKey = tuple[str, int, int]  # (doc_id, start, end)


@dataclass(frozen=True)
class Prf:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def _prf(tp: int, fp: int, fn: int) -> Prf:
    if tp == 0 and fp == 0 and fn == 0:
        return Prf(0, 0, 0, 1.0, 1.0, 1.0)  # vacuous unit: perfect agreement
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return Prf(tp, fp, fn, p, r, f)


@dataclass(frozen=True)
class MacroScores:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    """Scores for one evaluation task; unused sections stay None."""

    micro: Optional[Prf] = None
    macro: Optional[MacroScores] = None
    per_class: dict[str, Prf] = field(default_factory=dict)
    per_dimension: dict[str, float] = field(default_factory=dict)
    overall_accuracy: Optional[float] = None
    combined_accuracy: Optional[float] = None


@dataclass
class MatchResult:
    pairs: list[tuple[int, int]]
    unmatched_gold: list[int]
    unmatched_pred: list[int]


def match_spans(
    gold: Sequence[CharSpan], pred: Sequence[CharSpan], mode: str = STRICT
) -> MatchResult:
    """One-to-one span pairing.

    Strict pairs spans with identical offsets. Lenient pairs any spans that
    overlap by at least one character, greedily in gold order taking the
    leftmost free prediction.
    """
    if mode not in (STRICT, LENIENT):
        raise RxtractError(f"unknown match mode {mode!r}")
    check_disjoint(gold, "gold list")
    check_disjoint(pred, "pred list")

    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    pred_order = sorted(range(len(pred)), key=lambda j: pred[j])
    for i in sorted(range(len(gold)), key=lambda k: gold[k]):
        for j in pred_order:
            if j in used:
                continue
            if mode == STRICT:
                hit = gold[i] == pred[j]
            else:
                hit = gold[i].overlaps(pred[j])
            if hit:
                pairs.append((i, j))
                used.add(j)
                break
    matched_gold = {i for i, _ in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_gold=[i for i in range(len(gold)) if i not in matched_gold],
        unmatched_pred=[j for j in range(len(pred)) if j not in used],
    )


def _check_known_ids(gold_docs: Sequence[AnnotatedDocument], predictions: Mapping) -> None:
    known = {d.doc_id for d in gold_docs}
    for doc_id in predictions:
        if doc_id not in known:
            raise KeyError(f"prediction for unknown doc_id {doc_id!r}")


def ner_metrics(
    gold_docs: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Sequence[CharSpan]],
    mode: str = STRICT,
) -> MetricsReport:
    """Micro (count-pooled) and macro (per-document mean) extraction scores."""
    _check_known_ids(gold_docs, predictions)
    tp = fp = fn = 0
    doc_scores: list[Prf] = []
    for doc in gold_docs:
        gold = [m.span for m in doc.mentions]
        pred = list(predictions.get(doc.doc_id, ()))
        res = match_spans(gold, pred, mode)
        d_tp = len(res.pairs)
        d_fp = len(res.unmatched_pred)
        d_fn = len(res.unmatched_gold)
        tp, fp, fn = tp + d_tp, fp + d_fp, fn + d_fn
        doc_scores.append(_prf(d_tp, d_fp, d_fn))

    macro = None
    if doc_scores:
        macro = MacroScores(
            precision=sum(s.precision for s in doc_scores) / len(doc_scores),
            recall=sum(s.recall for s in doc_scores) / len(doc_scores),
            f1=sum(s.f1 for s in doc_scores) / len(doc_scores),
        )
    return MetricsReport(micro=_prf(tp, fp, fn), macro=macro)


def event_metrics(
    gold_docs: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Sequence[MedicationMention]],
    mode: str = STRICT,
) -> MetricsReport:
    """Per-class and pooled scores for event classification.

    Spans are matched first; a matched pair with differing events counts as
    a false positive for the predicted class and a false negative for the
    gold class.
    """
    _check_known_ids(gold_docs, predictions)
    counts = {e.value: [0, 0, 0] for e in EventLabel}  # tp, fp, fn
    for doc in gold_docs:
        gold = doc.mentions
        pred = list(predictions.get(doc.doc_id, ()))
        res = match_spans([m.span for m in gold], [m.span for m in pred], mode)
        for gi, pi in res.pairs:
            if gold[gi].event is pred[pi].event:
                counts[gold[gi].event.value][0] += 1
            else:
                counts[pred[pi].event.value][1] += 1
                counts[gold[gi].event.value][2] += 1
        for gi in res.unmatched_gold:
            counts[gold[gi].event.value][2] += 1
        for pi in res.unmatched_pred:
            counts[pred[pi].event.value][1] += 1

    per_class = {c: _prf(*v) for c, v in counts.items()}
    pooled = [sum(v[i] for v in counts.values()) for i in range(3)]
    return MetricsReport(micro=_prf(*pooled), per_class=per_class)


def context_metrics(
    gold: Mapping[MentionKey, ContextAttributes],
    predicted: Mapping[MentionKey, ContextAttributes],
) -> MetricsReport:
    """Per-dimension and overall accuracy over gold Disposition mentions.

    A mention with no prediction counts wrong in all five dimensions. The
    overall score pools every (mention, dimension) decision, which equals
    the mean of the five accuracies because denominators coincide.
    """
    total = len(gold)
    correct = {dim: 0 for dim in CONTEXT_DIMENSIONS}
    for key, attrs in gold.items():
        guess = predicted.get(key)
        if guess is None:
            continue
        for dim, (_, attr) in CONTEXT_DIMENSIONS.items():
            if getattr(guess, attr) == getattr(attrs, attr):
                correct[dim] += 1

    if total == 0:
        per_dim = {dim: 1.0 for dim in CONTEXT_DIMENSIONS}
        overall = 1.0
    else:
        per_dim = {dim: correct[dim] / total for dim in CONTEXT_DIMENSIONS}
        overall = sum(correct.values()) / (total * len(CONTEXT_DIMENSIONS))
    return MetricsReport(per_dimension=per_dim, overall_accuracy=overall)


def gold_context_table(
    docs: Sequence[AnnotatedDocument],
) -> dict[MentionKey, ContextAttributes]:
    """Context attributes of every gold Disposition mention, keyed by span."""
    table: dict[MentionKey, ContextAttributes] = {}
    for doc in docs:
        for m in doc.mentions:
            if m.event is EventLabel.DISPOSITION:
                table[(doc.doc_id, m.span.start, m.span.end)] = m.context
    return table


def combined_accuracy(
    gold_docs: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Sequence[MedicationMention]],
) -> float:
    """Fraction of gold mentions fully reproduced end to end.

    A gold mention counts correct when some prediction matches its span
    exactly, carries the same event, and — for Disposition mentions —
    agrees on all five context dimensions.
    """
    total = 0
    correct = 0
    for doc in gold_docs:
        by_span = {
            (m.span.start, m.span.end): m for m in predictions.get(doc.doc_id, ())
        }
        for g in doc.mentions:
            total += 1
            p = by_span.get((g.span.start, g.span.end))
            if p is None or p.event is not g.event:
                continue
            if g.event is EventLabel.DISPOSITION and p.context != g.context:
                continue
            correct += 1
    return correct / total if total else 1.0


# ---------------------------------------------------------------------------
# report rendering


def render_report(report: MetricsReport, task: str) -> str:
    """Aligned plain-text table for one evaluation task."""
    lines = [f"== {task} =="]
    if report.micro is not None:
        m = report.micro
        lines.append(f"{'scope':<16}{'P':>10}{'R':>10}{'F1':>10}{'TP':>7}{'FP':>7}{'FN':>7}")
        lines.append(
            f"{'micro':<16}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}"
            f"{m.tp:>7}{m.fp:>7}{m.fn:>7}"
        )
    if report.macro is not None:
        a = report.macro
        lines.append(
            f"{'macro':<16}{a.precision:>10.4f}{a.recall:>10.4f}{a.f1:>10.4f}"
        )
    for cls, s in report.per_class.items():
        lines.append(
            f"{cls:<16}{s.precision:>10.4f}{s.recall:>10.4f}{s.f1:>10.4f}"
            f"{s.tp:>7}{s.fp:>7}{s.fn:>7}"
        )
    if report.per_dimension:
        lines.append(f"{'dimension':<16}{'accuracy':>10}")
        for dim, acc in report.per_dimension.items():
            lines.append(f"{dim:<16}{acc:>10.4f}")
    if report.overall_accuracy is not None:
        lines.append(f"{'overall':<16}{report.overall_accuracy:>10.4f}")
    if report.combined_accuracy is not None:
        lines.append(f"{'combined':<16}{report.combined_accuracy:>10.4f}")
    return "\n".join(lines)


def report_records(report: MetricsReport, task: str) -> list[dict]:
    """One machine-readable record per metric value."""
    records: list[dict] = []

    def add(scope, metric, value, counts=None):
        rec = {"task": task, "scope": scope, "metric": metric, "value": value}
        if counts is not None:
            rec.update(tp=counts.tp, fp=counts.fp, fn=counts.fn)
        records.append(rec)

    if report.micro is not None:
        for metric in ("precision", "recall", "f1"):
            add("micro", metric, getattr(report.micro, metric), report.micro)
    if report.macro is not None:
        for metric in ("precision", "recall", "f1"):
            add("macro", metric, getattr(report.macro, metric))
    for cls, s in report.per_class.items():
        for metric in ("precision", "recall", "f1"):
            add(cls, metric, getattr(s, metric), s)
    for dim, acc in report.per_dimension.items():
        add(dim, "accuracy", acc)
    if report.overall_accuracy is not None:
        add("overall", "accuracy", report.overall_accuracy)
    if report.combined_accuracy is not None:
        add("end2end", "accuracy", report.combined_accuracy)
    return records
