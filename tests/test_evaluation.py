"""Span matching, the three metric operations, and their equivalence with
the exhaustive oracle in `metric_oracle`."""

import random

import pytest

from rxtract.corpus import (
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    ActionLabel,
    ActorLabel,
    CertaintyLabel,
    EventLabel,
    MedicationMention,
    NegationLabel,
    TemporalityLabel,
)
from rxtract.errors import RxtractError
from rxtract.evaluation import (
    combined_accuracy,
    context_metrics,
    event_metrics,
    gold_context_table,
    match_spans,
    ner_metrics,
    render_report,
    report_records,
)

from metric_oracle import (
    OracleLimitError,
    oracle_context_metrics,
    oracle_event_metrics,
    oracle_ner_metrics,
)


def _doc(doc_id, spans, events=None, contexts=None, length=200):
    text = "x" * length
    mentions = []
    for i, (a, b) in enumerate(spans):
        event = events[i] if events else EventLabel.NO_DISPOSITION
        context = None
        if event is EventLabel.DISPOSITION:
            context = contexts[i] if contexts else ContextAttributes()
        mentions.append(
            MedicationMention(CharSpan(a, b), text[a:b], event, context)
        )
    return AnnotatedDocument(doc_id, text, mentions)


class TestMatchSpans:
    def test_strict_identical(self):
        res = match_spans([CharSpan(0, 5)], [CharSpan(0, 5)], "strict")
        assert res.pairs == [(0, 0)]
        assert res.unmatched_gold == [] and res.unmatched_pred == []

    def test_partial_overlap_strict_vs_lenient(self):
        gold, pred = [CharSpan(0, 5)], [CharSpan(2, 7)]
        assert match_spans(gold, pred, "strict").pairs == []
        assert match_spans(gold, pred, "lenient").pairs == [(0, 0)]

    def test_unmatched_pred(self):
        res = match_spans([], [CharSpan(0, 5)], "strict")
        assert res.pairs == [] and res.unmatched_pred == [0]

    def test_overlap_within_one_list_rejected(self):
        with pytest.raises(RxtractError):
            match_spans([CharSpan(0, 5), CharSpan(3, 8)], [], "strict")

    def test_one_to_one(self):
        gold = [CharSpan(0, 10)]
        pred = [CharSpan(0, 2), CharSpan(5, 8)]
        res = match_spans(gold, pred, "lenient")
        assert len(res.pairs) == 1
        assert res.unmatched_pred == [1]


class TestNerMetrics:
    def test_perfect_agreement(self):
        docs = [_doc("a", [(0, 5), (10, 15)]), _doc("b", [(3, 7)])]
        preds = {d.doc_id: [m.span for m in d.mentions] for d in docs}
        rep = ner_metrics(docs, preds)
        assert rep.micro.precision == rep.micro.recall == rep.micro.f1 == 1.0
        assert rep.macro.f1 == 1.0

    def test_macro_and_micro_worked_example(self):
        doc1 = _doc("d1", [(0, 5)])
        doc2 = _doc("d2", [(0, 5)])
        preds = {"d1": [CharSpan(0, 5)], "d2": []}
        rep = ner_metrics([doc1, doc2], preds)
        assert rep.macro.f1 == pytest.approx(0.5)
        assert rep.micro.tp == 1 and rep.micro.fp == 0 and rep.micro.fn == 1
        assert rep.micro.precision == 1.0
        assert rep.micro.recall == pytest.approx(0.5)
        assert rep.micro.f1 == pytest.approx(2.0 / 3.0)

    def test_swap_gold_pred_swaps_precision_recall(self):
        docs = [_doc("a", [(0, 5), (8, 12)])]
        preds = {"a": [CharSpan(0, 5)]}
        fwd = ner_metrics(docs, preds)
        swapped_docs = [_doc("a", [(0, 5)])]
        swapped_preds = {"a": [CharSpan(0, 5), CharSpan(8, 12)]}
        rev = ner_metrics(swapped_docs, swapped_preds)
        assert fwd.micro.precision == rev.micro.recall
        assert fwd.micro.recall == rev.micro.precision

    def test_gold_vs_gold_identity_with_empty_docs(self):
        docs = [_doc("a", [(0, 5)]), _doc("empty", [])]
        preds = {d.doc_id: [m.span for m in d.mentions] for d in docs}
        rep = ner_metrics(docs, preds)
        assert rep.micro.f1 == 1.0
        assert rep.macro.precision == rep.macro.recall == rep.macro.f1 == 1.0


class TestEventMetrics:
    def test_gold_span_micro_equals_accuracy(self):
        events = [EventLabel.DISPOSITION] * 4 + [EventLabel.NO_DISPOSITION] * 6
        docs = [_doc("a", [(i * 10, i * 10 + 5) for i in range(10)], events)]
        predicted = list(events)
        predicted[0] = EventLabel.UNDETERMINED  # two mistakes
        predicted[5] = EventLabel.UNDETERMINED
        preds = {
            "a": [
                MedicationMention(m.span, m.surface, predicted[i])
                for i, m in enumerate(docs[0].mentions)
            ]
        }
        rep = event_metrics(docs, preds)
        assert rep.micro.f1 == pytest.approx(0.8)
        assert rep.micro.precision == pytest.approx(0.8)

    def test_span_match_event_mismatch_is_fp_and_fn(self):
        docs = [_doc("a", [(0, 5)], [EventLabel.DISPOSITION])]
        preds = {"a": [MedicationMention(CharSpan(0, 5), "xxxxx", EventLabel.UNDETERMINED)]}
        rep = event_metrics(docs, preds)
        assert rep.per_class["Undetermined"].fp == 1
        assert rep.per_class["Disposition"].fn == 1
        assert rep.micro.tp == 0

    def test_empty_predictions_zero_by_convention(self):
        docs = [_doc("a", [(0, 5)], [EventLabel.DISPOSITION])]
        rep = event_metrics(docs, {"a": []})
        assert rep.per_class["Disposition"].recall == 0.0
        assert rep.per_class["Disposition"].precision == 0.0
        assert rep.micro.f1 == 0.0

    def test_lenient_matches_overlaps_strict_does_not(self):
        docs = [_doc("a", [(0, 5), (10, 15)],
                     [EventLabel.DISPOSITION, EventLabel.NO_DISPOSITION])]
        preds = {"a": [
            MedicationMention(CharSpan(2, 7), "xxxxx", EventLabel.DISPOSITION),
            MedicationMention(CharSpan(12, 18), "xxxxxx", EventLabel.UNDETERMINED),
        ]}

        def counts(mode):
            rep = event_metrics(docs, preds, mode)
            scores = {**rep.per_class, "micro": rep.micro}
            return {scope: (s.tp, s.fp, s.fn) for scope, s in scores.items()}

        assert counts("strict") == {
            "Disposition": (0, 1, 1), "NoDisposition": (0, 0, 1),
            "Undetermined": (0, 1, 0), "micro": (0, 2, 2),
        }
        # the same-event pair now counts; the other still costs one FP and one FN
        assert counts("lenient") == {
            "Disposition": (1, 0, 0), "NoDisposition": (0, 0, 1),
            "Undetermined": (0, 1, 0), "micro": (1, 1, 1),
        }


@pytest.mark.parametrize("metric", [ner_metrics, event_metrics],
                         ids=["ner_metrics", "event_metrics"])
def test_unknown_doc_id_is_key_error(metric):
    with pytest.raises(KeyError, match="mystery"):
        metric([_doc("a", [])], {"mystery": []})


def _attrs(action="Start", negation="NotNegated", temporality="Past",
           certainty="Certain", actor="Physician"):
    return ContextAttributes(
        action=ActionLabel(action),
        negation=NegationLabel(negation),
        temporality=TemporalityLabel(temporality),
        certainty=CertaintyLabel(certainty),
        actor=ActorLabel(actor),
    )


class TestContextMetrics:
    def test_all_correct(self):
        gold = {("d", 0, 5): _attrs(), ("d", 10, 15): _attrs(action="Stop")}
        rep = context_metrics(gold, dict(gold))
        assert all(v == 1.0 for v in rep.per_dimension.values())
        assert rep.overall_accuracy == 1.0

    def test_missing_prediction_counts_wrong_everywhere(self):
        gold = {("d", 0, 5): _attrs(), ("d", 10, 15): _attrs()}
        rep = context_metrics(gold, {("d", 0, 5): _attrs()})
        assert all(v == 0.5 for v in rep.per_dimension.values())
        assert rep.overall_accuracy == 0.5

    def test_overall_equals_mean_of_dimensions(self):
        rng = random.Random(5)
        gold, pred = {}, {}
        for i in range(40):
            key = ("d", i * 10, i * 10 + 4)
            gold[key] = _attrs()
            pred[key] = _attrs(
                action=rng.choice(["Start", "Stop"]),
                temporality=rng.choice(["Past", "Present"]),
                actor=rng.choice(["Physician", "Patient"]),
            )
        rep = context_metrics(gold, pred)
        mean = sum(rep.per_dimension.values()) / 5
        assert rep.overall_accuracy == pytest.approx(mean, abs=1e-12)

    def test_reference_accuracy_vector_reproduces_overall(self):
        # per-dimension accuracies (0.8862, 0.9790, 0.8503, 0.9102, 0.9371)
        # over one shared denominator must pool to 0.9126 at 4 decimals
        n = 10000
        correct = {"Action": 8862, "Negation": 9790, "Temporality": 8503,
                   "Certainty": 9102, "Actor": 9371}
        wrong = {
            "Action": _attrs(action="Stop"),
            "Negation": _attrs(negation="Negated"),
            "Temporality": _attrs(temporality="Present"),
            "Certainty": _attrs(certainty="Hypothetical"),
            "Actor": _attrs(actor="Patient"),
        }
        gold, pred = {}, {}
        for i in range(n):
            key = ("d", 10 * i, 10 * i + 5)
            gold[key] = _attrs()
            kwargs = {}
            for dim, attr_name in (("Action", "action"), ("Negation", "negation"),
                                   ("Temporality", "temporality"),
                                   ("Certainty", "certainty"), ("Actor", "actor")):
                good = i < correct[dim]
                kwargs[attr_name] = getattr(_attrs() if good else wrong[dim], attr_name)
            pred[key] = ContextAttributes(**kwargs)
        rep = context_metrics(gold, pred)
        assert rep.per_dimension["Action"] == pytest.approx(0.8862, abs=1e-12)
        assert rep.per_dimension["Negation"] == pytest.approx(0.9790, abs=1e-12)
        assert rep.per_dimension["Temporality"] == pytest.approx(0.8503, abs=1e-12)
        assert rep.per_dimension["Certainty"] == pytest.approx(0.9102, abs=1e-12)
        assert rep.per_dimension["Actor"] == pytest.approx(0.9371, abs=1e-12)
        assert round(rep.overall_accuracy, 4) == 0.9126


class TestCombinedAccuracy:
    def test_identical_predictions_score_one(self):
        docs = [_doc("a", [(0, 5), (10, 15)],
                     [EventLabel.DISPOSITION, EventLabel.NO_DISPOSITION])]
        preds = {"a": list(docs[0].mentions)}
        assert combined_accuracy(docs, preds) == 1.0

    def test_empty_predictions_score_zero(self):
        docs = [_doc("a", [(0, 5)])]
        assert combined_accuracy(docs, {"a": []}) == 0.0

    def test_each_failure_mode_counts_once(self):
        attrs = _attrs()
        events = [EventLabel.NO_DISPOSITION, EventLabel.NO_DISPOSITION,
                  EventLabel.DISPOSITION, EventLabel.DISPOSITION]
        docs = [_doc("a", [(0, 5), (10, 15), (20, 25), (30, 35)], events,
                     contexts=[None, None, attrs, attrs])]
        text = docs[0].text
        preds = {
            "a": [
                # span miss for mention 0
                MedicationMention(CharSpan(1, 6), text[1:6], EventLabel.NO_DISPOSITION),
                # event miss for mention 1
                MedicationMention(CharSpan(10, 15), text[10:15], EventLabel.UNDETERMINED),
                # dimension miss for mention 2
                MedicationMention(CharSpan(20, 25), text[20:25], EventLabel.DISPOSITION,
                                  _attrs(actor="Patient")),
                # fully correct for mention 3
                MedicationMention(CharSpan(30, 35), text[30:35], EventLabel.DISPOSITION,
                                  attrs),
            ]
        }
        assert combined_accuracy(docs, preds) == pytest.approx(0.25)


def _random_instance_base(rng, max_spans=12, strict_pool=None):
    n_docs = rng.randint(1, 4)
    docs = []
    preds = {}
    for d in range(n_docs):
        def spans():
            out = []
            pos = 0
            for _ in range(rng.randint(0, max_spans)):
                pos += rng.randint(0, 6)
                width = rng.randint(1, 5)
                if pos + width > 195:
                    break
                out.append((pos, pos + width))
                pos += width
            return out
        gold = spans()
        if strict_pool and gold and rng.random() < 0.7:
            # reuse some gold offsets so strict matches actually occur
            pred = [s for s in gold if rng.random() < 0.6] + [
                s for s in spans() if rng.random() < 0.4
            ]
            pred = sorted(set(pred))
            merged = []
            for s in pred:
                if merged and s[0] < merged[-1][1]:
                    continue
                merged.append(s)
            pred = merged
        else:
            pred = spans()
        docs.append(_doc(f"doc{d}", gold))
        preds[f"doc{d}"] = [CharSpan(a, b) for a, b in pred]
    return docs, preds


class TestOracleEquivalence:
    def test_ner_metrics_match_oracle_on_random_strict_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            docs, preds = _random_instance(rng)
            main = ner_metrics(docs, preds, "strict")
            oracle = oracle_ner_metrics(docs, preds, "strict")
            assert main.micro == oracle.micro
            assert main.macro.precision == pytest.approx(oracle.macro.precision, abs=1e-12)
            assert main.macro.recall == pytest.approx(oracle.macro.recall, abs=1e-12)
            assert main.macro.f1 == pytest.approx(oracle.macro.f1, abs=1e-12)

    def test_lenient_ner_metrics_match_oracle(self):
        # on disjoint span lists greedy overlap matching is maximal
        rng = random.Random(13)
        for _ in range(200):
            docs, preds = _random_instance(rng)
            main = ner_metrics(docs, preds, "lenient")
            oracle = oracle_ner_metrics(docs, preds, "lenient")
            assert main.micro == oracle.micro
            assert main.macro.precision == pytest.approx(oracle.macro.precision, abs=1e-12)
            assert main.macro.recall == pytest.approx(oracle.macro.recall, abs=1e-12)
            assert main.macro.f1 == pytest.approx(oracle.macro.f1, abs=1e-12)

    def test_event_metrics_match_oracle(self):
        rng = random.Random(17)
        labels = list(EventLabel)
        for _ in range(150):
            docs, preds = _random_instance(rng)
            event_docs = []
            event_preds = {}
            for doc in docs:
                events = [rng.choice(labels) for _ in doc.mentions]
                event_docs.append(
                    _doc(doc.doc_id, [(m.span.start, m.span.end) for m in doc.mentions],
                         events,
                         contexts=[_attrs() if e is EventLabel.DISPOSITION else None
                                   for e in events])
                )
                event_preds[doc.doc_id] = [
                    MedicationMention(s, "x" * len(s), rng.choice(labels))
                    for s in preds[doc.doc_id]
                ]
            main = event_metrics(event_docs, event_preds, "strict")
            oracle = oracle_event_metrics(event_docs, event_preds, "strict")
            assert main.micro == oracle.micro
            assert main.per_class == oracle.per_class

    def test_context_metrics_match_oracle(self):
        rng = random.Random(19)
        options = {
            "action": [a.value for a in ActionLabel],
            "negation": [a.value for a in NegationLabel],
            "temporality": [a.value for a in TemporalityLabel],
            "certainty": [a.value for a in CertaintyLabel],
            "actor": [a.value for a in ActorLabel],
        }

        def rand_attrs():
            return ContextAttributes(
                action=ActionLabel(rng.choice(options["action"])),
                negation=NegationLabel(rng.choice(options["negation"])),
                temporality=TemporalityLabel(rng.choice(options["temporality"])),
                certainty=CertaintyLabel(rng.choice(options["certainty"])),
                actor=ActorLabel(rng.choice(options["actor"])),
            )

        for _ in range(100):
            gold = {}
            pred = {}
            for i in range(rng.randint(0, 50)):
                key = ("d", 10 * i, 10 * i + 3)
                gold[key] = rand_attrs()
                if rng.random() < 0.9:
                    pred[key] = rand_attrs()
            main = context_metrics(gold, pred)
            oracle = oracle_context_metrics(gold, pred)
            assert main.per_dimension == oracle.per_dimension
            assert main.overall_accuracy == oracle.overall_accuracy

    def test_oracle_size_limit(self):
        docs = [_doc("a", [(i * 10, i * 10 + 3) for i in range(13)])]
        with pytest.raises(OracleLimitError, match="12 spans"):
            oracle_ner_metrics(docs, {"a": []})


def _random_instance(rng):
    return _random_instance_base(rng, max_spans=8, strict_pool=True)


class TestGoldContextTable:
    def test_collects_only_disposition(self):
        docs = [
            _doc("a", [(0, 5), (10, 15)],
                 [EventLabel.DISPOSITION, EventLabel.NO_DISPOSITION],
                 contexts=[_attrs(), None]),
        ]
        table = gold_context_table(docs)
        assert set(table) == {("a", 0, 5)}


class TestReportRendering:
    def test_render_and_records(self):
        docs = [_doc("a", [(0, 5)])]
        preds = {"a": [CharSpan(0, 5)]}
        rep = ner_metrics(docs, preds)
        text = render_report(rep, "ner")
        assert "micro" in text and "macro" in text
        recs = report_records(rep, "ner")
        assert {"task": "ner", "scope": "micro", "metric": "f1",
                "value": 1.0, "tp": 1, "fp": 0, "fn": 0} in recs
