"""Standoff parsing/writing, corpus loading, and label statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxtract.corpus import (
    CONTEXT_DIMENSIONS,
    ActionLabel,
    ActorLabel,
    AnnotatedDocument,
    CertaintyLabel,
    CharSpan,
    ContextAttributes,
    Corpus,
    EventLabel,
    MedicationMention,
    NegationLabel,
    TemporalityLabel,
    corpus_stats,
    load_corpus,
    parse_standoff,
    write_corpus_dir,
    write_standoff,
)
from rxtract.errors import (
    ConflictError,
    DuplicateDocIdError,
    IntegrityError,
    MissingPairError,
    SchemaError,
    SpanRangeError,
    StandoffParseError,
)

TEXT = "pt started lisinopril"
ANN = "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nA1\tAction E1 Start\n"


class TestParseStandoff:
    def test_basic_mention(self):
        doc = parse_standoff(TEXT, ANN)
        assert len(doc.mentions) == 1
        m = doc.mentions[0]
        assert m.span == CharSpan(11, 21)
        assert m.surface == "lisinopril"
        assert m.event is EventLabel.DISPOSITION
        assert m.context.action is ActionLabel.START
        # unset dimensions take their defaults
        assert m.context.temporality is TemporalityLabel.UNKNOWN
        assert m.context.certainty is CertaintyLabel.UNKNOWN
        assert m.context.actor is ActorLabel.UNKNOWN
        assert m.context.negation is NegationLabel.NOT_NEGATED

    def test_empty_ann(self):
        doc = parse_standoff(TEXT, "")
        assert doc.mentions == []

    def test_surface_mismatch_is_integrity_error(self):
        bad = "T1\tDrug 11 21\tlisinopriX\nE1\tDisposition:T1\n"
        with pytest.raises(IntegrityError):
            parse_standoff(TEXT, bad)

    def test_offsets_out_of_bounds(self):
        bad = "T1\tDrug 11 99\tlisinopril\nE1\tDisposition:T1\n"
        with pytest.raises(SpanRangeError):
            parse_standoff(TEXT, bad)

    def test_malformed_line_reports_line_number(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nwhat is this\n"
        with pytest.raises(StandoffParseError) as exc:
            parse_standoff(TEXT, bad)
        assert exc.value.lineno == 3

    def test_attribute_on_non_disposition(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tNoDisposition:T1\nA1\tAction E1 Start\n"
        with pytest.raises(SchemaError):
            parse_standoff(TEXT, bad)

    def test_mention_without_event(self):
        with pytest.raises(SchemaError):
            parse_standoff(TEXT, "T1\tDrug 11 21\tlisinopril\n")

    def test_two_events_for_one_mention(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nE2\tUndetermined:T1\n"
        with pytest.raises(SchemaError):
            parse_standoff(TEXT, bad)

    def test_duplicate_id(self):
        bad = "T1\tDrug 11 21\tlisinopril\nT1\tDrug 3 10\tstarted\n"
        with pytest.raises(StandoffParseError):
            parse_standoff(TEXT, bad)

    def test_unknown_event_label(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tMaybe:T1\n"
        with pytest.raises(StandoffParseError):
            parse_standoff(TEXT, bad)

    def test_bad_attribute_value(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nA1\tAction E1 Sideways\n"
        with pytest.raises(SchemaError):
            parse_standoff(TEXT, bad)

    def test_dangling_event_reference(self):
        bad = "T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nE2\tDisposition:T9\n"
        with pytest.raises(StandoffParseError):
            parse_standoff(TEXT, bad)

    def test_overlapping_mentions_rejected(self):
        text = "pt started lisinopril hctz"
        bad = (
            "T1\tDrug 11 21\tlisinopril\n"
            "T2\tDrug 14 26\tinopril hctz\n"
            "E1\tNoDisposition:T1\nE2\tNoDisposition:T2\n"
        )
        with pytest.raises(ConflictError):
            parse_standoff(text, bad)

    def test_crlf_normalized_before_offsets(self):
        text = "aspirin\r\nplavix"
        ann = "T1\tDrug 8 14\tplavix\nE1\tNoDisposition:T1\n"
        doc = parse_standoff(text, ann)
        assert doc.mentions[0].surface == "plavix"
        assert "\r" not in doc.text


class TestWriteStandoff:
    def test_empty_doc_writes_empty_string(self):
        assert write_standoff(AnnotatedDocument("d", "no meds here", [])) == ""

    def test_round_trip_example(self):
        doc = parse_standoff(TEXT, ANN)
        again = parse_standoff(doc.text, write_standoff(doc))
        assert again.mentions == doc.mentions

    def test_three_mentions_one_per_event(self):
        text = "aspirin plavix statin"
        doc = AnnotatedDocument(
            "d",
            text,
            [
                MedicationMention(
                    CharSpan(0, 7), "aspirin", EventLabel.DISPOSITION,
                    ContextAttributes(action=ActionLabel.STOP),
                ),
                MedicationMention(CharSpan(8, 14), "plavix", EventLabel.NO_DISPOSITION),
                MedicationMention(CharSpan(15, 21), "statin", EventLabel.UNDETERMINED),
            ],
        )
        out = write_standoff(doc)
        lines = out.strip().split("\n")
        assert sum(1 for ln in lines if ln.startswith("T")) == 3
        assert sum(1 for ln in lines if ln.startswith("E")) == 3
        a_lines = [ln for ln in lines if ln.startswith("A")]
        # only the Disposition mention's non-default attribute is written
        assert a_lines == ["A1\tAction E1 Stop"]
        assert parse_standoff(text, out).mentions == doc.mentions


def _context_strategy():
    return st.builds(
        ContextAttributes,
        action=st.sampled_from(ActionLabel),
        negation=st.sampled_from(NegationLabel),
        temporality=st.sampled_from(TemporalityLabel),
        certainty=st.sampled_from(CertaintyLabel),
        actor=st.sampled_from(ActorLabel),
    )


@st.composite
def _documents(draw):
    text = draw(st.text(alphabet="abc xyz\n.", min_size=1, max_size=80))
    text = text.replace("\r", " ")
    n = draw(st.integers(0, 4))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), min_size=0, max_size=2 * n)))
    spans = []
    for a, b in zip(cuts, cuts[1:]):
        if a < b and len(spans) < n:
            if not spans or spans[-1].end <= a:
                spans.append(CharSpan(a, b))
    mentions = []
    for span in spans:
        event = draw(st.sampled_from(EventLabel))
        context = draw(_context_strategy()) if event is EventLabel.DISPOSITION else None
        mentions.append(
            MedicationMention(span, text[span.start : span.end], event, context)
        )
    return AnnotatedDocument("doc", text, mentions)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_documents())
    def test_parse_write_identity(self, doc):
        doc.validate()
        again = parse_standoff(doc.text, write_standoff(doc), doc_id=doc.doc_id)
        assert [(m.span, m.event, m.context) for m in again.mentions] == [
            (m.span, m.event, m.context) for m in sorted(doc.mentions, key=lambda m: m.span)
        ]


def _write_pair(d, doc_id, text, ann):
    (d / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    (d / f"{doc_id}.ann").write_text(ann, encoding="utf-8")


class TestLoadCorpus:
    def test_loads_split_sizes(self, tmp_path):
        for split, count in (("train", 3), ("dev", 2), ("test", 1)):
            d = tmp_path / split
            d.mkdir()
            for i in range(count):
                _write_pair(d, f"{split}{i}", TEXT, ANN)
        corpus = load_corpus(tmp_path)
        assert (len(corpus.train), len(corpus.dev), len(corpus.test)) == (3, 2, 1)

    def test_challenge_scale_split_sizes(self, tmp_path):
        from rxtract.synth import GeneratorSpec, gen_corpus

        result = gen_corpus(
            GeneratorSpec(seed=1, n_train=350, n_dev=50, n_test=100,
                          min_sentences=1, max_sentences=2)
        )
        write_corpus_dir(result.corpus, tmp_path)
        corpus = load_corpus(tmp_path)
        assert (len(corpus.train), len(corpus.dev), len(corpus.test)) == (350, 50, 100)

    def test_empty_directories(self, tmp_path):
        for split in ("train", "dev", "test"):
            (tmp_path / split).mkdir()
        corpus = load_corpus(tmp_path)
        assert corpus.train == [] and corpus.dev == [] and corpus.test == []

    def test_missing_ann_file(self, tmp_path):
        for split in ("train", "dev", "test"):
            (tmp_path / split).mkdir()
        (tmp_path / "train" / "a.txt").write_text(TEXT, encoding="utf-8")
        with pytest.raises(MissingPairError):
            load_corpus(tmp_path)

    def test_duplicate_doc_id_across_splits(self, tmp_path):
        for split in ("train", "dev", "test"):
            (tmp_path / split).mkdir()
        _write_pair(tmp_path / "train", "same", TEXT, ANN)
        _write_pair(tmp_path / "dev", "same", TEXT, ANN)
        with pytest.raises(DuplicateDocIdError):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "ann, error, line",
        [
            ("T1\tDrug 11 14\tzzz\n", IntegrityError, 1),
            ("T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nE2\tDisposition:T9\n",
             StandoffParseError, 3),
            ("T1\tDrug 11 21\tlisinopril\nE1\tDisposition:T1\nT2\tDrug 3 10\tstarted\n",
             SchemaError, 3),
        ],
        ids=["surface_mismatch", "dangling_event", "mention_without_event"],
    )
    def test_annotation_error_names_file_and_line(self, tmp_path, ann, error, line):
        for split in ("train", "dev", "test"):
            (tmp_path / split).mkdir()
        _write_pair(tmp_path / "train", "good", TEXT, ANN)
        _write_pair(tmp_path / "dev", "bad", TEXT, ann)
        with pytest.raises(error) as exc:
            load_corpus(tmp_path)
        assert str(exc.value).startswith(f"{tmp_path / 'dev' / 'bad.ann'}: line {line}: ")

    def test_write_then_load_round_trip(self, tmp_path):
        doc = parse_standoff(TEXT, ANN, doc_id="only")
        corpus = Corpus(train=[doc])
        write_corpus_dir(corpus, tmp_path)
        again = load_corpus(tmp_path)
        assert again.train[0].mentions == doc.mentions
        assert again.train[0].text == doc.text


class TestCorpusStats:
    def test_empty_corpus_all_zero(self):
        stats = corpus_stats(Corpus())
        for split in ("train", "dev", "test"):
            assert stats[split].medications == 0
            assert all(v == 0 for v in stats[split].events.values())

    def test_counts_and_sums(self):
        docs = [parse_standoff(TEXT, ANN, doc_id=f"d{i}") for i in range(4)]
        stats = corpus_stats(Corpus(train=docs))
        train = stats["train"]
        assert train.medications == 4
        assert sum(train.events.values()) == train.medications
        disp = train.events[EventLabel.DISPOSITION.value]
        for dim in CONTEXT_DIMENSIONS:
            assert sum(train.dimensions[dim].values()) == disp

    def test_context_present_iff_disposition(self):
        doc = parse_standoff(TEXT, ANN)
        for m in doc.mentions:
            assert (m.context is not None) == (m.event is EventLabel.DISPOSITION)
