"""Synthetic corpus generator: determinism, encodable spans, distributions."""

import hashlib

import pytest

from rxtract.corpus import (
    CONTEXT_DIMENSIONS,
    EventLabel,
    corpus_stats,
    load_corpus,
    write_corpus_dir,
    write_standoff,
)
from rxtract.errors import ConfigError
from rxtract.preproc import spans_to_bio, split_sentences, tokenize
from rxtract.synth import (
    CUES,
    DIMENSION_TARGETS,
    EVENT_TARGETS,
    MAX_LEXICON_SIZE,
    GeneratorSpec,
    default_lexicon,
    gen_corpus,
)

SMALL = GeneratorSpec(seed=7, n_train=40, n_dev=10, n_test=10)
NOISY = GeneratorSpec(seed=11, n_train=40, n_dev=10, n_test=10, noise_rate=0.3,
                      novel_form_rate=0.05)

# sha256 of every document's id, text and standoff, recorded before the
# dimension tables were keyed by name. A change to the generator's output or
# to its random stream moves them; one that does so on purpose must say why.
CORPUS_DIGESTS = {
    "separable": "e0bc5e329ab59931ebf93e07f689caab3b878af1b31748eb7393c084a52e6c07",
    "noisy": "5959011ec7bc2b0c522644acb9858bf3c6041225a34cf8272670bd292b48e081",
}


@pytest.fixture(scope="module")
def small_result():
    return gen_corpus(SMALL)


class TestDeterminism:
    def test_same_seed_identical_corpora(self, small_result):
        again = gen_corpus(GeneratorSpec(seed=7, n_train=40, n_dev=10, n_test=10))
        for split in ("train", "dev", "test"):
            a = small_result.corpus.split(split)
            b = again.corpus.split(split)
            assert [d.text for d in a] == [d.text for d in b]
            assert [d.mentions for d in a] == [d.mentions for d in b]

    def test_different_seed_differs(self, small_result):
        other = gen_corpus(GeneratorSpec(seed=8, n_train=40, n_dev=10, n_test=10))
        assert [d.text for d in other.corpus.train] != [
            d.text for d in small_result.corpus.train
        ]


@pytest.mark.parametrize("name, spec", [("separable", SMALL), ("noisy", NOISY)])
def test_corpus_locked(name, spec):
    lines = [
        f"{doc.doc_id}\n{doc.text}\n{write_standoff(doc)}"
        for _, docs in gen_corpus(spec).corpus.splits() for doc in docs
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_DIGESTS[name]


class TestTables:
    def test_tables_match_dimension_schema(self):
        assert list(DIMENSION_TARGETS) == list(CONTEXT_DIMENSIONS)
        assert list(CUES) == list(CONTEXT_DIMENSIONS)
        assert set(EVENT_TARGETS) == {e.value for e in EventLabel}
        assert all(share > 0 for share in EVENT_TARGETS.values())
        for dim, (enum_cls, _) in CONTEXT_DIMENSIONS.items():
            values = {v.value for v in enum_cls}
            assert set(DIMENSION_TARGETS[dim]) == values, dim
            assert set(CUES[dim]) == values, dim
            assert all(share > 0 for share in DIMENSION_TARGETS[dim].values()), dim
        cues = [cue for table in CUES.values() for cue in table.values()]
        assert len(set(cues)) == len(cues)


class TestLedger:
    def test_ledger_spans_are_bio_encodable(self, small_result):
        for doc in small_result.corpus.train:
            tokens = tokenize(doc.text)
            for sent in split_sentences(doc.text, tokens):
                spans = [m.span for m in doc.mentions if m.span.overlaps(sent.span)]
                spans_to_bio(sent, spans)  # must not raise


class TestDistributions:
    def test_event_proportions_near_targets(self):
        result = gen_corpus(GeneratorSpec(seed=7, n_train=120, n_dev=20, n_test=20))
        events = corpus_stats(result.corpus)["train"].events
        total = sum(events.values())
        assert abs(events["NoDisposition"] / total - 0.728) < 0.03
        assert abs(events["Disposition"] / total - 0.195) < 0.03
        assert abs(events["Undetermined"] / total - 0.077) < 0.03


class TestSeparability:
    def test_disposition_sentences_carry_their_cue_words(self, small_result):
        checked = 0
        for _, docs in small_result.corpus.splits():
            for doc in docs:
                sentences = split_sentences(doc.text, tokenize(doc.text))
                for m in doc.mentions:
                    if m.event is not EventLabel.DISPOSITION:
                        continue
                    sent = next(
                        s for s in sentences
                        if s.span.start <= m.span.start < s.span.end
                    )
                    words = set(sent.words)
                    for dim, (_, attr) in CONTEXT_DIMENSIONS.items():
                        cue = CUES[dim][getattr(m.context, attr).value]
                        assert cue in words
                    checked += 1
        assert checked > 10

    def test_lexicon_disjoint_from_cues(self):
        cues = set()
        for table in CUES.values():
            cues.update(table.values())
        assert not (set(default_lexicon(200)) & cues)


class TestNoisyMode:
    def test_noisy_mode_changes_surface_text(self):
        sep = gen_corpus(GeneratorSpec(seed=7, n_train=40, n_dev=5, n_test=5))
        noisy = gen_corpus(
            GeneratorSpec(seed=7, n_train=40, n_dev=5, n_test=5, noise_rate=0.5)
        )
        assert [d.text for d in sep.corpus.train] != [d.text for d in noisy.corpus.train]
        # labels keep satisfying all corpus invariants
        for d in noisy.corpus.train:
            d.validate()

    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_noise_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigError, match="noise_rate"):
            GeneratorSpec(noise_rate=rate)


@pytest.mark.parametrize("fields", [
    {"n_train": -1},
    {"mention_prob": 0.0},
    {"novel_form_rate": 1.5},
    {"min_sentences": 5, "max_sentences": 4},
])
def test_invalid_spec_raises_when_built(fields):
    with pytest.raises(ConfigError):
        GeneratorSpec(**fields)


class TestLexiconSize:
    @pytest.mark.parametrize("size", [0, -3, MAX_LEXICON_SIZE + 1, 500])
    def test_size_outside_name_pool_rejected(self, size):
        with pytest.raises(ConfigError, match="lexicon_size"):
            GeneratorSpec(lexicon_size=size)
        with pytest.raises(ConfigError, match="lexicon_size"):
            default_lexicon(size)

    def test_full_name_pool_accepted(self):
        GeneratorSpec(lexicon_size=MAX_LEXICON_SIZE)
        assert len(set(default_lexicon(MAX_LEXICON_SIZE))) == MAX_LEXICON_SIZE == 200


class TestDiskLayout:
    def test_written_layout_loads_back_equal(self, tmp_path, small_result):
        write_corpus_dir(small_result.corpus, tmp_path)
        again = load_corpus(tmp_path)
        for split in ("train", "dev", "test"):
            orig = small_result.corpus.split(split)
            back = again.split(split)
            assert [d.doc_id for d in back] == [d.doc_id for d in orig]
            assert [d.text for d in back] == [d.text for d in orig]
            assert [d.mentions for d in back] == [d.mentions for d in orig]
