"""Deterministic synthetic corpus generator.

Produces desk-scale clinical-flavored (entirely fictional) notes whose
mention spans and labels are known exactly: the corpus's own annotations.
Every label value is signalled by a cue word unique to it, so competent
models can approach perfect scores. At a positive `noise_rate` each
displayed event and each cue is swapped for a random one at that rate, to
blur the signal; a rate of 0 keeps the corpus separable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .corpus import (
    CONTEXT_DIMENSIONS,
    SPLIT_NAMES,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    Corpus,
    EventLabel,
    MedicationMention,
)
from .errors import ConfigError

# Class-distribution targets (training-split proportions of the challenge
# corpus this generator stands in for).
EVENT_TARGETS = {
    "NoDisposition": 0.728,
    "Disposition": 0.195,
    "Undetermined": 0.077,
}
# The same per context dimension, keyed as CONTEXT_DIMENSIONS.
DIMENSION_TARGETS: dict[str, dict[str, float]] = {
    "Action": {
        "Start": 0.402, "Stop": 0.241, "Increase": 0.091, "Decrease": 0.038,
        "UniqueDose": 0.202, "OtherChange": 0.001, "Unknown": 0.025,
    },
    "Negation": {"Negated": 0.023, "NotNegated": 0.977},
    "Temporality": {"Past": 0.527, "Present": 0.350, "Future": 0.103, "Unknown": 0.021},
    "Certainty": {"Certain": 0.833, "Hypothetical": 0.095, "Conditional": 0.071, "Unknown": 0.001},
    "Actor": {"Physician": 0.905, "Patient": 0.075, "Unknown": 0.020},
}

# The cue word that signals each class of each context dimension.
CUES: dict[str, dict[str, str]] = {
    "Action": {
        "Start": "started", "Stop": "stopped", "Increase": "increased",
        "Decrease": "decreased", "UniqueDose": "bolused", "OtherChange": "retimed",
        "Unknown": "adjusted",
    },
    "Negation": {"Negated": "never", "NotNegated": "duly"},
    "Temporality": {
        "Past": "yesterday", "Present": "today", "Future": "tomorrow", "Unknown": "someday",
    },
    "Certainty": {
        "Certain": "definitely", "Hypothetical": "hypothetically",
        "Conditional": "conditionally", "Unknown": "possibly",
    },
    "Actor": {"Physician": "clinician", "Patient": "patient", "Unknown": "caregiver"},
}

FILLER_SENTENCES = (
    "vitals remained stable overnight.",
    "labs are pending at this time.",
    "followup visit scheduled in two weeks.",
    "no acute distress noted on exam.",
    "diet and activity as tolerated.",
)

DOSES = ("5mg", "10mg", "20mg", "40mg", "125mg", "250mg", "2ml", "80units")

_NAME_PREFIXES = (
    "zal", "brev", "cor", "dex", "flum", "gri", "hald", "jor", "kel", "lum",
    "mir", "nov", "oxa", "pem", "quor", "ris", "sol", "torv", "vel", "wex",
)
_NAME_SUFFIXES = (
    "amab", "inib", "opril", "olol", "arin", "izole", "ivir", "omycin",
    "utide", "axine",
)
# Every third name of the grid wears this second word.
_MODIFIER = "forte"
_NAMES = tuple(
    f"{pre}{suf} {_MODIFIER}" if i % 3 == 2 else pre + suf
    for i, (suf, pre) in enumerate(product(_NAME_SUFFIXES, _NAME_PREFIXES))
)
MAX_LEXICON_SIZE = len(_NAMES)

# Dose-form words reserved for dev/test mentions (never in training data),
# so extraction faces genuinely novel mention boundaries.
NOVEL_MODIFIERS = ("retard", "sr", "hfa")


def default_lexicon(size: int) -> tuple[str, ...]:
    """The first `size` fictional drug names; every third gets a second
    word. `size` must lie in [1, MAX_LEXICON_SIZE]."""
    if not (1 <= size <= MAX_LEXICON_SIZE):
        raise ConfigError(f"lexicon_size must lie in [1, {MAX_LEXICON_SIZE}], got {size}")
    return _NAMES[:size]


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 7
    n_train: int = 200
    n_dev: int = 40
    n_test: int = 40
    lexicon_size: int = 40
    min_sentences: int = 4
    max_sentences: int = 8
    mention_prob: float = 0.7
    noise_rate: float = 0.0  # 0 is separable
    # fraction of dev/test mentions wearing a dose-form word unseen in training
    novel_form_rate: float = 0.0

    def __post_init__(self) -> None:
        if min(self.n_train, self.n_dev, self.n_test) < 0:
            raise ConfigError("split sizes must be non-negative")
        if not (0 < self.mention_prob <= 1):
            raise ConfigError("mention_prob must lie in (0, 1]")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ConfigError("noise_rate must lie in [0, 1]")
        if not (0.0 <= self.novel_form_rate <= 1.0):
            raise ConfigError("novel_form_rate must lie in [0, 1]")
        if not (1 <= self.min_sentences <= self.max_sentences):
            raise ConfigError("bad sentence count range")
        default_lexicon(self.lexicon_size)  # checks lexicon_size


@dataclass
class SynthResult:
    corpus: Corpus  # all there is: `perfbench/workloads.py` reads it from here


def _quota_labels(targets: dict[str, float], total: int, rng: random.Random) -> list[str]:
    """Allocate `total` labels by largest-remainder quotas, then shuffle."""
    norm = sum(targets.values())
    shares = {k: v / norm * total for k, v in targets.items()}
    counts = {k: int(shares[k]) for k in targets}
    leftover = total - sum(counts.values())
    by_remainder = sorted(targets, key=lambda k: (-(shares[k] - counts[k]), k))
    for k in by_remainder[:leftover]:
        counts[k] += 1
    labels = [k for k in targets for _ in range(counts[k])]
    rng.shuffle(labels)
    return labels


def _cue(dim: str, attrs: ContextAttributes, spec: GeneratorSpec, rng: random.Random) -> str:
    """The cue word of attrs' class in dim, or at noise_rate a random one."""
    table = CUES[dim]
    if spec.noise_rate > 0 and rng.random() < spec.noise_rate:
        return rng.choice(sorted(table.values()))
    return table[getattr(attrs, CONTEXT_DIMENSIONS[dim][1]).value]


# The cue-less sentence of each other event: (mention prefixes, ending).
_PLAIN_TEMPLATES = {
    EventLabel.NO_DISPOSITION: (("med list shows ", "home regimen keeps "),
                                "continues unchanged."),
    EventLabel.UNDETERMINED: (("note mentioned ", "chart reviewed regarding "),
                              "without clear plan."),
}


def _render_sentence(
    event: EventLabel,
    context: Optional[ContextAttributes],
    drug: str,
    spec: GeneratorSpec,
    rng: random.Random,
) -> tuple[str, int]:
    """Return (sentence text, offset of the drug mention within it)."""
    dose = rng.choice(DOSES)
    display = event
    if spec.noise_rate > 0 and rng.random() < spec.noise_rate:
        display = rng.choice(list(EventLabel))

    if display is EventLabel.DISPOSITION:
        attrs = context if context is not None else ContextAttributes()
        # Cues are drawn in sentence order, which fixes the rng stream.
        actor, neg, action, temp, cert = (
            _cue(dim, attrs, spec, rng)
            for dim in ("Actor", "Negation", "Action", "Temporality", "Certainty")
        )
        prefix = f"{actor} {neg} {action} "
        sentence = f"{prefix}{drug} {dose} {temp} {cert}."
    else:
        prefixes, ending = _PLAIN_TEMPLATES[display]
        prefix = rng.choice(prefixes)
        sentence = f"{prefix}{drug} {dose} {ending}"
    return sentence, len(prefix)


def gen_corpus(spec: GeneratorSpec) -> SynthResult:
    """Generate a corpus annotated with exactly what it emits; deterministic
    per seed. `corpus_stats` of the corpus gives its per-split counts."""
    rng = random.Random(spec.seed)
    lexicon = default_lexicon(spec.lexicon_size)

    corpus = Corpus()

    for split, n_docs in zip(SPLIT_NAMES, (spec.n_train, spec.n_dev, spec.n_test)):
        # Structure first: which sentences carry a mention.
        plans = []
        for _ in range(n_docs):
            n_sent = rng.randint(spec.min_sentences, spec.max_sentences)
            has_mention = [rng.random() < spec.mention_prob for _ in range(n_sent)]
            if not any(has_mention):
                has_mention[0] = True  # every note names at least one drug
            plans.append(has_mention)

        # Then the labels, handed out to the mentions in order.
        event_list = [
            EventLabel(v) for v in _quota_labels(EVENT_TARGETS, sum(map(sum, plans)), rng)
        ]
        n_disp = event_list.count(EventLabel.DISPOSITION)
        dim_labels = [
            [enum_cls(v) for v in _quota_labels(DIMENSION_TARGETS[dim], n_disp, rng)]
            for dim, (enum_cls, _) in CONTEXT_DIMENSIONS.items()
        ]
        attrs = [attr for _, attr in CONTEXT_DIMENSIONS.values()]
        events = iter(event_list)
        contexts = iter([ContextAttributes(**dict(zip(attrs, row))) for row in zip(*dim_labels)])

        docs = corpus.split(split)
        novel_forms = split != "train" and spec.novel_form_rate > 0
        for d, has_mention in enumerate(plans):
            doc_id = f"{split}{d:04d}"
            text = ""
            mentions: list[MedicationMention] = []
            for s, carries in enumerate(has_mention):
                if s:
                    text += "\n" if s % 4 == 0 else " "
                if carries:
                    event = next(events)
                    context = next(contexts) if event is EventLabel.DISPOSITION else None
                    drug = rng.choice(lexicon)
                    if novel_forms and " " not in drug and rng.random() < spec.novel_form_rate:
                        drug = f"{drug} {rng.choice(NOVEL_MODIFIERS)}"
                    sentence, drug_offset = _render_sentence(event, context, drug, spec, rng)
                    start = len(text) + drug_offset
                    span = CharSpan(start, start + len(drug))
                    mentions.append(
                        MedicationMention(span=span, surface=drug, event=event, context=context)
                    )
                else:
                    sentence = rng.choice(FILLER_SENTENCES)
                text += sentence
            doc = AnnotatedDocument(doc_id=doc_id, text=text, mentions=mentions)
            doc.validate()
            docs.append(doc)

    return SynthResult(corpus=corpus)
