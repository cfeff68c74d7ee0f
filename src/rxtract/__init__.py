"""Medication mention extraction with change-event and context classification."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    Corpus,
    EventLabel,
    MedicationMention,
    corpus_stats,
    load_corpus,
    parse_standoff,
    write_standoff,
)
from .encoder import EncoderConfig, TrainConfig  # noqa: F401
from .ner import NerModelBundle, predict_ner, train_ner  # noqa: F401
from .context import ClassifierBundle, train_task  # noqa: F401
from .pipeline import PipelineBundle, run_pipeline  # noqa: F401
from .synth import GeneratorSpec, gen_corpus  # noqa: F401
