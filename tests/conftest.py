"""Fixtures shared across test modules."""

import warnings

import pytest

from rxtract.context import train_all_tasks
from rxtract.encoder import EncoderConfig, TrainConfig
from rxtract.ner import train_ner
from rxtract.pipeline import PipelineBundle
from rxtract.preproc import build_vocab
from rxtract.synth import GeneratorSpec, gen_corpus

TINY_SPEC = GeneratorSpec(seed=11, n_train=60, n_dev=10, n_test=16,
                          novel_form_rate=0.05)
TINY_ENC = EncoderConfig(layers=1, hidden_dim=32, heads=2, ffn_dim=64,
                         max_len=64, dropout_rate=0.1, seed=0)
TINY_TC = TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=6,
                      patience=6, seed=0)


@pytest.fixture(scope="session")
def tiny():
    """A tiny pipeline trained in about a second, with its corpus."""
    corpus = gen_corpus(TINY_SPEC).corpus
    vocab = build_vocab([d.text for d in corpus.train], 512)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ner_bundle = train_ner(corpus, TINY_ENC, TINY_TC, vocab=vocab)
        classifiers = train_all_tasks(corpus, TINY_ENC, TINY_TC, vocab)
    return corpus, PipelineBundle(ner=ner_bundle, classifiers=classifiers)
