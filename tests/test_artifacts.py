"""Model persistence: manifest+blob round trips, corruption, versioning."""

import re

import numpy as np
import pytest

from rxtract.artifacts import BLOB, MANIFEST, load_artifact, save_artifact
from rxtract.context import TASKS, ClassifierBundle, train_task
from rxtract.encoder import EncoderConfig, TrainConfig
from rxtract.errors import CompatibilityError, CorruptionError
from rxtract.ner import predict_ner, train_ner
from rxtract.pipeline import PipelineBundle, run_pipeline
from rxtract.preproc import build_vocab
from rxtract.synth import GeneratorSpec, gen_corpus

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=64,
                    vocab_size=64, dropout_rate=0.1, seed=0)
TC = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, seed=0)


@pytest.fixture(scope="module")
def tiny_setup():
    result = gen_corpus(GeneratorSpec(seed=11, n_train=8, n_dev=2, n_test=2))
    vocab = build_vocab([d.text for d in result.corpus.train], 512)
    return result, vocab


@pytest.fixture(scope="module")
def ner_bundle(tiny_setup):
    result, vocab = tiny_setup
    return train_ner(result.corpus, ENC, TC, vocab=vocab)


class TestNerArtifact:
    def test_round_trip_preserves_predictions(self, tmp_path, ner_bundle, tiny_setup):
        result, _ = tiny_setup
        save_artifact(ner_bundle, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        for doc in result.corpus.test + result.corpus.train:
            assert predict_ner(loaded, doc.text) == predict_ner(ner_bundle, doc.text)

    def test_round_trip_preserves_parameters_bitwise(self, tmp_path, ner_bundle):
        save_artifact(ner_bundle, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        assert loaded.model.params.keys() == ner_bundle.model.params.keys()
        for k in loaded.model.params:
            assert np.array_equal(loaded.model.params[k], ner_bundle.model.params[k])
        assert loaded.vocab.pieces == ner_bundle.vocab.pieces
        assert loaded.history == ner_bundle.history
        assert loaded.train_config == ner_bundle.train_config

    def test_save_twice_byte_identical(self, tmp_path, ner_bundle):
        save_artifact(ner_bundle, tmp_path / "a")
        save_artifact(ner_bundle, tmp_path / "b")
        assert (tmp_path / "a" / MANIFEST).read_bytes() == (tmp_path / "b" / MANIFEST).read_bytes()
        assert (tmp_path / "a" / BLOB).read_bytes() == (tmp_path / "b" / BLOB).read_bytes()

    def test_truncated_blob_is_corruption(self, tmp_path, ner_bundle):
        save_artifact(ner_bundle, tmp_path / "m")
        blob = (tmp_path / "m" / BLOB).read_bytes()
        (tmp_path / "m" / BLOB).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptionError):
            load_artifact(tmp_path / "m")

    def test_flipped_byte_is_corruption(self, tmp_path, ner_bundle):
        save_artifact(ner_bundle, tmp_path / "m")
        blob = bytearray((tmp_path / "m" / BLOB).read_bytes())
        blob[7] ^= 0xFF
        (tmp_path / "m" / BLOB).write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            load_artifact(tmp_path / "m")

    def test_bumped_version_is_compatibility_error(self, tmp_path, ner_bundle):
        save_artifact(ner_bundle, tmp_path / "m")
        manifest = (tmp_path / "m" / MANIFEST).read_text(encoding="utf-8")
        (tmp_path / "m" / MANIFEST).write_text(
            manifest.replace("format_version=1", "format_version=2", 1),
            encoding="utf-8",
        )
        with pytest.raises(CompatibilityError):
            load_artifact(tmp_path / "m")

    def test_missing_manifest_is_corruption(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CorruptionError):
            load_artifact(tmp_path / "empty")


class TestClassifierArtifact:
    def test_single_task_round_trip(self, tmp_path, tiny_setup):
        result, vocab = tiny_setup
        tm = train_task(result.corpus, TASKS["Event"], ENC, TC, vocab)
        bundle = ClassifierBundle(tasks={"Event": tm}, vocab=vocab)
        save_artifact(bundle, tmp_path / "ev")
        loaded = load_artifact(tmp_path / "ev")
        assert isinstance(loaded, ClassifierBundle)
        assert set(loaded.tasks) == {"Event"}
        for k in tm.model.params:
            assert np.array_equal(loaded.tasks["Event"].model.params[k], tm.model.params[k])
        assert loaded.tasks["Event"].model.task_classes == {"Event": 3}


@pytest.fixture(scope="module")
def event_bundle(tiny_setup):
    result, vocab = tiny_setup
    tm = train_task(result.corpus, TASKS["Event"], ENC, TC, vocab)
    return ClassifierBundle(tasks={"Event": tm}, vocab=vocab)


def _edit_manifest(path, pattern, replacement):
    manifest = path / MANIFEST
    text = manifest.read_text(encoding="utf-8")
    edited, n = re.subn(pattern, replacement, text, count=1, flags=re.M)
    assert n == 1, pattern
    manifest.write_text(edited, encoding="utf-8")


class TestMalformedManifest:
    """Every parse failure in a saved classifier's manifest, and every config
    that disagrees with its tensors or vocabulary, is corruption."""

    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            (r"^(tensor_0=\S+) \d+x(\d+)$", r"\1 zzx\2"),
            (r"^config\.layers=.*$", "config.layers=abc"),
            (r"^vocab_size=.*$", "vocab_size=x"),
            (r"^config\.layers=.*\n", ""),
            (r"^config\.heads=.*$", "config.heads=3"),
            (r"^config\.hidden_dim=.*$", "config.hidden_dim=32"),
            (r"^config\.max_len=.*$", "config.max_len=4"),
            (r"^config\.vocab_size=.*$", "config.vocab_size=7"),
        ],
        ids=["tensor_shape", "config_value", "vocab_size", "missing_config_key",
             "heads_not_dividing_hidden", "hidden_dim_vs_tensors", "max_len_below_floor",
             "config_vocab_size_vs_vocab"],
    )
    def test_parse_failure_is_corruption(self, tmp_path, event_bundle, pattern, replacement):
        save_artifact(event_bundle, tmp_path / "ev")
        _edit_manifest(tmp_path / "ev", pattern, replacement)
        with pytest.raises(CorruptionError):
            load_artifact(tmp_path / "ev")


class TestPipelineArtifact:
    def test_round_trip_preserves_end_to_end_outputs(self, tmp_path, tiny_setup, ner_bundle):
        import warnings

        result, vocab = tiny_setup
        tasks = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, task in TASKS.items():
                tasks[name] = train_task(result.corpus, task, ENC, TC, vocab)
        bundle = PipelineBundle(
            ner=ner_bundle, classifiers=ClassifierBundle(tasks=tasks, vocab=vocab)
        )
        bundle.validate()
        save_artifact(bundle, tmp_path / "p")
        loaded = load_artifact(tmp_path / "p")
        assert isinstance(loaded, PipelineBundle)
        for doc in result.corpus.test:
            assert (
                run_pipeline(loaded, doc.text, doc.doc_id).mentions
                == run_pipeline(bundle, doc.text, doc.doc_id).mentions
            )
