"""Model persistence: manifest+blob round trips, corruption, versioning."""

import re
import shutil

import numpy as np
import pytest

from rxtract.artifacts import BLOB, MANIFEST, load_artifact, save_artifact
from rxtract.context import (
    TASKS,
    ClassifierBundle,
    collect_task_examples,
    predict_events,
    train_task,
)
from rxtract.encoder import EncoderConfig, TrainConfig, head_widths
from rxtract.errors import CompatibilityError, CorruptionError
from rxtract.ner import predict_ner, train_ner
from rxtract.pipeline import PipelineBundle, run_pipeline
from rxtract.preproc import build_vocab
from rxtract.synth import GeneratorSpec, gen_corpus

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=64,
                    dropout_rate=0.1, seed=0)
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

    def test_save_twice_byte_identical(self, tmp_path, ner_bundle, tiny):
        """An extraction model and a pipeline each save the same files
        twice, and saving what was loaded from them writes them again."""
        # a pipeline's manifest, and a manifest and a blob for each of its seven models
        for kind, bundle, files in (("ner", ner_bundle, 2), ("pipeline", tiny[1], 15)):
            save_artifact(bundle, tmp_path / kind / "a")
            save_artifact(bundle, tmp_path / kind / "b")
            save_artifact(load_artifact(tmp_path / kind / "a"), tmp_path / kind / "c")
            a, b, c = (_tree_bytes(tmp_path / kind / copy) for copy in "abc")
            assert len(a) == files and a == b == c, kind

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

    def test_vocabulary_size_recorded_once(self, tmp_path, ner_bundle, tiny_setup):
        result, vocab = tiny_setup
        save_artifact(ner_bundle, tmp_path / "m")
        keys = [line.split("=", 1)[0]
                for line in (tmp_path / "m" / MANIFEST).read_text(encoding="utf-8").splitlines()]
        assert keys.count("vocab_size") == 1 and "config.vocab_size" not in keys
        assert "train.beta1" not in keys and "train.beta2" not in keys
        # a manifest that still carries the config copy, or the Adam moment
        # coefficients that were train settings once, loads as before
        _edit_manifest(tmp_path / "m", r"^(config\.max_len=.*)$",
                       rf"\1\nconfig.vocab_size={len(vocab)}")
        _edit_manifest(tmp_path / "m", r"^(train\.patience=.*)$",
                       r"\1\ntrain.beta1=0.9\ntrain.beta2=0.999")
        loaded = load_artifact(tmp_path / "m")
        assert np.array_equal(loaded.model.params.flat, ner_bundle.model.params.flat)
        for doc in result.corpus.test + result.corpus.train:
            assert predict_ner(loaded, doc.text) == predict_ner(ner_bundle, doc.text)

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
        params = loaded.tasks["Event"].model.params
        assert head_widths((name, w.shape) for name, w in params.items()) == {"Event": 3}

    def test_manifest_with_task_classes_line_loads(self, tmp_path, event_bundle, tiny_setup):
        """Head widths come from the tensor index; an older manifest's
        `task_classes=` line is ignored."""
        result, vocab = tiny_setup
        save_artifact(event_bundle, tmp_path / "ev")
        manifest = (tmp_path / "ev" / MANIFEST).read_text(encoding="utf-8")
        assert not re.search(r"^task_classes=", manifest, flags=re.M)
        _edit_manifest(tmp_path / "ev", r"^(history=.*)$", r"\1\ntask_classes=Event:3")
        loaded = load_artifact(tmp_path / "ev")
        examples = collect_task_examples(result.corpus.dev + result.corpus.test,
                                         TASKS["Event"], vocab, ENC.max_len)
        assert examples
        assert predict_events(loaded, examples) == predict_events(event_bundle, examples)

    def test_multi_task_bundle_is_refused(self, tmp_path, tiny):
        _, pipeline = tiny
        with pytest.raises(TypeError):
            save_artifact(pipeline.classifiers, tmp_path / "set")
        assert not (tmp_path / "set").exists()


@pytest.fixture(scope="module")
def event_bundle(tiny_setup):
    result, vocab = tiny_setup
    tm = train_task(result.corpus, TASKS["Event"], ENC, TC, vocab)
    return ClassifierBundle(tasks={"Event": tm}, vocab=vocab)


def _tree_bytes(path):
    """Every file under `path`, by relative path, with its bytes."""
    return {f.relative_to(path).as_posix(): f.read_bytes()
            for f in sorted(path.rglob("*")) if f.is_file()}


def _head_renamed(task, other):
    """The `_edit_manifest` pattern and replacement that give `task`'s head
    tensors `other`'s name; the checksum covers only the blob."""
    return (rf"^(tensor_\d+=seq_head\.){task}(\.w .*\ntensor_\d+=seq_head\.){task}\.b ",
            rf"\1{other}\2{other}.b ")


def _edit_manifest(path, pattern, replacement):
    manifest = path / MANIFEST
    text = manifest.read_text(encoding="utf-8")
    edited, n = re.subn(pattern, replacement, text, count=1, flags=re.M)
    assert n == 1, pattern
    manifest.write_text(edited, encoding="utf-8")


class TestMalformedManifest:
    """Every parse failure in a saved classifier's manifest, every config
    or vocabulary size that disagrees with its tensors, a config no model
    could have and a head of another task than the classifier's are corruption."""

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
            (r"^vocab_size=.*$", "vocab_size=7"),
            (r"^tensor_0=(.*)\ntensor_1=(.*)$", r"tensor_0=\2\ntensor_1=\1"),
            (r"^(tensor_\d+=seq_head\.Event\.b) 3$", r"\1 4"),
            (r"^config\.seed=.*$", "config.seed=-1"),
            _head_renamed("Event", "Actor"),
        ],
        ids=["tensor_shape", "config_value", "vocab_size", "missing_config_key",
             "heads_not_dividing_hidden", "hidden_dim_vs_tensors", "max_len_below_floor",
             "config_vocab_size_vs_vocab", "tensors_reordered", "head_bias_vs_weight",
             "negative_seed", "head_of_another_task"],
    )
    def test_parse_failure_is_corruption(self, tmp_path, event_bundle, pattern, replacement):
        save_artifact(event_bundle, tmp_path / "ev")
        _edit_manifest(tmp_path / "ev", pattern, replacement)
        with pytest.raises(CorruptionError):
            load_artifact(tmp_path / "ev")


def test_classifier_of_no_task_is_corruption(tmp_path, event_bundle):
    save_artifact(event_bundle, tmp_path / "ev")
    _edit_manifest(tmp_path / "ev", r"^task=Event$", "task=Dosage")
    _edit_manifest(tmp_path / "ev", *_head_renamed("Event", "Dosage"))
    with pytest.raises(CorruptionError, match="classifier artifact is invalid: "
                                              "classifier 'Dosage' is not one of the tasks"):
        load_artifact(tmp_path / "ev")


def test_huge_layer_count_is_corruption(tmp_path, event_bundle):
    """Refused before a layout of that many layers is built."""
    save_artifact(event_bundle, tmp_path / "ev")
    _edit_manifest(tmp_path / "ev", r"^config\.layers=.*$", "config.layers=" + "9" * 30)
    with pytest.raises(CorruptionError, match="config.layers"):
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
        save_artifact(bundle, tmp_path / "p")
        loaded = load_artifact(tmp_path / "p")
        assert isinstance(loaded, PipelineBundle)
        for doc in result.corpus.test:
            assert (
                run_pipeline(loaded, doc.text, doc.doc_id).mentions
                == run_pipeline(bundle, doc.text, doc.doc_id).mentions
            )


class TestMalformedPipeline:
    """A pipeline directory that omits, mislabels or mismatches a component
    is corruption."""

    def test_omitted_classifier(self, tmp_path, tiny):
        save_artifact(tiny[1], tmp_path / "p")
        _edit_manifest(tmp_path / "p", r"^(components=.*) Actor(.*)$", r"\1\2")
        with pytest.raises(CorruptionError, match="missing components: Actor"):
            load_artifact(tmp_path / "p")

    def test_component_of_wrong_kind(self, tmp_path, tiny):
        save_artifact(tiny[1], tmp_path / "p")
        shutil.rmtree(tmp_path / "p" / "task_Event")
        shutil.copytree(tmp_path / "p" / "ner", tmp_path / "p" / "task_Event")
        with pytest.raises(CorruptionError, match="Event has wrong kind"):
            load_artifact(tmp_path / "p")

    def test_classifier_head_of_another_task(self, tmp_path, tiny):
        save_artifact(tiny[1], tmp_path / "p")
        _edit_manifest(tmp_path / "p" / "task_Actor", *_head_renamed("Actor", "Event"))
        with pytest.raises(CorruptionError, match="classifier Actor has no head for task"):
            load_artifact(tmp_path / "p")

    @pytest.mark.parametrize("component", ["ner", "task_Actor"])
    def test_vocabulary_disagreement(self, tmp_path, tiny, component):
        save_artifact(tiny[1], tmp_path / "p")
        _edit_manifest(tmp_path / "p" / component, r"^piece_6=.*$", 'piece_6="qqqq"')
        with pytest.raises(CorruptionError, match="vocabulary"):
            load_artifact(tmp_path / "p")
