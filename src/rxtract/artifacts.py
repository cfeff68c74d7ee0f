"""Model persistence: a text manifest plus one little-endian binary blob.

An artifact is a directory holding `manifest.txt` (key=value lines: format
version, configs, tensor name/shape index, checksum) and `params.bin` (the
tensors' IEEE-754 bytes concatenated in manifest order). Composite bundles
(pipeline, classifier sets) are directories of such artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .context import ClassifierBundle, TaskModel
from .encoder import EncoderConfig, EncoderModel, TrainConfig, param_shapes
from .errors import CompatibilityError, ConfigError, CorruptionError
from .ner import NerModelBundle
from .pipeline import PipelineBundle
from .preproc import NUM_SPECIALS, SPECIAL_PIECES, Vocabulary

FORMAT_VERSION = 1
MANIFEST = "manifest.txt"
BLOB = "params.bin"

AnyBundle = Union[NerModelBundle, ClassifierBundle, PipelineBundle]


def _dump_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _config_lines(prefix: str, cfg) -> list[str]:
    return [
        f"{prefix}.{f.name}={_dump_value(getattr(cfg, f.name))}"
        for f in dataclasses.fields(cfg)
    ]


@contextmanager
def _manifest_value(key: str) -> Iterator[None]:
    """Report a missing or unparseable manifest value as corruption."""
    try:
        yield
    except KeyError:
        raise CorruptionError(f"manifest missing {key}") from None
    except ValueError:
        raise CorruptionError(f"manifest {key} is malformed") from None


# Field types are flat ints and floats; resolve by the default values.
def _parse_dataclass(cls, entries: dict[str, str], prefix: str):
    kwargs = {}
    probe = cls()
    for f in dataclasses.fields(cls):
        key = f"{prefix}.{f.name}"
        with _manifest_value(key):
            kwargs[f.name] = type(getattr(probe, f.name))(entries[key])
    return cls(**kwargs)


def _write_model_dir(
    path: Path,
    kind: str,
    model: EncoderModel,
    vocab: Vocabulary,
    train_cfg: TrainConfig,
    history: list[float],
    task: Optional[str] = None,
) -> None:
    path.mkdir(parents=True, exist_ok=True)
    lines = [f"format_version={FORMAT_VERSION}", f"kind={kind}"]
    if task is not None:
        lines.append(f"task={task}")
    lines.extend(_config_lines("config", model.config))
    lines.extend(_config_lines("train", train_cfg))
    lines.append("history=" + " ".join(repr(h) for h in history))
    lines.append(
        "task_classes="
        + " ".join(f"{k}:{v}" for k, v in sorted(model.task_classes.items()))
    )
    lines.append(f"vocab_size={len(vocab)}")
    for i, piece in enumerate(vocab.pieces):
        if i >= NUM_SPECIALS:
            lines.append(f"piece_{i}={json.dumps(piece)}")

    wire_dtype = np.dtype("<f4" if model.config.precision == 32 else "<f8")
    blob_parts = []
    for idx, (name, tensor) in enumerate(model.params.items()):
        shape = "x".join(str(d) for d in tensor.shape)
        lines.append(f"tensor_{idx}={name} {shape}")
        blob_parts.append(np.ascontiguousarray(tensor, dtype=wire_dtype).tobytes())
    blob = b"".join(blob_parts)
    lines.append(f"checksum={hashlib.sha256(blob).hexdigest()}")

    (path / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path / BLOB).write_bytes(blob)


def _read_manifest(path: Path) -> tuple[dict[str, str], list[tuple[str, str]]]:
    manifest_path = path / MANIFEST
    if not manifest_path.is_file():
        raise CorruptionError(f"no manifest at {manifest_path}")
    entries: dict[str, str] = {}
    ordered: list[tuple[str, str]] = []
    for line in manifest_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptionError(f"malformed manifest line {line!r}")
        key, value = line.split("=", 1)
        entries[key] = value
        ordered.append((key, value))
    version = entries.get("format_version")
    if version != str(FORMAT_VERSION):
        raise CompatibilityError(
            f"artifact format version {version!r} (supported: {FORMAT_VERSION})"
        )
    return entries, ordered


def _read_model_dir(path: Path) -> tuple[EncoderModel, Vocabulary, TrainConfig, list[float], dict[str, str]]:
    entries, ordered = _read_manifest(path)
    cfg = _parse_dataclass(EncoderConfig, entries, "config")
    train_cfg = _parse_dataclass(TrainConfig, entries, "train")
    with _manifest_value("history"):
        history = [float(x) for x in entries.get("history", "").split()]
    task_classes = {}
    with _manifest_value("task_classes"):
        for item in entries.get("task_classes", "").split():
            name, count = item.rsplit(":", 1)
            task_classes[name] = int(count)

    with _manifest_value("vocab_size"):
        vocab_size = int(entries["vocab_size"])
    pieces = []
    for i in range(NUM_SPECIALS, vocab_size):
        key = f"piece_{i}"
        with _manifest_value(key):
            piece = json.loads(entries[key])
            if not isinstance(piece, str):
                raise ValueError(key)
        pieces.append(piece)
    vocab = Vocabulary.from_pieces(pieces)
    if vocab.pieces[:NUM_SPECIALS] != SPECIAL_PIECES:
        raise CorruptionError("special pieces corrupted")
    if cfg.vocab_size != len(vocab):
        raise CorruptionError(
            f"config.vocab_size {cfg.vocab_size} disagrees with the {len(vocab)}-piece vocabulary"
        )

    tensors: list[tuple[str, tuple[int, ...]]] = []
    for key, spec in ordered:
        if key.startswith("tensor_"):
            with _manifest_value(key):
                name, shape_str = spec.rsplit(" ", 1)
                shape = tuple(int(d) for d in shape_str.split("x"))
                if min(shape) < 0:
                    raise ValueError(shape)
            tensors.append((name, shape))
    try:
        expected = param_shapes(cfg, task_classes)
    except ConfigError as exc:
        raise CorruptionError(f"manifest config is invalid: {exc}") from None
    declared = dict(tensors)
    for name in sorted(expected.keys() | declared.keys()):
        want, got = expected.get(name, "no tensor"), declared.get(name, "no tensor")
        if want != got:
            raise CorruptionError(
                f"tensor {name}: manifest declares {got}, config implies {want}"
            )

    blob_path = path / BLOB
    if not blob_path.is_file():
        raise CorruptionError(f"no parameter blob at {blob_path}")
    blob = blob_path.read_bytes()
    if entries.get("checksum") != hashlib.sha256(blob).hexdigest():
        raise CorruptionError("parameter blob failed its checksum")

    dtype = np.dtype("<f4" if cfg.precision == 32 else "<f8")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in tensors:
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(blob):
            raise CorruptionError("parameter blob shorter than manifest declares")
        params[name] = (
            np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .astype(cfg.dtype, copy=True)
        )
        offset += nbytes
    if offset != len(blob):
        raise CorruptionError("parameter blob longer than manifest declares")

    model = EncoderModel(config=cfg, params=params, task_classes=task_classes)
    return model, vocab, train_cfg, history, entries


def save_artifact(bundle: AnyBundle, path: str | Path) -> None:
    """Persist a bundle; the layout depends on the bundle type."""
    path = Path(path)
    if isinstance(bundle, NerModelBundle):
        _write_model_dir(
            path, "ner", bundle.model, bundle.vocab, bundle.train_config, bundle.history
        )
    elif isinstance(bundle, ClassifierBundle):
        if len(bundle.tasks) == 1:
            name, tm = next(iter(bundle.tasks.items()))
            _write_model_dir(
                path, "classifier", tm.model, bundle.vocab, tm.train_config,
                tm.history, task=name,
            )
        else:
            path.mkdir(parents=True, exist_ok=True)
            names = sorted(bundle.tasks)
            lines = [
                f"format_version={FORMAT_VERSION}",
                "kind=classifier_set",
                "components=" + " ".join(names),
            ]
            (path / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
            for name in names:
                tm = bundle.tasks[name]
                _write_model_dir(
                    path / f"task_{name}", "classifier", tm.model, bundle.vocab,
                    tm.train_config, tm.history, task=name,
                )
    elif isinstance(bundle, PipelineBundle):
        path.mkdir(parents=True, exist_ok=True)
        names = sorted(bundle.classifiers.tasks)
        lines = [
            f"format_version={FORMAT_VERSION}",
            "kind=pipeline",
            "components=ner " + " ".join(names),
        ]
        (path / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_model_dir(
            path / "ner", "ner", bundle.ner.model, bundle.ner.vocab,
            bundle.ner.train_config, bundle.ner.history,
        )
        for name in names:
            tm = bundle.classifiers.tasks[name]
            _write_model_dir(
                path / f"task_{name}", "classifier", tm.model,
                bundle.classifiers.vocab, tm.train_config, tm.history, task=name,
            )
    else:
        raise TypeError(f"cannot save bundle of type {type(bundle).__name__}")


def load_artifact(path: str | Path) -> AnyBundle:
    """Load any artifact; the manifest's kind field selects the bundle type."""
    path = Path(path)
    entries, _ = _read_manifest(path)
    kind = entries.get("kind")

    if kind == "ner":
        model, vocab, train_cfg, history, _ = _read_model_dir(path)
        return NerModelBundle(model=model, vocab=vocab, train_config=train_cfg,
                              history=history)
    if kind == "classifier":
        model, vocab, train_cfg, history, meta = _read_model_dir(path)
        task = meta.get("task")
        if not task:
            raise CorruptionError("classifier artifact lacks a task name")
        return ClassifierBundle(
            tasks={task: TaskModel(model=model, train_config=train_cfg, history=history)},
            vocab=vocab,
        )
    if kind in ("classifier_set", "pipeline"):
        names = entries.get("components", "").split()
        tasks: dict[str, TaskModel] = {}
        vocab = None
        ner_bundle = None
        for name in names:
            if name == "ner":
                sub = load_artifact(path / "ner")
                if not isinstance(sub, NerModelBundle):
                    raise CorruptionError("pipeline ner component has wrong kind")
                ner_bundle = sub
                continue
            sub = load_artifact(path / f"task_{name}")
            if not isinstance(sub, ClassifierBundle) or name not in sub.tasks:
                raise CorruptionError(f"component {name} has wrong kind")
            tasks[name] = sub.tasks[name]
            if vocab is None:
                vocab = sub.vocab
            elif vocab.pieces != sub.vocab.pieces:
                raise CorruptionError("pipeline components disagree on vocabulary")
        if kind == "classifier_set":
            return ClassifierBundle(tasks=tasks, vocab=vocab)
        if ner_bundle is None or vocab is None:
            raise CorruptionError("pipeline artifact missing components")
        if ner_bundle.vocab.pieces != vocab.pieces:
            raise CorruptionError("pipeline components disagree on vocabulary")
        bundle = PipelineBundle(
            ner=ner_bundle, classifiers=ClassifierBundle(tasks=tasks, vocab=vocab)
        )
        bundle.validate()
        return bundle
    raise CorruptionError(f"unknown artifact kind {kind!r}")
