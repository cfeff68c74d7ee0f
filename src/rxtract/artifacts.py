"""Model persistence: a text manifest plus one little-endian binary blob.

An artifact is a directory holding `manifest.txt` (key=value lines: format
version, configs, vocabulary, tensor name/shape index, checksum) and
`params.bin` (the tensors' IEEE-754 bytes concatenated in manifest order,
which is the model's one parameter buffer in wire dtype); its `kind` is `ner`
or `classifier` (one `task`). A `pipeline` artifact is a manifest naming its
components plus one such directory each, whose `kind` and `task` match it.

The vocabulary size is recorded once, as `vocab_size`, and each sequence
head's class count only in its `seq_head.<task>.w` tensor shape; the other
shapes are checked against them. Keys the reader does not use are ignored,
so a manifest that still carries a `config.vocab_size`, `task_classes`,
`train.beta1` or `train.beta2` line loads unchanged. A config no model could
have, or a classifier head of another task than its own, is corruption.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .context import ClassifierBundle, TaskModel
from .corpus import read_utf8
from .encoder import EncoderConfig, EncoderModel, FlatParams, TrainConfig
from .encoder import head_widths, param_shapes
from .errors import CompatibilityError, ConfigError, CorruptionError
from .ner import NerModelBundle
from .pipeline import PipelineBundle
from .preproc import NUM_SPECIALS, Vocabulary

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


def _wire_dtype(cfg: EncoderConfig) -> np.dtype:
    """The little-endian dtype of a model's tensors in `params.bin`."""
    return cfg.dtype.newbyteorder("<")


def _component_dir(path: Path, name: str) -> Path:
    """The directory of a pipeline artifact's component `name`: "ner" or a task."""
    return path / ("ner" if name == "ner" else f"task_{name}")


def _write_model_dir(path: Path, trained: NerModelBundle | TaskModel, vocab: Vocabulary,
                     task: Optional[str] = None) -> None:
    """Save `trained`'s model, train config and history with `vocab`, as the
    extraction model or, given a task, that task's classifier."""
    model = trained.model
    path.mkdir(parents=True, exist_ok=True)
    lines = [f"format_version={FORMAT_VERSION}"]
    lines += ["kind=ner"] if task is None else ["kind=classifier", f"task={task}"]
    lines.extend(_config_lines("config", model.config))
    lines.extend(_config_lines("train", trained.train_config))
    lines.append("history=" + " ".join(repr(h) for h in trained.history))
    lines.append(f"vocab_size={len(vocab)}")
    for i, piece in enumerate(vocab.pieces):
        if i >= NUM_SPECIALS:
            lines.append(f"piece_{i}={json.dumps(piece)}")

    for idx, (name, shape) in enumerate(model.params.layout):
        lines.append(f"tensor_{idx}={name} {'x'.join(str(d) for d in shape)}")
    blob = model.params.flat.astype(_wire_dtype(model.config), copy=False).tobytes()
    lines.append(f"checksum={hashlib.sha256(blob).hexdigest()}")

    (path / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path / BLOB).write_bytes(blob)


def _read_manifest(path: Path) -> tuple[dict[str, str], list[tuple[str, str]]]:
    manifest_path = path / MANIFEST
    if not manifest_path.is_file():
        raise CorruptionError(f"no manifest at {manifest_path}")
    entries: dict[str, str] = {}
    ordered: list[tuple[str, str]] = []
    for line in read_utf8(manifest_path, CorruptionError).splitlines():
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


def _read_model_dir(
    path: Path, entries: dict[str, str], ordered: list[tuple[str, str]]
) -> tuple[TaskModel, Vocabulary]:
    """The model record and vocabulary in `path`, given its parsed manifest."""
    cfg = _parse_dataclass(EncoderConfig, entries, "config")
    train_cfg = _parse_dataclass(TrainConfig, entries, "train")
    with _manifest_value("history"):
        history = [float(x) for x in entries.get("history", "").split()]
    with _manifest_value("vocab_size"):
        vocab_size = int(entries["vocab_size"])
    key_of: dict[str, str] = {}  # each piece's manifest key, in id order
    for i in range(NUM_SPECIALS, vocab_size):
        key = f"piece_{i}"
        with _manifest_value(key):
            piece = json.loads(entries[key])
            if not isinstance(piece, str):
                raise ValueError(key)
        if piece in key_of:
            raise CorruptionError(f"manifest {key_of[piece]} and {key} are the same piece")
        key_of[piece] = key
    vocab = Vocabulary.from_pieces(list(key_of))

    tensors: list[tuple[str, tuple[int, ...]]] = []
    for key, spec in ordered:
        if key.startswith("tensor_"):
            with _manifest_value(key):
                name, shape_str = spec.rsplit(" ", 1)
                shape = tuple(int(d) for d in shape_str.split("x"))
                if min(shape) < 0:
                    raise ValueError(shape)
            tensors.append((name, shape))
    if cfg.layers > len(tensors):  # every layer declares tensors: bound the layout first
        raise CorruptionError(f"config.layers {cfg.layers} exceeds the "
                              f"{len(tensors)} tensors the manifest declares")
    expected = param_shapes(cfg, len(vocab), head_widths(tensors))
    declared = dict(tensors)
    for name in sorted(expected.keys() | declared.keys()):
        want, got = expected.get(name, "no tensor"), declared.get(name, "no tensor")
        if want != got:
            raise CorruptionError(
                f"tensor {name}: manifest declares {got}, config implies {want}"
            )
    if tensors != list(expected.items()):
        raise CorruptionError("manifest lists the tensors out of order or twice")

    blob_path = path / BLOB
    if not blob_path.is_file():
        raise CorruptionError(f"no parameter blob at {blob_path}")
    blob = blob_path.read_bytes()
    if entries.get("checksum") != hashlib.sha256(blob).hexdigest():
        raise CorruptionError("parameter blob failed its checksum")

    dtype = _wire_dtype(cfg)
    nbytes = sum(math.prod(shape) for _, shape in tensors) * dtype.itemsize
    if len(blob) < nbytes:
        raise CorruptionError("parameter blob shorter than manifest declares")
    if len(blob) > nbytes:
        raise CorruptionError("parameter blob longer than manifest declares")
    flat = np.frombuffer(blob, dtype=dtype).astype(cfg.dtype)
    model = EncoderModel(config=cfg, params=FlatParams(flat, tensors))
    return TaskModel(model=model, train_config=train_cfg, history=history), vocab


def save_artifact(bundle: AnyBundle, path: str | Path) -> None:
    """Persist a bundle: an extraction model or a one-task classifier as a
    model directory, a pipeline as a directory of those."""
    path = Path(path)
    if isinstance(bundle, NerModelBundle):
        _write_model_dir(path, bundle, bundle.vocab)
    elif isinstance(bundle, ClassifierBundle) and len(bundle.tasks) == 1:
        name, tm = next(iter(bundle.tasks.items()))
        _write_model_dir(path, tm, bundle.vocab, name)
    elif isinstance(bundle, PipelineBundle):
        path.mkdir(parents=True, exist_ok=True)
        names = sorted(bundle.classifiers.tasks)
        lines = [
            f"format_version={FORMAT_VERSION}",
            "kind=pipeline",
            "components=ner " + " ".join(names),
        ]
        (path / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_model_dir(_component_dir(path, "ner"), bundle.ner, bundle.ner.vocab)
        for name in names:
            _write_model_dir(_component_dir(path, name), bundle.classifiers.tasks[name],
                             bundle.classifiers.vocab, name)
    else:
        raise TypeError(f"cannot save bundle of type {type(bundle).__name__}")


def load_artifact(path: str | Path) -> AnyBundle:
    """Load any artifact; the manifest's kind field selects the bundle type.
    A manifest whose values no bundle could be built from is corruption."""
    path = Path(path)
    entries, ordered = _read_manifest(path)
    kind = entries.get("kind")
    try:
        if kind == "ner":
            tm, vocab = _read_model_dir(path, entries, ordered)
            return NerModelBundle(tm.model, vocab, tm.train_config, tm.history)
        if kind == "classifier":
            task = entries.get("task")
            if not task:
                raise CorruptionError("classifier artifact lacks a task name")
            tm, vocab = _read_model_dir(path, entries, ordered)
            return ClassifierBundle(tasks={task: tm}, vocab=vocab)
        if kind == "pipeline":
            names = entries.get("components", "").split()
            if "ner" not in names:
                raise CorruptionError("pipeline artifact missing components: ner")
            components = {}
            for name in names:
                sub = _component_dir(path, name)
                sub_entries, sub_ordered = _read_manifest(sub)
                want = ("ner", None) if name == "ner" else ("classifier", name)
                if (sub_entries.get("kind"), sub_entries.get("task")) != want:
                    raise CorruptionError(f"pipeline component {name} has wrong kind")
                components[name] = _read_model_dir(sub, sub_entries, sub_ordered)
            ner_tm, vocab = components.pop("ner")
            for name, (_, sub_vocab) in components.items():
                if sub_vocab.pieces != vocab.pieces:
                    raise CorruptionError(
                        f"pipeline component {name} disagrees with ner on vocabulary")
            ner_bundle = NerModelBundle(ner_tm.model, vocab, ner_tm.train_config, ner_tm.history)
            tasks = {name: tm for name, (tm, _) in components.items()}
            return PipelineBundle(ner_bundle, ClassifierBundle(tasks, vocab))
    except ConfigError as exc:
        raise CorruptionError(f"{kind} artifact is invalid: {exc}") from None
    raise CorruptionError(f"unknown artifact kind {kind!r}")
