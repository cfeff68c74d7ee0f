"""The error contract as a property: damaged input fails cleanly.

A saved pipeline, a small corpus, a note and a config file are damaged one
way at a time. Every command must then answer through `run_command` with
exit code 0, 1 or 2 and raise nothing; `load_artifact` must load the
damaged artifact or raise CorruptionError or CompatibilityError; and a
pipeline run that succeeds must write records that form a valid document.
"""

import json
import re
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxtract.artifacts import load_artifact, save_artifact
from rxtract.cli import run_command
from rxtract.context import TASKS
from rxtract.corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    EventLabel,
    MedicationMention,
)
from rxtract.errors import CompatibilityError, CorruptionError

JUNK = ["", "nan", "1e400", "-1", "9" * 40, "١٢", "x y"]
NOTE = "clinician duly started kelinib 10mg today definitely.\n"
CONFIG = "layers=1\nhidden_dim=16\nheads=2\nlearning_rate=0.001\nclip_norm=1.0\n"
COMPONENTS = ["ner", *(f"task_{name}" for name in TASKS)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, tiny):
    root = tmp_path_factory.mktemp("contract")
    save_artifact(tiny[1], root / "model")
    assert run_command(["synth", "--seed", "5", "--out", str(root / "data"),
                        "--train", "2", "--dev", "1", "--test", "2"]) == 0
    (root / "note.txt").write_text(NOTE, encoding="utf-8")
    (root / "train.cfg").write_text(CONFIG, encoding="utf-8")
    return root


def _junk(data) -> str:
    return data.draw(st.one_of(st.sampled_from(JUNK), st.text(max_size=6)))


def _edit(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _replace_value(data, lines: list[str]) -> None:
    """Replace one `key=value` line's value with junk. Keys are drawn by
    group, so the few config lines are as likely as the many piece lines."""
    def group(line):
        return re.sub(r"_\d+$", "_*", line.split("=", 1)[0])

    chosen = data.draw(st.sampled_from(sorted({group(line) for line in lines})))
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if group(line) == chosen]))
    lines[i] = lines[i].split("=", 1)[0] + "=" + _junk(data)


def _delete_or_duplicate(data, lines: list[str]) -> None:
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i:i + 1] = [lines[i]] * data.draw(st.sampled_from([0, 2]))


def _manifest(data, root: Path) -> Path:
    return root / "model" / data.draw(st.sampled_from(["", *COMPONENTS])) / "manifest.txt"


def _run(*commands: list[str]) -> list[int]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codes = [run_command([str(arg) for arg in argv]) for argv in commands]
    assert all(code in (0, 1, 2) for code in codes), codes
    return codes


def _check_records(path: Path) -> None:
    mentions = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        assert rec["doc_id"] == "note"
        event = EventLabel(rec["event"])
        context = None
        if event is EventLabel.DISPOSITION:
            context = ContextAttributes(**{
                attr: enum(rec[attr]) for enum, attr in CONTEXT_DIMENSIONS.values()})
        mentions.append(MedicationMention(
            CharSpan(rec["start"], rec["end"]), rec["surface"], event, context))
    AnnotatedDocument("note", NOTE, mentions).validate()


def _check_artifact(data, root: Path) -> None:
    """Load the damaged model directly, then run every command that reads it."""
    model = root / "model"
    try:
        load_artifact(model)
    except (CorruptionError, CompatibilityError):
        pass
    task = data.draw(st.sampled_from(["ner", "event", "context", "end2end"]))
    codes = _run(
        ["pipeline", "--model", model, "--in", root / "note.txt", "--out", root / "p.jsonl"],
        ["predict", "--model", model, "--in", root / "note.txt", "--out", root / "q.jsonl"],
        ["evaluate", "--task", task, "--data", root / "data", "--model", model],
    )
    if codes[0] == 0:
        _check_records(root / "p.jsonl")


@contextmanager
def _copy(workspace: Path) -> Iterator[Path]:
    """A fresh copy of the workspace, to damage in one example."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(workspace, tmp, dirs_exist_ok=True)
        yield Path(tmp)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_junk_manifest_value(workspace, data):
    with _copy(workspace) as root:
        _edit(_manifest(data, root), lambda lines: _replace_value(data, lines))
        _check_artifact(data, root)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.data())
def test_manifest_line_deleted_or_duplicated(workspace, data):
    with _copy(workspace) as root:
        _edit(_manifest(data, root), lambda lines: _delete_or_duplicate(data, lines))
        _check_artifact(data, root)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data())
def test_parameter_blob_truncated_or_flipped(workspace, data):
    with _copy(workspace) as root:
        path = root / "model" / data.draw(st.sampled_from(COMPONENTS)) / "params.bin"
        blob = bytearray(path.read_bytes())
        i = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            del blob[i:]
        else:
            blob[i] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        _check_artifact(data, root)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_annotation_field_junk(workspace, data):
    def damage(lines):
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = re.split(r"([\t ])", lines[i])  # separators at odd indices
        fields[2 * data.draw(st.integers(0, len(fields) // 2))] = _junk(data)
        lines[i] = "".join(fields)

    with _copy(workspace) as root:
        _edit(data.draw(st.sampled_from(sorted((root / "data").rglob("*.ann")))), damage)
        task = data.draw(st.sampled_from(["ner", "event", "context", "end2end"]))
        _run(["stats", "--data", root / "data"],
             ["evaluate", "--task", task, "--data", root / "data", "--model", root / "model"])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_config_file_damaged(workspace, data):
    def damage(lines):
        if data.draw(st.booleans()):
            _replace_value(data, lines)
        else:
            _delete_or_duplicate(data, lines)
            lines.append(_junk(data))

    with _copy(workspace) as root:
        _edit(root / "train.cfg", damage)
        # the config is read before the corpus, which is absent: nothing trains
        _run(["train", "--task", "ner", "--data", root / "absent", "--out", root / "m",
              "--config", root / "train.cfg"])
