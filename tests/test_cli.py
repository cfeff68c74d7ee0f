"""Command-line integration: exit codes, golden flows, artifact handling."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rxtract
from rxtract import cli, synth
from rxtract.cli import run_command
from rxtract.corpus import SPLIT_NAMES, EventLabel, corpus_stats, load_corpus

FAST_FLAGS = [
    "--layers", "1", "--hidden-dim", "16", "--heads", "2", "--ffn-dim", "32",
    "--max-len", "64", "--max-epochs", "2", "--patience", "2",
    "--learning-rate", "0.001", "--seed", "0",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = run_command(["synth", "--seed", "11", "--out", str(d),
                        "--train", "10", "--dev", "3", "--test", "3"])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def ner_model_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("models") / "ner"
    code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                        "--out", str(out), *FAST_FLAGS])
    assert code == 0
    return out


def test_package_runs_as_module():
    src = str(Path(rxtract.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-m", "rxtract", "--help"], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    assert "usage:" in child.stdout


class TestExitCodes:
    def test_train_without_data_is_usage_error(self):
        assert run_command(["train", "--task", "ner"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run_command(["stats", "--data", "x", "--bogus"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_command(["transmogrify"]) == 2

    def test_program_bug_keeps_its_traceback(self, monkeypatch):
        # only usage errors, RxtractError, OSError and MemoryError are one line
        def broken(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "cmd_stats", broken)
        with pytest.raises(KeyError, match="x"):
            run_command(["stats", "--data", "anywhere"])

    def test_missing_data_directory_is_data_error(self, tmp_path):
        assert run_command(["stats", "--data", str(tmp_path / "nope")]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, data_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n", encoding="utf-8")
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("value", ["abc", "1.7"])
    def test_bad_config_value_is_usage_error(self, tmp_path, data_dir, capsys, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"layers={value}\n", encoding="utf-8")
        capsys.readouterr()
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "layers" in err and "Traceback" not in err
        assert not (tmp_path / "m").exists()

    def test_vocab_size_flag_is_usage_error(self, tmp_path, data_dir):
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), *FAST_FLAGS,
                            "--vocab-size", "5"])
        assert code == 2
        assert not (tmp_path / "m").exists()

    def test_beta_flag_is_usage_error(self, tmp_path, data_dir):
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), *FAST_FLAGS, "--beta1", "0.5"])
        assert code == 2
        assert not (tmp_path / "m").exists()

    def test_beta_config_key_is_usage_error(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "betas.cfg"
        cfg.write_text("beta1=0.5\n", encoding="utf-8")
        capsys.readouterr()
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), "--config", str(cfg)])
        assert code == 2
        assert "unknown config key 'beta1'" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_context_eval_rejects_predicted_spans(self, data_dir, ner_model_dir):
        code = run_command(["evaluate", "--task", "context", "--data", str(data_dir),
                            "--model", str(ner_model_dir), "--gold-spans", "off"])
        assert code == 2

    def test_context_eval_on_predicted_spans_is_refused_from_the_arguments(self, tmp_path,
                                                                           capsys):
        code, err = _run(capsys, ["evaluate", "--task", "context", "--gold-spans", "off",
                                  "--data", str(tmp_path / "no_data"),
                                  "--model", str(tmp_path / "no_model")])
        assert code == 2
        assert err == "usage error: context evaluation is defined on gold spans only\n"

    def test_malformed_artifact_is_clean_error(self, tmp_path, ner_model_dir, capsys):
        code, err = _predict_with_edited_manifest(
            tmp_path, ner_model_dir, capsys, r"^(tensor_0=\S+) \S+$", r"\1 zzx16")
        assert code == 1
        assert err.startswith("error: ") and "tensor_0" in err
        assert "Traceback" not in err

    def test_config_disagreeing_with_tensors_is_clean_error(self, tmp_path, ner_model_dir,
                                                            capsys):
        code, err = _predict_with_edited_manifest(
            tmp_path, ner_model_dir, capsys, r"^config\.heads=.*$", "config.heads=3")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "heads" in err and "Traceback" not in err

    def test_repeated_vocabulary_piece_is_clean_error(self, tmp_path, ner_model_dir, capsys):
        # piece_41 made equal to piece_40
        code, err = _predict_with_edited_manifest(
            tmp_path, ner_model_dir, capsys, r"^(piece_40=(.*)\npiece_41=).*$", r"\1\2")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "piece_40 and piece_41" in err and "Traceback" not in err


def _predict_with_edited_manifest(tmp_path, model_dir, capsys, pattern, replacement):
    """Run `predict` on a copy of the model with one manifest line edited;
    returns the exit code and what went to stderr."""
    model = tmp_path / "ner"
    shutil.copytree(model_dir, model)
    manifest = model / "manifest.txt"
    manifest.write_text(
        re.sub(pattern, replacement, manifest.read_text(encoding="utf-8"),
               count=1, flags=re.M),
        encoding="utf-8",
    )
    note = tmp_path / "note.txt"
    note.write_text("started kelinib 10mg today.", encoding="utf-8")
    capsys.readouterr()
    code = run_command(["predict", "--model", str(model), "--in", str(note),
                        "--out", str(tmp_path / "spans.jsonl")])
    return code, capsys.readouterr().err


def _run(capsys, argv):
    """Exit code and stderr of one command."""
    capsys.readouterr()
    code = run_command(argv)
    return code, capsys.readouterr().err


def _run_capped(cap_mb, *argv):
    """An `rxtract` command in a child whose address space is capped at
    `cap_mb` MB, so a refused allocation cannot take the machine's memory."""
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({cap_mb} << 20, {cap_mb} << 20))\n"
              "from rxtract.cli import run_command\n"
              "sys.exit(run_command(sys.argv[1:]))\n")
    src = str(Path(rxtract.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})


def _train_capped(cap_mb, data_dir, out, *flags):
    """`rxtract train --task ner` under `_run_capped`."""
    return _run_capped(cap_mb, "train", "--task", "ner", "--data", data_dir, "--out", out,
                       *flags)


def _one_line(err, prefix, path):
    return err.startswith(prefix) and err.count("\n") == 1 and str(path) in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 is one clean error line naming the file."""

    def test_note_is_data_error(self, tmp_path, ner_model_dir, capsys):
        note = tmp_path / "note.txt"
        note.write_bytes(b"started kelinib 10mg today.\xff")
        code, err = _run(capsys, ["predict", "--model", str(ner_model_dir),
                                  "--in", str(note), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert _one_line(err, "error: ", note) and "UTF-8" in err

    def test_corpus_file_is_data_error(self, tmp_path, data_dir, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(data_dir, corpus)
        txt = sorted((corpus / "dev").glob("*.txt"))[0]
        txt.write_bytes(txt.read_bytes() + b"\xff")
        code, err = _run(capsys, ["stats", "--data", str(corpus)])
        assert code == 1
        assert _one_line(err, "error: ", txt) and "UTF-8" in err

    def test_config_file_is_usage_error(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"layers=1\n# caf\xe9\n")
        code, err = _run(capsys, ["train", "--task", "ner", "--data", str(data_dir),
                                  "--out", str(tmp_path / "m"), "--config", str(cfg)])
        assert code == 2
        assert _one_line(err, "usage error: ", cfg) and "UTF-8" in err
        assert not (tmp_path / "m").exists()

    def test_manifest_is_corruption(self, tmp_path, ner_model_dir, capsys):
        model = tmp_path / "ner"
        shutil.copytree(ner_model_dir, model)
        manifest = model / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"\xff")
        note = tmp_path / "note.txt"
        note.write_text("started kelinib 10mg today.", encoding="utf-8")
        code, err = _run(capsys, ["predict", "--model", str(model), "--in", str(note),
                                  "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert _one_line(err, "error: ", manifest) and "UTF-8" in err


class TestCorpusErrors:
    def test_annotation_error_names_file_and_line(self, tmp_path, data_dir, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(data_dir, corpus)
        ann = sorted((corpus / "dev").glob("*.ann"))[0]
        text = ann.with_suffix(".txt").read_text(encoding="utf-8")
        ann.write_text("T1\tDrug 0 3\tzzz\n", encoding="utf-8")
        code, err = _run(capsys, ["stats", "--data", str(corpus)])
        assert code == 1
        assert _one_line(err, f"error: {ann}: line 1: ", ann)
        assert f"surface 'zzz' != text slice {text[:3]!r}" in err

    def test_mention_without_event_names_file_and_line(self, tmp_path, data_dir, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(data_dir, corpus)
        ann = sorted((corpus / "dev").glob("*.ann"))[0]
        word = ann.with_suffix(".txt").read_text(encoding="utf-8").split(" ")[0]
        lines = ann.read_text(encoding="utf-8").splitlines()
        lines.append(f"T99\tDrug 0 {len(word)}\t{word}")
        ann.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = _run(capsys, ["stats", "--data", str(corpus)])
        assert code == 1
        assert _one_line(err, f"error: {ann}: line {len(lines)}: ", ann)
        assert "mention T99 has no event annotation" in err

    @pytest.mark.parametrize("task", ["ner", "event", "actor"])
    def test_empty_dev_split_is_data_error(self, tmp_path, capsys, task):
        data = tmp_path / "data"
        assert run_command(["synth", "--seed", "11", "--out", str(data),
                            "--train", "4", "--dev", "0", "--test", "1"]) == 0
        code, err = _run(capsys, ["train", "--task", task, "--data", str(data),
                                  "--out", str(tmp_path / "m"), *FAST_FLAGS])
        assert code == 1
        assert err == "error: train and dev splits must be non-empty\n"
        assert not (tmp_path / "m").exists()


class TestConfigValues:
    @pytest.mark.parametrize("line", ["learning_rate=nan", "clip_norm=inf"])
    def test_non_finite_value_is_clean_error(self, tmp_path, data_dir, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, err = _run(capsys, ["train", "--task", "ner", "--data", str(data_dir),
                                  "--out", str(tmp_path / "m"), "--config", str(cfg)])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line.split("=")[0] in err and "finite" in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("flag", ["--layers", "--max-len"])
    def test_model_too_large_to_allocate_is_one_error_line(self, tmp_path, data_dir, flag):
        start = time.perf_counter()
        child = _train_capped(1536, data_dir, tmp_path / "m", flag, "100000000")
        assert time.perf_counter() - start < 5
        assert child.returncode == 1, child.stderr
        assert re.fullmatch(r"error: a model of [\d,]+ parameters does not fit in memory\n",
                            child.stderr)
        assert not (tmp_path / "m").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    def test_model_too_large_to_train_is_one_error_line(self, tmp_path, data_dir):
        # About 40M parameters: the model fits under the cap, but not again
        # for its gradients, Adam moments and best-epoch copy.
        child = _train_capped(700, data_dir, tmp_path / "m", "--layers", "300")
        assert child.returncode == 1, child.stderr
        assert re.fullmatch(r"error: training a model of [\d,]+ parameters "
                            r"does not fit in memory\n", child.stderr)
        assert not (tmp_path / "m").exists()

    def test_non_finite_loss_is_one_line_naming_its_example(self, tmp_path, capsys):
        data = tmp_path / "c"
        assert run_command(["synth", "--out", str(data), "--train", "8", "--dev", "2",
                            "--test", "2", "--seed", "3"]) == 0
        code, err = _run(capsys, ["train", "--task", "event", "--data", str(data),
                                  "--out", str(tmp_path / "m"), "--layers", "1",
                                  "--hidden-dim", "16", "--heads", "2", "--ffn-dim", "32",
                                  "--max-len", "64", "--max-epochs", "2",
                                  "--learning-rate", "1e30"])
        assert code == 1
        assert re.fullmatch(r"error: non-finite loss .*document 'train\d+'.*\n", err)
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_negative_seed_is_one_error_line(self, tmp_path, data_dir, capsys, command):
        argv = (["train", "--task", "ner", "--data", str(data_dir), "--out", str(tmp_path / "m")]
                if command == "train" else ["gradcheck"])
        code, err = _run(capsys, [*argv, "--seed", "-1"])
        assert code == 1
        assert err == "error: seed must be a non-negative integer\n"
        assert not (tmp_path / "m").exists()

    def test_synth_defaults_are_the_generator_spec(self, tmp_path, monkeypatch):
        """`synth` with only --out generates from `GeneratorSpec()`; a smaller
        corpus is written in its place."""
        specs, gen_corpus = [], synth.gen_corpus

        def record(spec):
            specs.append(spec)
            return gen_corpus(dataclasses.replace(spec, n_train=2, n_dev=1, n_test=1))

        monkeypatch.setattr(synth, "gen_corpus", record)
        assert run_command(["synth", "--out", str(tmp_path / "c")]) == 0
        assert specs == [synth.GeneratorSpec()]

    def test_synth_lexicon_size_outside_name_pool_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, err = _run(capsys, ["synth", "--out", str(out), "--lexicon-size", "0"])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lexicon_size" in err
        assert not out.exists()

    def test_synth_noise_rate_changes_text(self, tmp_path):
        texts = {}
        for rate in ("0", "0.9"):
            out = tmp_path / rate
            assert run_command(["synth", "--seed", "1", "--out", str(out), "--train", "4",
                                "--dev", "1", "--test", "1", "--noise-rate", rate]) == 0
            texts[rate] = [p.read_text(encoding="utf-8")
                           for p in sorted((out / "train").glob("*.txt"))]
        assert texts["0"] != texts["0.9"]

    def test_synth_counts_are_those_of_the_written_corpus(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, err = _run(capsys, ["synth", "--seed", "3", "--out", str(out),
                                  "--train", "6", "--dev", "2", "--test", "2"])
        assert code == 0
        assert err.splitlines() == [
            f"{split}: {st.documents} docs, {st.medications} mentions"
            for split, st in corpus_stats(load_corpus(out)).items()
        ]

    def test_synth_ledger_lists_every_written_mention(self, tmp_path):
        out = tmp_path / "c"
        assert run_command(["synth", "--out", str(out), "--train", "4",
                            "--dev", "2", "--test", "2"]) == 0
        corpus = load_corpus(out)
        expected = []
        for split in SPLIT_NAMES:
            for doc in getattr(corpus, split):
                for m in doc.mentions:
                    record = {"doc_id": doc.doc_id, "split": split, "start": m.span.start,
                              "end": m.span.end, "surface": m.surface, "event": m.event.value}
                    if m.event is EventLabel.DISPOSITION:
                        record["context"] = m.context.as_dict()
                    expected.append(record)
        ledger = (out / "ledger.jsonl").read_bytes()
        assert expected and [json.loads(line) for line in ledger.splitlines()] == expected
        # the bytes too, which parsing would not show: key order, separators
        assert hashlib.sha256(ledger).hexdigest() == (
            "d55022758e4984f77e5047cc47de79e8f47111cb79e8c90913ac12bbad3c74e3")

    def test_synth_difficulty_is_usage_error(self, tmp_path):
        out = tmp_path / "c"
        assert run_command(["synth", "--out", str(out), "--difficulty", "noisy"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("held", ["train", "ledger.jsonl"])
    def test_synth_into_earlier_output_is_usage_error(self, tmp_path, capsys, held):
        out = tmp_path / "c"
        assert run_command(["synth", "--seed", "1", "--out", str(out),
                            "--train", "4", "--dev", "1", "--test", "1"]) == 0
        keep = out / held
        if keep.is_dir():
            (out / "ledger.jsonl").unlink()
        else:
            for split in ("train", "dev", "test"):
                shutil.rmtree(out / split)
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        code, err = _run(capsys, ["synth", "--seed", "2", "--out", str(out),
                                  "--train", "2", "--dev", "1", "--test", "1"])
        assert code == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert held in err
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


class TestGoldenFlow:
    def test_synth_train_evaluate(self, tmp_path, data_dir, ner_model_dir, capsys):
        records = tmp_path / "metrics.jsonl"
        code = run_command(["evaluate", "--task", "ner", "--data", str(data_dir),
                            "--model", str(ner_model_dir), "--out", str(records)])
        assert code == 0
        err = capsys.readouterr().err
        assert "micro" in err
        lines = [json.loads(ln) for ln in records.read_text().splitlines()]
        assert any(r["scope"] == "micro" and r["metric"] == "f1" for r in lines)

    def test_lenient_mode_accepted(self, data_dir, ner_model_dir, capsys):
        code = run_command(["evaluate", "--task", "ner", "--data", str(data_dir),
                            "--model", str(ner_model_dir), "--mode", "lenient"])
        assert code == 0
        assert "micro" in capsys.readouterr().err

    def test_stats_prints_table(self, data_dir, capsys):
        assert run_command(["stats", "--data", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "Medication mentions" in out
        assert "train" in out and "test" in out

    def test_config_file_values_used(self, tmp_path, data_dir):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "layers=1\nhidden_dim=16\nheads=2\nffn_dim=32\nmax_len=64\n"
            "max_epochs=1\npatience=1\nseed=3\n",
            encoding="utf-8",
        )
        out = tmp_path / "m"
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(out), "--config", str(cfg)])
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "config.layers=1" in manifest
        assert "config.hidden_dim=16" in manifest
        assert "train.max_epochs=1" in manifest

    def test_flags_override_config_file(self, tmp_path, data_dir):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("layers=2\nhidden_dim=16\nheads=2\nffn_dim=32\n"
                       "max_len=64\nmax_epochs=1\npatience=1\n", encoding="utf-8")
        out = tmp_path / "m"
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(out), "--config", str(cfg), "--layers", "1"])
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "config.layers=1" in manifest

    def test_predict_ner_writes_span_records(self, tmp_path, data_dir, ner_model_dir):
        note = tmp_path / "note.txt"
        note.write_text("clinician duly started kelinib 10mg today definitely.",
                        encoding="utf-8")
        out = tmp_path / "spans.jsonl"
        code = run_command(["predict", "--model", str(ner_model_dir),
                            "--in", str(note), "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"doc_id", "start", "end", "surface"}

    def test_gradcheck_passes(self, capsys):
        assert run_command(["gradcheck", "--seed", "1"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "token, dropout 0.0", "sequence, dropout 0.0",
            "token, dropout 0.1", "sequence, dropout 0.1"]


class TestSingleClassifierFlow:
    def test_train_and_gold_span_evaluate_event(self, tmp_path, data_dir):
        out = tmp_path / "event"
        code = run_command(["train", "--task", "event", "--data", str(data_dir),
                            "--out", str(out), *FAST_FLAGS])
        assert code == 0
        code = run_command(["evaluate", "--task", "event", "--data", str(data_dir),
                            "--model", str(out), "--gold-spans", "on",
                            "--split", "test"])
        assert code == 0


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("models") / "pipe"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_command(["train", "--task", "all", "--data", str(data_dir),
                            "--out", str(out), *FAST_FLAGS])
    assert code == 0
    return out


class TestPipelineFlow:
    def test_pipeline_on_empty_note(self, tmp_path, pipeline_dir):
        note = tmp_path / "empty.txt"
        note.write_text("", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        code = run_command(["pipeline", "--model", str(pipeline_dir),
                            "--in", str(note), "--out", str(preds)])
        assert code == 0
        assert preds.read_text(encoding="utf-8") == ""

    def test_pipeline_writes_mention_records(self, tmp_path, data_dir, pipeline_dir):
        note = tmp_path / "note.txt"
        note.write_text("clinician duly started kelinib 10mg today definitely.",
                        encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        code = run_command(["pipeline", "--model", str(pipeline_dir),
                            "--in", str(note), "--out", str(preds)])
        assert code == 0
        for line in preds.read_text().splitlines():
            rec = json.loads(line)
            assert {"doc_id", "start", "end", "surface", "event"} <= set(rec)

    def test_end2end_evaluation(self, data_dir, pipeline_dir, capsys):
        code = run_command(["evaluate", "--task", "end2end", "--data", str(data_dir),
                            "--model", str(pipeline_dir)])
        assert code == 0
        assert "combined" in capsys.readouterr().err

    def test_context_evaluation_on_gold_spans(self, data_dir, pipeline_dir, capsys):
        code = run_command(["evaluate", "--task", "context", "--data", str(data_dir),
                            "--model", str(pipeline_dir)])
        assert code == 0
        err = capsys.readouterr().err
        for dim in ("Action", "Negation", "Temporality", "Certainty", "Actor"):
            assert dim in err

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    def test_note_too_large_for_memory_is_one_error_line(self, tmp_path, data_dir,
                                                         pipeline_dir):
        text = (data_dir / "test" / "test0000.txt").read_text(encoding="utf-8")
        note = tmp_path / "big.txt"
        note.write_text(text * (4_700_000 // len(text)), encoding="utf-8")
        child = _run_capped(350, "pipeline", "--model", pipeline_dir, "--in", note,
                            "--out", tmp_path / "preds.jsonl")
        assert child.returncode == 1, child.stderr
        assert child.stderr == "error: pipeline ran out of memory\n"
        assert not (tmp_path / "preds.jsonl").exists()

    def test_classifier_of_another_width_is_one_error_line(self, tmp_path, data_dir,
                                                           pipeline_dir, capsys):
        actor = tmp_path / "actor"
        wide = [*FAST_FLAGS, "--hidden-dim", "32"]  # the last flag wins
        assert run_command(["train", "--task", "actor", "--data", str(data_dir),
                            "--out", str(actor), *wide]) == 0
        pipe = tmp_path / "pipe"
        shutil.copytree(pipeline_dir, pipe)
        shutil.rmtree(pipe / "task_Actor")
        shutil.copytree(actor, pipe / "task_Actor")
        note = tmp_path / "note.txt"
        note.write_text("clinician duly started kelinib 10mg today.", encoding="utf-8")
        capsys.readouterr()
        code = run_command(["pipeline", "--model", str(pipe), "--in", str(note),
                            "--out", str(tmp_path / "preds.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "classifier Actor has hidden_dim 32" in err
        assert not (tmp_path / "preds.jsonl").exists()

    def test_classifier_head_of_another_task_is_one_error_line(self, tmp_path, pipeline_dir,
                                                               capsys):
        pipe = tmp_path / "pipe"
        shutil.copytree(pipeline_dir, pipe)
        manifest = pipe / "task_Actor" / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert text.count("=seq_head.Actor.") == 2
        manifest.write_text(text.replace("=seq_head.Actor.", "=seq_head.Event."),
                            encoding="utf-8")
        note = tmp_path / "note.txt"
        note.write_text("clinician duly started kelinib 10mg today.", encoding="utf-8")
        code, err = _run(capsys, ["pipeline", "--model", str(pipe), "--in", str(note),
                                  "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert err == ("error: pipeline artifact is invalid: "
                       "classifier Actor has no head for task 'Actor'\n")
        assert not (tmp_path / "preds.jsonl").exists()

    def test_classifier_head_of_another_width_is_one_error_line(self, tmp_path, pipeline_dir,
                                                                capsys):
        # the Temporality classifier, saved as Event's: a head of 4 classes where Event has 3
        pipe = tmp_path / "pipe"
        shutil.copytree(pipeline_dir, pipe)
        shutil.rmtree(pipe / "task_Event")
        shutil.copytree(pipe / "task_Temporality", pipe / "task_Event")
        manifest = pipe / "task_Event" / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("task=Temporality", "task=Event")
                                .replace("=seq_head.Temporality.", "=seq_head.Event."),
                            encoding="utf-8")
        note = tmp_path / "note.txt"
        note.write_text("clinician duly started kelinib 10mg today.", encoding="utf-8")
        code, err = _run(capsys, ["pipeline", "--model", str(pipe), "--in", str(note),
                                  "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert err == ("error: pipeline artifact is invalid: classifier Event's head weight "
                       "and bias are 4 and 4 wide, task Event has 3 classes\n")
        assert not (tmp_path / "preds.jsonl").exists()


class TestNoteCommands:
    """`predict` and `pipeline` share one handler; each refuses the
    artifacts it cannot run before reading the note."""

    def test_predict_on_pipeline_writes_what_pipeline_writes(self, tmp_path, data_dir,
                                                             pipeline_dir):
        note = data_dir / "test" / "test0000.txt"
        for command in ("predict", "pipeline"):
            assert run_command([command, "--model", str(pipeline_dir), "--in", str(note),
                                "--out", str(tmp_path / f"{command}.jsonl")]) == 0
        written = (tmp_path / "pipeline.jsonl").read_bytes()
        assert b'"event"' in written
        assert (tmp_path / "predict.jsonl").read_bytes() == written

    @pytest.mark.parametrize("command, component, data, message", [
        (["predict"], "task_Event", None, "predict accepts extraction or pipeline artifacts"),
        (["pipeline"], "ner", None, "needs a pipeline artifact"),
        (["evaluate", "--task", "ner"], "task_Event", "corpus",
         "ner evaluation needs an extraction or pipeline artifact"),
        (["evaluate", "--task", "ner"], "task_Event", "absent",
         "ner evaluation needs an extraction or pipeline artifact"),
        (["evaluate", "--task", "end2end"], "ner", "corpus", "needs a pipeline artifact"),
        (["evaluate", "--task", "end2end"], "ner", "absent", "needs a pipeline artifact"),
    ], ids=["predict_classifier", "pipeline_extraction", "evaluate_ner_classifier",
            "evaluate_ner_classifier_no_data", "evaluate_end2end_extraction",
            "evaluate_end2end_extraction_no_data"])
    def test_artifact_of_another_kind_is_usage_error(self, tmp_path, data_dir, pipeline_dir,
                                                     capsys, command, component, data, message):
        out = tmp_path / "out.jsonl"
        if data is None:
            where = ["--in", str(tmp_path / "no_note.txt")]  # refused before it is read
        else:  # likewise refused before the corpus is read
            where = ["--data", str(data_dir if data == "corpus" else tmp_path / "no_data")]
        code, err = _run(capsys, [*command, "--model", str(pipeline_dir / component),
                                  *where, "--out", str(out)])
        assert code == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()
