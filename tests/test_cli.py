"""Command-line integration: exit codes, golden flows, artifact handling."""

import json
import re
import shutil

import pytest

from rxtract.cli import run_command

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


class TestExitCodes:
    def test_train_without_data_is_usage_error(self):
        assert run_command(["train", "--task", "ner"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run_command(["stats", "--data", "x", "--bogus"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_command(["transmogrify"]) == 2

    def test_missing_data_directory_is_data_error(self, tmp_path):
        assert run_command(["stats", "--data", str(tmp_path / "nope")]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, data_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n", encoding="utf-8")
        code = run_command(["train", "--task", "ner", "--data", str(data_dir),
                            "--out", str(tmp_path / "m"), "--config", str(cfg)])
        assert code == 2

    def test_context_eval_rejects_predicted_spans(self, data_dir, ner_model_dir):
        code = run_command(["evaluate", "--task", "context", "--data", str(data_dir),
                            "--model", str(ner_model_dir), "--gold-spans", "off"])
        assert code == 2

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
        err = capsys.readouterr().err
        assert "token" in err and "sequence" in err


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
