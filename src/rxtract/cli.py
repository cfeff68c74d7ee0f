"""Command-line surface: corpus synthesis, training, prediction, evaluation,
statistics, and gradient verification.

Exit codes: 0 success, 2 usage errors, 1 data or runtime errors. Progress
and metrics go to stderr; data products go to the declared output paths.
Thread count is governed only by the BLAS environment variables
(e.g. OPENBLAS_NUM_THREADS / OMP_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from . import artifacts, context, evaluation, ner, pipeline, synth
from .corpus import corpus_stats, format_stats, load_corpus, normalize_newlines, write_corpus_dir
from .encoder import EncoderConfig, TrainConfig, grad_check, init_model, toy_examples
from .errors import RxtractError
from .evaluation import MetricsReport, render_report, report_records
from .preproc import build_vocab, split_text


class UsageError(Exception):
    """Command-line misuse detected after argument parsing."""


TASK_NAMES = {
    "event": "Event",
    "action": "Action",
    "negation": "Negation",
    "temporality": "Temporality",
    "certainty": "Certainty",
    "actor": "Actor",
}

_ENC_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(EncoderConfig)}
_TRAIN_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
CONFIG_KEYS = set(_ENC_FIELDS) | set(_TRAIN_FIELDS) | {"vocab_target_size"}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _resolve_configs(args) -> tuple[EncoderConfig, TrainConfig, int]:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    if getattr(args, "seed", None) is not None:
        values["seed"] = str(args.seed)

    def build(cls, fields):
        kwargs = {}
        for name, typ in fields.items():
            if name in values:
                kwargs[name] = typ(float(values[name])) if typ is not str else values[name]
        return cls(**kwargs)

    enc = build(EncoderConfig, _ENC_FIELDS)
    train = build(TrainConfig, _TRAIN_FIELDS)
    vocab_target = int(float(values.get("vocab_target_size", 4096)))
    enc.validate()
    train.validate()
    return enc, train, vocab_target


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--seed", type=int, help="seed for init, shuffling, dropout")
    for name, typ in {**_ENC_FIELDS, **_TRAIN_FIELDS}.items():
        if name == "seed":
            continue
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name)
    p.add_argument("--vocab-target-size", type=int, dest="vocab_target_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxtract",
        description="Medication mention extraction with event and context classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--train", type=int, default=200)
    p.add_argument("--dev", type=int, default=40)
    p.add_argument("--test", type=int, default=40)
    p.add_argument("--lexicon-size", type=int, default=40)
    p.add_argument("--difficulty", choices=["separable", "noisy"], default="separable")
    p.add_argument("--noise-rate", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fine-tune one task or the whole pipeline")
    p.add_argument("--task", required=True,
                   choices=["ner", *TASK_NAMES, "all"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run one model over a raw note")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--doc-id", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pipeline", help="run the full pipeline over a raw note")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--doc-id", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score a model against gold annotations")
    p.add_argument("--task", required=True, choices=["ner", "event", "context", "end2end"])
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--gold-spans", choices=["on", "off"], default="on")
    p.add_argument("--split", choices=["train", "dev", "test"], default="test")
    p.add_argument("--out", default=None, help="write metric records as JSON lines")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="print corpus label statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def cmd_synth(args) -> int:
    spec = synth.GeneratorSpec(
        seed=args.seed,
        n_train=args.train,
        n_dev=args.dev,
        n_test=args.test,
        lexicon_size=args.lexicon_size,
        difficulty=args.difficulty,
        noise_rate=args.noise_rate,
    )
    result = synth.gen_corpus(spec)
    out = Path(args.out)
    write_corpus_dir(result.corpus, out)
    with (out / "ledger.jsonl").open("w", encoding="utf-8") as fh:
        for entry in result.ledger:
            record = {
                "doc_id": entry.doc_id,
                "split": entry.split,
                "start": entry.span.start,
                "end": entry.span.end,
                "surface": entry.surface,
                "event": entry.event.value,
            }
            if entry.context is not None:
                record["context"] = entry.context.as_dict()
            fh.write(json.dumps(record) + "\n")
    for split, st in result.stats.items():
        _log(f"{split}: {st.documents} docs, {st.medications} mentions")
    return 0


def cmd_train(args) -> int:
    enc_cfg, train_cfg, vocab_target = _resolve_configs(args)
    corpus = load_corpus(args.data)
    vocab = build_vocab([d.text for d in corpus.train], vocab_target)

    if args.task == "ner":
        bundle = ner.train_ner(corpus, enc_cfg, train_cfg, vocab=vocab, log=_log)
    elif args.task == "all":
        _log("training task ner")
        ner_bundle = ner.train_ner(corpus, enc_cfg, train_cfg, vocab=vocab, log=_log)
        cls_bundle = context.train_all_tasks(corpus, enc_cfg, train_cfg, vocab, log=_log)
        bundle = pipeline.PipelineBundle(ner=ner_bundle, classifiers=cls_bundle)
        bundle.validate()
    else:
        task = context.TASKS[TASK_NAMES[args.task]]
        tm = context.train_task(corpus, task, enc_cfg, train_cfg, vocab, log=_log)
        bundle = context.ClassifierBundle(tasks={task.name: tm}, vocab=vocab)

    artifacts.save_artifact(bundle, args.out)
    _log(f"saved {args.task} model to {args.out}")
    return 0


def _as_pipeline(bundle) -> pipeline.PipelineBundle:
    if not isinstance(bundle, pipeline.PipelineBundle):
        raise UsageError("this operation needs a pipeline artifact (train --task all)")
    return bundle


def _classifier_with(bundle, names: Sequence[str]) -> context.ClassifierBundle:
    if isinstance(bundle, pipeline.PipelineBundle):
        bundle = bundle.classifiers
    if not isinstance(bundle, context.ClassifierBundle):
        raise UsageError("this operation needs a classifier or pipeline artifact")
    missing = [n for n in names if n not in bundle.tasks]
    if missing:
        raise UsageError(f"artifact lacks classifiers for: {', '.join(missing)}")
    return bundle


def cmd_predict(args) -> int:
    bundle = artifacts.load_artifact(args.model)
    text = normalize_newlines(Path(args.infile).read_text(encoding="utf-8"))
    doc_id = args.doc_id or Path(args.infile).stem
    out = Path(args.out)
    if isinstance(bundle, ner.NerModelBundle):
        spans = ner.predict_ner(bundle, text)
        lines = [
            json.dumps(
                {"doc_id": doc_id, "start": s.start, "end": s.end,
                 "surface": text[s.start : s.end]}
            )
            for s in spans
        ]
        out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        _log(f"{len(spans)} spans -> {out}")
        return 0
    if isinstance(bundle, pipeline.PipelineBundle):
        doc = pipeline.run_pipeline(bundle, text, doc_id)
        out.write_text(pipeline.mentions_to_jsonl(doc), encoding="utf-8")
        _log(f"{len(doc.mentions)} mentions -> {out}")
        return 0
    raise UsageError(
        "predict accepts extraction or pipeline artifacts; evaluate classifier "
        "artifacts with `evaluate --gold-spans on`"
    )


def cmd_pipeline(args) -> int:
    bundle = _as_pipeline(artifacts.load_artifact(args.model))
    text = normalize_newlines(Path(args.infile).read_text(encoding="utf-8"))
    doc_id = args.doc_id or Path(args.infile).stem
    doc = pipeline.run_pipeline(bundle, text, doc_id)
    Path(args.out).write_text(pipeline.mentions_to_jsonl(doc), encoding="utf-8")
    _log(f"{len(doc.mentions)} mentions -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    corpus = load_corpus(args.data)
    docs = corpus.split(args.split)
    bundle = artifacts.load_artifact(args.model)

    if args.task == "ner":
        if isinstance(bundle, pipeline.PipelineBundle):
            nb = bundle.ner
        elif isinstance(bundle, ner.NerModelBundle):
            nb = bundle
        else:
            raise UsageError("ner evaluation needs an extraction or pipeline artifact")
        spans = ner.predict_ner_batch(nb.model, nb.vocab, [split_text(d.text) for d in docs])
        preds = dict(zip([d.doc_id for d in docs], spans))
        report = evaluation.ner_metrics(docs, preds, args.mode)
    elif args.task == "event":
        if args.gold_spans == "on":
            cb = _classifier_with(bundle, ["Event"])
            preds = pipeline.classify_gold_events(cb, docs)
        else:
            preds = pipeline.run_pipeline_over(_as_pipeline(bundle), docs)
        report = evaluation.event_metrics(docs, preds, args.mode)
    elif args.task == "context":
        if args.gold_spans != "on":
            raise UsageError("context evaluation is defined on gold spans only")
        cb = _classifier_with(
            bundle, ["Action", "Negation", "Temporality", "Certainty", "Actor"]
        )
        gold = evaluation.gold_context_table(docs)
        pred = pipeline.classify_gold_context(cb, docs)
        report = evaluation.context_metrics(gold, pred)
    else:  # end2end
        preds = pipeline.run_pipeline_over(_as_pipeline(bundle), docs)
        report = MetricsReport(combined_accuracy=evaluation.combined_accuracy(docs, preds))

    _log(render_report(report, args.task))
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as fh:
            for record in report_records(report, args.task):
                fh.write(json.dumps(record) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = EncoderConfig(
        layers=2, hidden_dim=16, heads=2, ffn_dim=32, max_len=32,
        vocab_size=64, dropout_rate=0.0, seed=args.seed, precision=64,
    )
    ok = True
    for mode, task in (("token", None), ("sequence", "Event")):
        model = init_model(cfg, {"Event": 3} if task else {})
        batch = toy_examples(mode, cfg.vocab_size, n=4, length=16, seed=args.seed)
        report = grad_check(model, batch, mode, task=task, seed=args.seed)
        _log(
            f"{mode}: max relative error {report.max_rel_error:.3e} over "
            f"{report.n_checked} parameters (worst: {report.worst_param})"
        )
        ok = ok and report.max_rel_error < 1e-4
    return 0 if ok else 1


def cmd_stats(args) -> int:
    corpus = load_corpus(args.data)
    print(format_stats(corpus_stats(corpus)))
    return 0


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RxtractError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
