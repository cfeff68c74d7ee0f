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
from typing import Iterable, Sequence

import numpy as np

from . import artifacts, context, evaluation, ner, pipeline, synth
from .corpus import (SPLIT_NAMES, corpus_stats, format_stats, load_corpus, normalize_newlines,
                     read_utf8, write_corpus_dir)
from .encoder import TOY_CLASSES, EncoderConfig, TrainConfig, grad_check, init_model, toy_examples
from .errors import RxtractError
from .evaluation import MetricsReport, render_report, report_records
from .preproc import DEFAULT_VOCAB_SIZE, build_vocab, split_text


class UsageError(Exception):
    """Command-line misuse detected after argument parsing."""


TASK_NAMES = {name.lower(): name for name in context.TASKS}
LEDGER = "ledger.jsonl"  # synth's list of every mention of the corpus it writes

_ENC_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(EncoderConfig)}
_TRAIN_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
CONFIG_KEYS = {**_ENC_FIELDS, **_TRAIN_FIELDS, "vocab_target_size": int}  # key -> type


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write `records` to `path` as JSON lines, one object each."""
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_utf8(Path(path), UsageError).splitlines(), 1):
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
    values = {key: flag for key in CONFIG_KEYS if (flag := getattr(args, key)) is not None}
    for key, raw in (load_config_file(args.config) if args.config else {}).items():
        if key not in values:  # flags win, so an overridden string is never parsed
            typ = CONFIG_KEYS[key]
            try:
                values[key] = typ(raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: expected {typ.__name__}, "
                                 f"got {raw!r}") from None

    enc = EncoderConfig(**{k: v for k, v in values.items() if k in _ENC_FIELDS})
    train = TrainConfig(**{k: v for k, v in values.items() if k in _TRAIN_FIELDS})
    return enc, train, values.get("vocab_target_size", DEFAULT_VOCAB_SIZE)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags win")
    for name, typ in CONFIG_KEYS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name,
                       help="seed for init, shuffling, dropout" if name == "seed" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxtract",
        description="Medication mention extraction with event and context classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is stored as the GeneratorSpec field it sets; an unset one keeps its default
    p = sub.add_parser("synth", help="generate a synthetic corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--train", type=int, dest="n_train")
    p.add_argument("--dev", type=int, dest="n_dev")
    p.add_argument("--test", type=int, dest="n_test")
    p.add_argument("--lexicon-size", type=int)
    p.add_argument("--noise-rate", type=float,
                   help="rate at which cues and events are swapped; 0 is separable")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fine-tune one task or the whole pipeline")
    p.add_argument("--task", required=True,
                   choices=["ner", *TASK_NAMES, "all"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    for name, help_ in (("predict", "run one model over a raw note"),
                        ("pipeline", "run the full pipeline over a raw note")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--model", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--doc-id", default=None)
        p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against gold annotations")
    p.add_argument("--task", required=True, choices=["ner", "event", "context", "end2end"])
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=[evaluation.STRICT, evaluation.LENIENT],
                   default=evaluation.STRICT)
    p.add_argument("--gold-spans", choices=["on", "off"], default="on")
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
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
    out = Path(args.out)
    # Writing over an earlier corpus would leave its documents beside the new ledger.
    held = [name for name in (*SPLIT_NAMES, LEDGER) if (out / name).exists()]
    if held:
        raise UsageError(f"--out {out} already holds {', '.join(held)}; "
                         "choose a new or empty directory")
    fields = {f.name for f in dataclasses.fields(synth.GeneratorSpec)}
    spec = synth.GeneratorSpec(**{k: v for k, v in vars(args).items() if k in fields})
    corpus = synth.gen_corpus(spec).corpus
    write_corpus_dir(corpus, out)
    _write_jsonl(out / LEDGER, (
        {"doc_id": doc.doc_id, "split": split, "start": m.span.start, "end": m.span.end,
         "surface": m.surface, "event": m.event.value,
         **({} if m.context is None else {"context": m.context.as_dict()})}
        for split, docs in corpus.splits() for doc in docs for m in doc.mentions))
    for split, st in corpus_stats(corpus).items():
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
    """`predict` and `pipeline`: a pipeline artifact writes mention records,
    an extraction model (under `predict` only) span records."""
    bundle = artifacts.load_artifact(args.model)
    if args.command == "pipeline":
        _as_pipeline(bundle)
    elif not isinstance(bundle, (pipeline.PipelineBundle, ner.NerModelBundle)):
        raise UsageError(
            "predict accepts extraction or pipeline artifacts; evaluate classifier "
            "artifacts with `evaluate --gold-spans on`"
        )
    text = normalize_newlines(read_utf8(Path(args.infile)))
    doc_id = args.doc_id or Path(args.infile).stem
    if isinstance(bundle, pipeline.PipelineBundle):
        doc = pipeline.run_pipeline(bundle, text, doc_id)
        Path(args.out).write_text(pipeline.mentions_to_jsonl(doc), encoding="utf-8")
        _log(f"{len(doc.mentions)} mentions -> {args.out}")
        return 0
    spans = ner.predict_ner(bundle, text)
    _write_jsonl(args.out, ({"doc_id": doc_id, "start": s.start, "end": s.end,
                             "surface": text[s.start : s.end]} for s in spans))
    _log(f"{len(spans)} spans -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.task == "context" and args.gold_spans != "on":
        raise UsageError("context evaluation is defined on gold spans only")
    # the part of the artifact the task runs, checked before the corpus is read
    bundle = artifacts.load_artifact(args.model)
    if args.task == "ner":
        model = bundle.ner if isinstance(bundle, pipeline.PipelineBundle) else bundle
        if not isinstance(model, ner.NerModelBundle):
            raise UsageError("ner evaluation needs an extraction or pipeline artifact")
    elif args.task == "end2end" or args.gold_spans == "off":
        model = _as_pipeline(bundle)
    else:
        model = _classifier_with(bundle, ["Event"] if args.task == "event"
                                 else [t.name for t in context.DIMENSION_TASKS])
    docs = load_corpus(args.data).split(args.split)

    if args.task == "ner":
        spans = ner.predict_ner_batch(model.model, model.vocab, [split_text(d.text) for d in docs])
        preds = dict(zip([d.doc_id for d in docs], spans))
        report = evaluation.ner_metrics(docs, preds, args.mode)
    elif args.task == "event":
        run = (pipeline.classify_gold_events if args.gold_spans == "on"
               else pipeline.run_pipeline_over)
        report = evaluation.event_metrics(docs, run(model, docs), args.mode)
    elif args.task == "context":
        gold = evaluation.gold_context_table(docs)
        pred = pipeline.classify_gold_context(model, docs)
        report = evaluation.context_metrics(gold, pred)
    else:  # end2end
        preds = pipeline.run_pipeline_over(model, docs)
        report = MetricsReport(combined_accuracy=evaluation.combined_accuracy(docs, preds))

    _log(render_report(report, args.task))
    if args.out:
        _write_jsonl(args.out, report_records(report, args.task))
    return 0


def cmd_gradcheck(args) -> int:
    vocab_size = 64
    ok = True
    for rate in (0.0, 0.1):
        cfg = EncoderConfig(
            layers=2, hidden_dim=16, heads=2, ffn_dim=32, max_len=32,
            dropout_rate=rate, seed=args.seed, precision=64,
        )
        for kind, task in (("token", None), ("sequence", "Event")):
            model = init_model(cfg, vocab_size, {task: TOY_CLASSES} if task else {})
            batch = toy_examples(kind, vocab_size, n=4, length=16, seed=args.seed)
            report = grad_check(model, batch, task=task, seed=args.seed)
            _log(
                f"{kind}, dropout {rate}: max relative error {report.max_rel_error:.3e} "
                f"over {report.n_checked} parameters (worst: {report.worst_param})"
            )
            ok = ok and report.max_rel_error < 1e-4
    return 0 if ok else 1


def cmd_stats(args) -> int:
    corpus = load_corpus(args.data)
    print(format_stats(corpus_stats(corpus)))
    return 0


def _reserve_blas_buffer() -> None:
    """Have OpenBLAS allocate its work buffer now, while memory is free.

    It allocates the buffer on its first large matrix product and ends the
    process if it cannot. Once the buffer exists, running out of memory
    later in the command is a MemoryError, reported as one error line.
    """
    a = np.ones((256, 256), dtype=np.float32)  # large enough to use the buffer
    a @ a


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _reserve_blas_buffer()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RxtractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # report it below, once the failed call's frames have let go of their memory
    print(f"error: {args.command} ran out of memory", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
