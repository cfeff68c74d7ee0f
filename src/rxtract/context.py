"""Event classification and the five context-dimension classifiers.

Every task uses the same mention-anchored input: the sentence's pieces with
[S]/[E] markers bracketing the mention, classified from the concatenation
of the CLS and marker representations.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    Corpus,
    EventLabel,
    MedicationMention,
)
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    check_agreement,
    fit,
    init_model,
    predict_batch,
    stack_models,
)
from .errors import ConfigError, DataError, SpanRangeError
from .preproc import (
    CLS_ID,
    E_MARK_ID,
    NO_WORD,
    S_MARK_ID,
    SEP_ID,
    LabeledSequence,
    Sentence,
    Vocabulary,
    split_text,
    subword_encode,
)


@dataclass(frozen=True)
class ClassificationTask:
    """One classifier: its labels in class-id order, and the
    `ContextAttributes` field it predicts (None for Event)."""

    name: str
    classes: tuple[Enum, ...]
    attr: Optional[str] = None


EVENT_TASK = ClassificationTask("Event", tuple(EventLabel))
DIMENSION_TASKS = tuple(ClassificationTask(dim, tuple(enum_cls), attr)
                        for dim, (enum_cls, attr) in CONTEXT_DIMENSIONS.items())
TASKS: dict[str, ClassificationTask] = {t.name: t for t in (EVENT_TASK, *DIMENSION_TASKS)}


@dataclass(frozen=True)
class TaskStack:
    """Tasks whose models run as one stacked forward pass."""

    name: str
    tasks: tuple[ClassificationTask, ...]


CONTEXT_STACK = TaskStack("context", DIMENSION_TASKS)


def build_classification_example(
    sent: Sentence,
    mention: CharSpan,
    vocab: Vocabulary,
    max_len: int,
    doc_id: str = "",
) -> LabeledSequence:
    """Marker-bracketed sequence for one mention, at most max_len long.

    When the sentence is too long, whole words farthest from the mention are
    dropped (a window centered on the mention); the specials and every
    mention piece are always kept. The window grows one word at a time on
    the side whose next word is nearer the mention, the left side on a tie.
    A side stops at the first word that does not fit in what is left of
    the budget; the other side keeps growing.
    """
    if not sent.span.contains(mention):
        raise SpanRangeError(f"mention {mention} outside sentence {sent.span}")

    tokens = sent.tokens
    pieces = [subword_encode(t.text, vocab) for t in tokens]
    inside = [i for i, t in enumerate(tokens) if t.span.overlaps(mention)]
    if inside:
        a, b = inside[0], inside[-1]
    else:
        # Mention covers no token (whitespace-only); markers sit between words.
        a = next((i for i, t in enumerate(tokens) if t.span.start >= mention.end),
                 len(tokens))
        b = a - 1

    mention_pieces = [(w, pid) for w in range(a, b + 1) for pid in pieces[w]]
    budget = max_len - 4 - len(mention_pieces)
    if budget < 0:
        mention_pieces = mention_pieces[: max_len - 4]
        budget = 0

    lo, hi = a, b
    first, last = 0, len(tokens) - 1  # the farthest words each side may still take
    while lo > first or hi < last:
        left = lo > first and (hi == last or a - (lo - 1) <= (hi + 1) - b)
        w = lo - 1 if left else hi + 1
        if len(pieces[w]) > budget:  # the budget only shrinks: this side is done
            first, last = (lo, last) if left else (first, hi)
            continue
        budget -= len(pieces[w])
        lo, hi = (w, hi) if left else (lo, w)

    pairs = [  # (word, piece id)
        (NO_WORD, CLS_ID),
        *((w, pid) for w in range(lo, a) for pid in pieces[w]),
        (NO_WORD, S_MARK_ID),
        *mention_pieces,
        (NO_WORD, E_MARK_ID),
        *((w, pid) for w in range(b + 1, hi + 1) for pid in pieces[w]),
        (NO_WORD, SEP_ID),
    ]
    word_index, ids = (list(column) for column in zip(*pairs))

    return LabeledSequence(
        subtoken_ids=ids,
        word_index=word_index,
        origin=(doc_id, sent.span),
    )


@dataclass
class TaskModel:
    model: EncoderModel
    train_config: TrainConfig
    history: list[float]  # per-epoch dev accuracy


@dataclass
class ClassifierBundle:
    """One independently trained model per classification task.

    Construction checks once that the classifiers share the bundle's
    vocabulary and agree on every config field that shapes the forward
    pass (`encoder.FORWARD_FIELDS`), and raises ConfigError if not. With
    all five dimension classifiers present, it also stacks their models in
    `CONTEXT_STACK` order into `contexts` (`encoder.stack_models`), which
    `predict_contexts` runs as one forward pass; the weights stay each
    model's own. A model moves into the stack of the last bundle built
    over it.
    """

    tasks: dict[str, TaskModel]
    vocab: Vocabulary
    max_len: int = field(init=False)  # the one example length every classifier reads
    contexts: Optional[EncoderModel] = field(init=False, default=None, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigError("a classifier bundle needs at least one classifier")
        models = {name: tm.model for name, tm in self.tasks.items()}
        check_agreement(models)
        name, first = next(iter(models.items()))
        rows = first.params["tok_emb"].shape[0]
        if rows != len(self.vocab):
            raise ConfigError(f"classifier {name} has {rows} vocabulary rows, "
                              f"the bundle's vocabulary {len(self.vocab)} pieces")
        self.max_len = first.config.max_len
        if all(task.name in models for task in CONTEXT_STACK.tasks):
            self.contexts = stack_models({task.name: models[task.name]
                                          for task in CONTEXT_STACK.tasks})


def mention_examples(
    docs: Sequence[AnnotatedDocument],
    sentences: Iterable[Sequence[Sentence]],
    spans: Iterable[Sequence[CharSpan]],
    vocab: Vocabulary,
    max_len: int,
) -> tuple[list[tuple[int, int]], list[LabeledSequence]]:
    """The marker example of every mention, built in the sentence holding it.

    `sentences` and `spans` give each document's split sentences and its
    mention spans, in `docs` order. Returns the examples in document then
    mention order, each with its (document index, mention index) key. A
    mention not contained in one sentence is skipped with a warning: no
    classifier can see it.
    """
    keys: list[tuple[int, int]] = []
    seqs: list[LabeledSequence] = []
    for d, (doc, sents, doc_spans) in enumerate(zip(docs, sentences, spans)):
        starts = [sent.span.start for sent in sents]
        for j, span in enumerate(doc_spans):
            i = bisect_right(starts, span.start) - 1
            if i >= 0 and sents[i].span.contains(span):
                keys.append((d, j))
                seqs.append(
                    build_classification_example(sents[i], span, vocab, max_len, doc.doc_id)
                )
            else:
                warnings.warn(f"{doc.doc_id}: mention {span} not contained in a sentence; "
                              "skipped for classification")
    return keys, seqs


def gold_examples(
    docs: Sequence[AnnotatedDocument],
    task: ClassificationTask | TaskStack,
    vocab: Vocabulary,
    max_len: int,
) -> tuple[list[tuple[str, MedicationMention]], list[LabeledSequence]]:
    """The marker example of every gold mention `task` covers, with its
    (doc_id, mention), as `mention_examples` orders and skips them. Event
    covers every mention; a dimension task or stack, Disposition mentions
    only. Only documents holding a covered mention are split."""
    mentions = [
        [m for m in doc.mentions if task is EVENT_TASK or m.event is EventLabel.DISPOSITION]
        for doc in docs
    ]
    keys, seqs = mention_examples(
        docs, (split_text(doc.text) if ms else [] for doc, ms in zip(docs, mentions)),
        ([m.span for m in ms] for ms in mentions), vocab, max_len,
    )
    return [(docs[d].doc_id, mentions[d][j]) for d, j in keys], seqs


def collect_task_examples(
    docs: Sequence[AnnotatedDocument],
    task: ClassificationTask,
    vocab: Vocabulary,
    max_len: int,
) -> list[LabeledSequence]:
    """Labeled examples for one task, over the gold mentions it covers."""
    gold, seqs = gold_examples(docs, task, vocab, max_len)
    for (_, m), seq in zip(gold, seqs):
        seq.label = task.classes.index(m.event if task.attr is None
                                       else getattr(m.context, task.attr))
    return seqs


def classify_batch(
    model: EncoderModel, task: ClassificationTask | TaskStack, seqs: Sequence[LabeledSequence]
) -> list:
    """Argmax class ids in input order; ties break toward the lowest index.

    For a TaskStack, `model` is the stack of its tasks' models, in its
    order, and each sequence gets a list of class ids, one per task.
    """
    names = tuple(t.name for t in task.tasks) if isinstance(task, TaskStack) else task.name
    return predict_batch(model, seqs, names)


def predict_events(
    bundle: ClassifierBundle, examples: Sequence[LabeledSequence]
) -> list[EventLabel]:
    """The Event classifier over marker examples, in input order."""
    ids = classify_batch(bundle.tasks["Event"].model, EVENT_TASK, examples)
    return [EVENT_TASK.classes[i] for i in ids]


def predict_contexts(
    bundle: ClassifierBundle, examples: Sequence[LabeledSequence]
) -> list[ContextAttributes]:
    """The five dimension classifiers over every example, run as one
    stacked forward pass, assembled into one ContextAttributes per example."""
    if bundle.contexts is None:
        raise ConfigError("the bundle lacks context classifiers")
    return [ContextAttributes(**{t.attr: t.classes[i] for t, i in zip(CONTEXT_STACK.tasks, ids)})
            for ids in classify_batch(bundle.contexts, CONTEXT_STACK, examples)]


def _accuracy(model: EncoderModel, task: ClassificationTask,
              seqs: Sequence[LabeledSequence]) -> float:
    if not seqs:
        return 1.0
    preds = classify_batch(model, task, seqs)
    hits = sum(1 for p, s in zip(preds, seqs) if p == s.label)
    return hits / len(seqs)


def train_task(
    corpus: Corpus,
    task: ClassificationTask,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    log: Optional[Callable[[str], None]] = None,
) -> TaskModel:
    """Fine-tune one classifier, keeping the best dev-accuracy epoch.

    With fewer than two observed classes in training data a constant
    classifier is produced (with a warning) instead of training.
    """
    if not corpus.train or not corpus.dev:
        raise DataError("train and dev splits must be non-empty")
    train_examples = collect_task_examples(corpus.train, task, vocab, enc_cfg.max_len)
    dev_examples = collect_task_examples(corpus.dev, task, vocab, enc_cfg.max_len)

    observed = sorted({s.label for s in train_examples})
    model = init_model(enc_cfg, len(vocab), {task.name: len(task.classes)})
    if len(observed) < 2:
        warnings.warn(
            f"task {task.name}: fewer than two classes observed in training "
            "data; producing a constant classifier"
        )
        head_w = model.params[f"seq_head.{task.name}.w"]
        head_b = model.params[f"seq_head.{task.name}.b"]
        head_w[:] = 0.0
        head_b[:] = 0.0
        if observed:
            head_b[observed[0]] = 1.0
        history = [_accuracy(model, task, dev_examples)]
        return TaskModel(model=model, train_config=train_cfg, history=history)

    result = fit(
        model,
        train_examples,
        train_cfg,
        lambda m: _accuracy(m, task, dev_examples),
        task=task.name,
        log=log,
    )
    return TaskModel(model=model, train_config=train_cfg, history=result.history)


def train_all_tasks(
    corpus: Corpus,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    log: Optional[Callable[[str], None]] = None,
) -> ClassifierBundle:
    tasks = {}
    for name, task in TASKS.items():
        if log:
            log(f"training task {name}")
        tasks[name] = train_task(corpus, task, enc_cfg, train_cfg, vocab, log=log)
    return ClassifierBundle(tasks=tasks, vocab=vocab)

