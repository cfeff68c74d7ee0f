"""Event classification and the five context-dimension classifiers.

Every task uses the same mention-anchored input: the sentence's pieces with
[S]/[E] markers bracketing the mention, classified from the concatenation
of the CLS and marker representations.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import (
    CONTEXT_DIMENSIONS,
    AnnotatedDocument,
    CharSpan,
    ContextAttributes,
    Corpus,
    EventLabel,
)
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    fit,
    init_model,
    length_chunks,
    sequence_logits_batch,
)
from .errors import ConfigError, SpanRangeError
from .preproc import (
    CLS_ID,
    E_MARK_ID,
    NO_WORD,
    PAD_ID,
    S_MARK_ID,
    SEP_ID,
    LabeledSequence,
    Sentence,
    Vocabulary,
    split_text,
    subword_encode,
)

CLASSIFY_MAX_LEN = 256
CLASSIFY_BATCH = 64


@dataclass(frozen=True)
class ClassificationTask:
    name: str
    classes: tuple[str, ...]


EVENT_TASK = ClassificationTask(
    "Event", tuple(e.value for e in EventLabel)
)

TASKS: dict[str, ClassificationTask] = {"Event": EVENT_TASK}
for _dim, (_enum, _) in CONTEXT_DIMENSIONS.items():
    TASKS[_dim] = ClassificationTask(_dim, tuple(v.value for v in _enum))

DIMENSION_TASKS = tuple(t for name, t in TASKS.items() if name != "Event")


def build_classification_example(
    sent: Sentence,
    mention: CharSpan,
    vocab: Vocabulary,
    max_len: int = CLASSIFY_MAX_LEN,
    doc_id: str = "",
) -> LabeledSequence:
    """Marker-bracketed sequence for one mention, padded to exactly max_len.

    When the sentence is too long, whole words farthest from the mention are
    dropped (a window centered on the mention); the specials and every
    mention piece are always kept.
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

    mention_pieces: list[tuple[int, int]] = []  # (word, piece id)
    for w in range(a, b + 1):
        mention_pieces.extend((w, pid) for pid in pieces[w])
    budget = max_len - 4 - len(mention_pieces)
    if budget < 0:
        mention_pieces = mention_pieces[: max_len - 4]
        budget = 0

    lo, hi = a, b
    while True:
        can_left = lo > 0
        can_right = hi < len(tokens) - 1
        if not can_left and not can_right:
            break
        if can_left and (not can_right or a - (lo - 1) <= (hi + 1) - b):
            side, w = "left", lo - 1
        else:
            side, w = "right", hi + 1
        if len(pieces[w]) > budget:
            break
        budget -= len(pieces[w])
        if side == "left":
            lo = w
        else:
            hi = w

    ids = [CLS_ID]
    word_index = [NO_WORD]
    for w in range(lo, a):
        ids.extend(pieces[w])
        word_index.extend([w] * len(pieces[w]))
    ids.append(S_MARK_ID)
    word_index.append(NO_WORD)
    for w, pid in mention_pieces:
        ids.append(pid)
        word_index.append(w)
    ids.append(E_MARK_ID)
    word_index.append(NO_WORD)
    for w in range(b + 1, hi + 1):
        ids.extend(pieces[w])
        word_index.extend([w] * len(pieces[w]))
    ids.append(SEP_ID)
    word_index.append(NO_WORD)

    mask = [1] * len(ids)
    while len(ids) < max_len:
        ids.append(PAD_ID)
        mask.append(0)
        word_index.append(NO_WORD)

    return LabeledSequence(
        subtoken_ids=ids,
        attention_mask=mask,
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
    """One independently trained model per classification task."""

    tasks: dict[str, TaskModel]
    vocab: Vocabulary

    @property
    def max_len(self) -> int:
        """The one example length every classifier of the bundle reads."""
        lengths = {tm.model.config.max_len for tm in self.tasks.values()}
        if len(lengths) != 1:
            raise ConfigError(f"classifiers disagree on max_len: {sorted(lengths)}")
        return lengths.pop()


def mention_examples(
    doc_id: str,
    sentences: Sequence[Sentence],
    spans: Sequence[CharSpan],
    vocab: Vocabulary,
    max_len: int = CLASSIFY_MAX_LEN,
) -> list[Optional[LabeledSequence]]:
    """The marker example of each mention, built in the sentence holding it.

    A mention not contained in one sentence gets None and a warning: no
    classifier can see it.
    """
    starts = [sent.span.start for sent in sentences]
    out: list[Optional[LabeledSequence]] = []
    for span in spans:
        i = bisect_right(starts, span.start) - 1
        if i >= 0 and sentences[i].span.contains(span):
            out.append(build_classification_example(sentences[i], span, vocab, max_len, doc_id))
        else:
            warnings.warn(f"{doc_id}: mention {span} not contained in a sentence; "
                          "skipped for classification")
            out.append(None)
    return out


def collect_task_examples(
    docs: Sequence[AnnotatedDocument],
    task: ClassificationTask,
    vocab: Vocabulary,
    max_len: int = CLASSIFY_MAX_LEN,
) -> list[LabeledSequence]:
    """Labeled examples for one task.

    The Event task covers every gold mention; dimension tasks cover only
    gold Disposition mentions.
    """
    examples: list[LabeledSequence] = []
    attr = None if task.name == "Event" else CONTEXT_DIMENSIONS[task.name][1]
    for doc in docs:
        mentions = [
            m for m in doc.mentions
            if task.name == "Event" or m.event is EventLabel.DISPOSITION
        ]
        seqs = mention_examples(
            doc.doc_id, split_text(doc.text), [m.span for m in mentions], vocab, max_len
        )
        for m, seq in zip(mentions, seqs):
            if seq is not None:
                gold = m.event if attr is None else getattr(m.context, attr)
                seq.label = task.classes.index(gold.value)
                examples.append(seq)
    return examples


def classify_batch(
    model: EncoderModel, task: ClassificationTask, seqs: Sequence[LabeledSequence]
) -> list[int]:
    """Argmax class ids in input order; ties break toward the lowest index."""
    out = [0] * len(seqs)
    for idx in length_chunks(seqs, CLASSIFY_BATCH):
        logits = sequence_logits_batch(model, [seqs[i] for i in idx], task.name)
        for i, best in zip(idx, np.argmax(logits, axis=-1)):
            out[i] = int(best)
    return out


def predict_events(
    bundle: ClassifierBundle, examples: Sequence[LabeledSequence]
) -> list[EventLabel]:
    """The Event classifier over marker examples, in input order."""
    ids = classify_batch(bundle.tasks["Event"].model, EVENT_TASK, examples)
    return [EventLabel(EVENT_TASK.classes[i]) for i in ids]


def predict_contexts(
    bundle: ClassifierBundle, examples: Sequence[LabeledSequence]
) -> list[ContextAttributes]:
    """The five dimension classifiers, each run independently over every
    example, assembled into one ContextAttributes per example."""
    columns = {}
    for task in DIMENSION_TASKS:
        enum_cls, attr = CONTEXT_DIMENSIONS[task.name]
        ids = classify_batch(bundle.tasks[task.name].model, task, examples)
        columns[attr] = [enum_cls(task.classes[i]) for i in ids]
    return [
        ContextAttributes(**{attr: labels[k] for attr, labels in columns.items()})
        for k in range(len(examples))
    ]


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
    enc_cfg: EncoderConfig = EncoderConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    vocab: Optional[Vocabulary] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TaskModel:
    """Fine-tune one classifier, keeping the best dev-accuracy epoch.

    With fewer than two observed classes in training data a constant
    classifier is produced (with a warning) instead of training.
    """
    if vocab is None:
        from .preproc import build_vocab

        vocab = build_vocab([d.text for d in corpus.train])
    enc_cfg = replace(enc_cfg, vocab_size=len(vocab))
    train_examples = collect_task_examples(corpus.train, task, vocab, enc_cfg.max_len)
    dev_examples = collect_task_examples(corpus.dev, task, vocab, enc_cfg.max_len)

    observed = sorted({s.label for s in train_examples})
    model = init_model(enc_cfg, {task.name: len(task.classes)})
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
        "sequence",
        train_cfg,
        lambda m: _accuracy(m, task, dev_examples),
        task=task.name,
        log=log,
    )
    return TaskModel(model=model, train_config=train_cfg, history=result.history)


def train_all_tasks(
    corpus: Corpus,
    enc_cfg: EncoderConfig = EncoderConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    vocab: Optional[Vocabulary] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ClassifierBundle:
    if vocab is None:
        from .preproc import build_vocab

        vocab = build_vocab([d.text for d in corpus.train])
    tasks = {}
    for name, task in TASKS.items():
        if log:
            log(f"training task {name}")
        tasks[name] = train_task(corpus, task, enc_cfg, train_cfg, vocab, log=log)
    return ClassifierBundle(tasks=tasks, vocab=vocab)

