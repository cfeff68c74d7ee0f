"""Document/annotation data model, standoff I/O, corpus loading, and label statistics.

Annotations live in standoff files next to the raw text, one record per line:

    T<n>\\tDrug <start> <end>\\t<surface>
    E<n>\\t<EventLabel>:T<m>
    A<n>\\t<DimName> E<m> <Value>

Offsets are character offsets into the UTF-8 text with line endings
normalized to LF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import (
    ConflictError,
    DataError,
    DuplicateDocIdError,
    IntegrityError,
    MissingPairError,
    RxtractError,
    SchemaError,
    SpanRangeError,
    StandoffParseError,
)


class EventLabel(str, Enum):
    DISPOSITION = "Disposition"
    NO_DISPOSITION = "NoDisposition"
    UNDETERMINED = "Undetermined"


class ActionLabel(str, Enum):
    START = "Start"
    STOP = "Stop"
    INCREASE = "Increase"
    DECREASE = "Decrease"
    UNIQUE_DOSE = "UniqueDose"
    OTHER_CHANGE = "OtherChange"
    UNKNOWN = "Unknown"


class NegationLabel(str, Enum):
    NEGATED = "Negated"
    NOT_NEGATED = "NotNegated"


class TemporalityLabel(str, Enum):
    PAST = "Past"
    PRESENT = "Present"
    FUTURE = "Future"
    UNKNOWN = "Unknown"


class CertaintyLabel(str, Enum):
    CERTAIN = "Certain"
    HYPOTHETICAL = "Hypothetical"
    CONDITIONAL = "Conditional"
    UNKNOWN = "Unknown"


class ActorLabel(str, Enum):
    PHYSICIAN = "Physician"
    PATIENT = "Patient"
    UNKNOWN = "Unknown"


# Dimension name -> (enum, attribute name on ContextAttributes), in canonical order.
CONTEXT_DIMENSIONS: dict[str, tuple[type[Enum], str]] = {
    "Action": (ActionLabel, "action"),
    "Negation": (NegationLabel, "negation"),
    "Temporality": (TemporalityLabel, "temporality"),
    "Certainty": (CertaintyLabel, "certainty"),
    "Actor": (ActorLabel, "actor"),
}


@dataclass(frozen=True, order=True)
class CharSpan:
    """Half-open character range [start, end) into a document text."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise SpanRangeError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "CharSpan") -> bool:
        return self.start < other.end and other.start < self.end


def check_disjoint(spans: Iterable[CharSpan], what: str) -> None:
    """Raise ConflictError if two of `spans` overlap; `what` names the list."""
    ordered = sorted(spans)
    for a, b in zip(ordered, ordered[1:]):  # in start order, any overlap shows in neighbours
        if a.overlaps(b):
            raise ConflictError(f"{what}: overlapping spans {a} and {b}")


@dataclass(frozen=True)
class ContextAttributes:
    """The five orthogonal context dimensions of a medication change.

    Unannotated dimensions default to Unknown; negation, which has no
    Unknown category, defaults to NotNegated.
    """

    action: ActionLabel = ActionLabel.UNKNOWN
    negation: NegationLabel = NegationLabel.NOT_NEGATED
    temporality: TemporalityLabel = TemporalityLabel.UNKNOWN
    certainty: CertaintyLabel = CertaintyLabel.UNKNOWN
    actor: ActorLabel = ActorLabel.UNKNOWN

    def as_dict(self) -> dict[str, str]:
        return {
            dim: getattr(self, attr).value
            for dim, (_, attr) in CONTEXT_DIMENSIONS.items()
        }


DEFAULT_CONTEXT = ContextAttributes()


@dataclass(frozen=True)
class MedicationMention:
    """A medication mention with its event label and optional context."""

    span: CharSpan
    surface: str
    event: EventLabel
    context: Optional[ContextAttributes] = None


@dataclass
class AnnotatedDocument:
    """Raw text plus medication mentions, sorted by span."""

    doc_id: str
    text: str
    mentions: list[MedicationMention] = field(default_factory=list)

    def validate(self) -> None:
        """Documents are mutable: check one after building or editing it."""
        for m in self.mentions:
            if m.span.end > len(self.text):
                raise SpanRangeError(
                    f"{self.doc_id}: span {m.span} exceeds text length {len(self.text)}"
                )
            if m.surface != self.text[m.span.start : m.span.end]:
                raise IntegrityError(
                    f"{self.doc_id}: surface {m.surface!r} != text slice at {m.span}"
                )
            if (m.context is not None) != (m.event is EventLabel.DISPOSITION):
                raise SchemaError(
                    f"{self.doc_id}: context must be present iff event is Disposition"
                )
        check_disjoint((m.span for m in self.mentions), self.doc_id)


SPLIT_NAMES = ("train", "dev", "test")


@dataclass
class Corpus:
    train: list[AnnotatedDocument] = field(default_factory=list)
    dev: list[AnnotatedDocument] = field(default_factory=list)
    test: list[AnnotatedDocument] = field(default_factory=list)

    def split(self, name: str) -> list[AnnotatedDocument]:
        if name not in SPLIT_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def splits(self) -> Iterator[tuple[str, list[AnnotatedDocument]]]:
        for name in SPLIT_NAMES:
            yield name, getattr(self, name)


_EVENT_VALUES = {e.value: e for e in EventLabel}


def normalize_newlines(text: str) -> str:
    """Normalize CRLF / lone CR to LF so offsets are stable across platforms."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _display_surface(raw: str) -> str:
    # Newlines inside a mention cannot survive a line-oriented format;
    # they are stored as single spaces, preserving offsets.
    return raw.replace("\n", " ")


def parse_standoff(text: str, ann: str, doc_id: str = "doc") -> AnnotatedDocument:
    """Parse a standoff annotation string against its document text.

    T-lines become mentions, E-lines assign their events, A-lines assign
    context attributes of Disposition mentions. Unset attributes default
    per ContextAttributes.
    """
    text = normalize_newlines(text)
    spans: dict[str, tuple[CharSpan, int]] = {}  # T id -> (span, lineno)
    events: dict[str, tuple[EventLabel, int]] = {}  # T id -> (event, lineno)
    event_ids: dict[str, str] = {}  # E id -> T id
    attrs: list[tuple[str, str, str, int]] = []  # (dim, E id, value, lineno)
    seen_ids: set[str] = set()

    for lineno, line in enumerate(normalize_newlines(ann).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        rid = parts[0]
        if rid in seen_ids:
            raise StandoffParseError(lineno, f"duplicate annotation id {rid!r}")
        seen_ids.add(rid)

        if rid.startswith("T"):
            if len(parts) != 3:
                raise StandoffParseError(lineno, "T record needs 3 TAB-separated fields")
            fields = parts[1].split(" ")
            if len(fields) != 3 or fields[0] != "Drug":
                raise StandoffParseError(lineno, f"bad T record body {parts[1]!r}")
            try:
                start, end = int(fields[1]), int(fields[2])
            except ValueError:
                raise StandoffParseError(lineno, f"non-integer offsets in {parts[1]!r}")
            if not (0 <= start < end <= len(text)):
                raise SpanRangeError(
                    f"line {lineno}: offsets ({start}, {end}) out of bounds for text "
                    f"of length {len(text)}"
                )
            if _display_surface(text[start:end]) != parts[2]:
                raise IntegrityError(
                    f"line {lineno}: surface {parts[2]!r} != text slice "
                    f"{text[start:end]!r}"
                )
            spans[rid] = (CharSpan(start, end), lineno)
        elif rid.startswith("E"):
            if len(parts) != 2 or ":" not in parts[1]:
                raise StandoffParseError(lineno, "E record needs '<Event>:T<m>' body")
            label, target = parts[1].split(":", 1)
            if label not in _EVENT_VALUES:
                raise StandoffParseError(lineno, f"unknown event label {label!r}")
            event_ids[rid] = target
            if target in events:
                raise SchemaError(
                    f"line {lineno}: mention {target} assigned more than one event"
                )
            events[target] = (_EVENT_VALUES[label], lineno)
        elif rid.startswith("A"):
            if len(parts) != 2:
                raise StandoffParseError(lineno, "A record needs 2 TAB-separated fields")
            fields = parts[1].split(" ")
            if len(fields) != 3:
                raise StandoffParseError(lineno, f"bad A record body {parts[1]!r}")
            dim, target, value = fields
            if dim not in CONTEXT_DIMENSIONS:
                raise StandoffParseError(lineno, f"unknown attribute dimension {dim!r}")
            attrs.append((dim, target, value, lineno))
        else:
            raise StandoffParseError(lineno, f"unrecognized record id {rid!r}")

    # Resolve references now that all lines are read (order-independent).
    for eid, target in event_ids.items():
        if target not in spans:
            raise StandoffParseError(
                events[target][1], f"event {eid} references unknown mention {target}"
            )
    for tid, (_, lineno) in spans.items():
        if tid not in events:
            raise SchemaError(f"line {lineno}: mention {tid} has no event annotation")

    attr_values: dict[str, dict[str, Enum]] = {tid: {} for tid in spans}
    for dim, eid, value, lineno in attrs:
        if eid not in event_ids:
            raise StandoffParseError(lineno, f"attribute references unknown event {eid}")
        tid = event_ids[eid]
        event, _ = events[tid]
        if event is not EventLabel.DISPOSITION:
            raise SchemaError(
                f"line {lineno}: attribute {dim} on non-Disposition event {eid}"
            )
        enum_cls, _ = CONTEXT_DIMENSIONS[dim]
        try:
            parsed = enum_cls(value)
        except ValueError:
            raise SchemaError(f"line {lineno}: bad {dim} value {value!r}")
        if dim in attr_values[tid]:
            raise SchemaError(f"line {lineno}: {dim} assigned twice for {tid}")
        attr_values[tid][dim] = parsed

    mentions = []
    for tid, (span, _) in spans.items():
        event, _ = events[tid]
        context = None
        if event is EventLabel.DISPOSITION:
            kwargs = {
                attr: attr_values[tid].get(dim, getattr(DEFAULT_CONTEXT, attr))
                for dim, (_, attr) in CONTEXT_DIMENSIONS.items()
            }
            context = ContextAttributes(**kwargs)
        mentions.append(
            MedicationMention(
                span=span,
                surface=text[span.start : span.end],
                event=event,
                context=context,
            )
        )
    mentions.sort(key=lambda m: m.span)

    doc = AnnotatedDocument(doc_id=doc_id, text=text, mentions=mentions)
    doc.validate()
    return doc


def write_standoff(doc: AnnotatedDocument) -> str:
    """Serialize a document's mentions; inverse of parse_standoff.

    A-lines are written only for attribute values that differ from the
    parse-time defaults, so parse(write(doc)) reproduces doc exactly.
    """
    doc.validate()
    lines: list[str] = []
    next_attr = 1
    for i, m in enumerate(sorted(doc.mentions, key=lambda m: m.span), start=1):
        surface = _display_surface(doc.text[m.span.start : m.span.end])
        lines.append(f"T{i}\tDrug {m.span.start} {m.span.end}\t{surface}")
        lines.append(f"E{i}\t{m.event.value}:T{i}")
        if m.context is not None:
            for dim, (_, attr) in CONTEXT_DIMENSIONS.items():
                value = getattr(m.context, attr)
                if value != getattr(DEFAULT_CONTEXT, attr):
                    lines.append(f"A{next_attr}\t{dim} E{i} {value.value}")
                    next_attr += 1
    return "\n".join(lines) + ("\n" if lines else "")


def read_utf8(path: Path, error: type[Exception] = DataError) -> str:
    """The text of a UTF-8 file; other bytes raise `error`, naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def load_corpus(root: str | Path) -> Corpus:
    """Load train/dev/test splits of paired .txt/.ann files from a directory.

    An error in an annotation file keeps its type and is prefixed with the
    `.ann` path.
    """
    root = Path(root)
    corpus = Corpus()
    seen: set[str] = set()
    for split in SPLIT_NAMES:
        split_dir = root / split
        if not split_dir.is_dir():
            raise MissingPairError(f"missing split directory {split_dir}")
        txts = sorted(split_dir.glob("*.txt"))
        anns = {p.stem for p in split_dir.glob("*.ann")}
        for ann_stem in sorted(anns - {p.stem for p in txts}):
            raise MissingPairError(f"{split_dir / ann_stem}.ann has no .txt file")
        docs = corpus.split(split)
        for txt_path in txts:
            ann_path = txt_path.with_suffix(".ann")
            if not ann_path.is_file():
                raise MissingPairError(f"{txt_path} has no .ann file")
            doc_id = txt_path.stem
            if doc_id in seen:
                raise DuplicateDocIdError(f"{ann_path}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            text = read_utf8(txt_path)
            ann = read_utf8(ann_path)
            try:
                docs.append(parse_standoff(text, ann, doc_id=doc_id))
            except RxtractError as exc:
                exc.args = (f"{ann_path}: {exc}",)  # same type, now naming the file
                raise
    return corpus


def write_corpus_dir(corpus: Corpus, root: str | Path) -> None:
    """Write a corpus as the train/dev/test .txt/.ann layout load_corpus reads."""
    root = Path(root)
    for split, docs in corpus.splits():
        split_dir = root / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            (split_dir / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
            (split_dir / f"{doc.doc_id}.ann").write_text(
                write_standoff(doc), encoding="utf-8"
            )


@dataclass
class SplitStats:
    """Label counts for one corpus split."""

    documents: int
    medications: int
    events: dict[str, int]
    dimensions: dict[str, dict[str, int]]


def corpus_stats(corpus: Corpus) -> dict[str, SplitStats]:
    """Count mentions, event labels, and context categories per split."""
    out: dict[str, SplitStats] = {}
    for split, docs in corpus.splits():
        events = {e.value: 0 for e in EventLabel}
        dims = {
            dim: {v.value: 0 for v in enum_cls}
            for dim, (enum_cls, _) in CONTEXT_DIMENSIONS.items()
        }
        total = 0
        for doc in docs:
            for m in doc.mentions:
                total += 1
                events[m.event.value] += 1
                if m.context is not None:
                    for dim, (_, attr) in CONTEXT_DIMENSIONS.items():
                        dims[dim][getattr(m.context, attr).value] += 1
        out[split] = SplitStats(
            documents=len(docs), medications=total, events=events, dimensions=dims
        )
    return out


def format_stats(stats: dict[str, SplitStats]) -> str:
    """Render the stats table as aligned plain text."""
    cols = stats.values()
    rows = [
        ("Documents", [st.documents for st in cols]),
        ("Medication mentions", [st.medications for st in cols]),
        *((f"Event {ev.value}", [st.events[ev.value] for st in cols]) for ev in EventLabel),
        *((f"{dim} {v.value}", [st.dimensions[dim][v.value] for st in cols])
          for dim, (enum_cls, _) in CONTEXT_DIMENSIONS.items() for v in enum_cls),
    ]
    header = f"{'category':<28}" + "".join(f"{s:>10}" for s in stats)
    return "\n".join([header, "-" * len(header),
                      *(f"{label:<28}" + "".join(f"{n:>10}" for n in counts)
                        for label, counts in rows)])
