"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the traced rxtract
modules with a timing wrapper, in every rxtract module namespace that holds
a reference to it, so calls made through `from .x import f` bindings are
caught at their call sites. `uninstall()` puts the originals back; with the
wrappers out, the program runs exactly as untraced.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by the wrapped calls it made; its inclusive time is counted
only on the outermost entry, so recursive calls are not counted twice.
Spans are aggregated in memory per name; hooks attach work counts (rows,
real positions) measured from a call's arguments and result.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "rxtract"
TRACED_MODULES = (
    "encoder", "preproc", "ner", "context", "pipeline", "artifacts", "synth", "evaluation",
)

# Per-word leaf helpers: wrapping them would time the wrapper more than the
# work, so their cost stays in the self time of their callers.
UNWRAPPED = {"preproc.subword_encode"}


def _packed_fill(args, kwargs, result, counts):
    mask = result.mask
    counts["encoder.pack.real"] += float(mask.sum())
    counts["encoder.pack.slots"] += mask.size


def _forward_rows(args, kwargs, result, counts):
    counts["encoder.forward_batch.rows"] += len(args[1] if len(args) > 1 else kwargs["seqs"])


def _align_fill(args, kwargs, result, counts):
    counts["preproc.align.real"] += sum(result.attention_mask)
    counts["preproc.align.emitted"] += len(result.subtoken_ids)


def _classify_group(args, kwargs):
    task = args[1] if len(args) > 1 else kwargs["task"]
    return "Event" if task.name == "Event" else "dims"


HOOKS = {
    "encoder.pack_batch": _packed_fill,
    "encoder.forward_batch": _forward_rows,
    "preproc.align_to_subtokens": _align_fill,
}

# Calls whose inclusive time is also kept per argument group.
GROUPED = {"context.classify_batch": _classify_group}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


@dataclass
class TraceData:
    layers: dict = field(default_factory=lambda: defaultdict(LayerStats))
    counts: dict = field(default_factory=lambda: defaultdict(float))

    def layer(self, name: str) -> LayerStats:
        return self.layers.get(name, LayerStats())


class Tracer:
    """Installs and removes the wrappers; records into `self.data`."""

    def __init__(self):
        self.data = TraceData()
        self._stack: list[list] = []  # [name, start, child_s]
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        group = GROUPED.get(name)
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                stats = self.data.layers[name]
                stats.calls += 1
                stats.self_s += dur - frame[2]
                if active[name] == 0:
                    stats.incl_s += dur
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(args, kwargs, result, self.data.counts)
            if group is not None:
                sub = self.data.layers[f"{name}.{group(args, kwargs)}"]
                sub.calls += 1
                sub.incl_s += dur
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                originals[id(fn)] = (fn, self._wrap(name, fn))
                self.wrapped.add(name)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def missing(self, names) -> list[str]:
        """Names the metrics need that no longer exist as public functions."""
        return sorted(n for n in names if n not in self.wrapped)

    def take(self) -> TraceData:
        """Return what was recorded so far and start a fresh record."""
        data, self.data = self.data, TraceData()
        return data
