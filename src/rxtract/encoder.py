"""Desk-scale transformer encoder with classification heads.

Everything numerical lives here: the forward pass, hand-written
reverse-mode gradients, the adaptive-moment optimizer, and the
finite-difference gradient verification harness. Arrays are plain numpy;
no autodiff framework is involved, so the gradient check is a genuinely
independent second route. An encoder layer is two sub-layers, each a
forward/backward pair (`_attention_fwd`/`_attention_bwd`,
`_ffn_fwd`/`_ffn_bwd`): the forward returns its output and, if asked to
keep it, a cache that only its backward reads (else None, so that
inference holds no activations); the backward adds its weights' gradients
into gradient views and returns its input's gradient. Every weight
product, Q, K, V, the output projection, both FFN maps and the heads, is
the pair `_affine`/`_affine_bwd`, and `_layernorm_bwd` likewise adds its
gain's and bias's gradients into the views it is given. A sequence head
reads three rows per sequence, so for one the last layer runs at those rows
alone from its Q projection on, in training as at inference.

A model's parameters are one contiguous buffer (`FlatParams.flat`) with
every tensor a named view into it, in `_param_layout` order; gradients and
the optimizer's moments share that layout, so the optimizer and the
best-epoch copy in `fit` run on whole buffers. Write into
`model.params[name]`; a key cannot be rebound to a new array. Sub-layers
take their layer's views (`FlatParams.layers`), not names; a `stack_models`
stack's views over its (M, W) buffer come from the same code. Q, K and V
are one grouped product over the layer's "attn.wqkv" view (K and V alone
where only some rows query): one numpy call runs the three GEMMs their
own products would, with the same bits.

`pack_batch` builds what every forward reads, `ids` and `mask`; the rest
of its `Packed` is built on first read, so inference pays for none of
the training targets. A forward over a batch without padding skips the
attention key mask, which would mask nothing.

Elementwise work runs in place, in arrays this module allocated during
the call: a bias is added into its product's buffer, a residual into the
sum that a layer norm then normalizes in place, and GELU, softmax,
dropout and their gradients overwrite arrays that nothing reads
afterwards. Each keeps every operation's
operands and association, so the bits are those of the plain
expressions; a constant enters as a 0-d array of the activations' dtype
(`_scalars`), which computes what the Python number does. Never write
into a parameter view, into an array the caller still holds, or into a
cached array before the backward has read it: the `keep` arguments say
which arrays the cache holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice, repeat, takewhile
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, SequenceLengthError
from .preproc import (
    E_MARK_ID,
    NO_WORD,
    S_MARK_ID,
    BioTag,
    LabeledSequence,
)

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
NEG_INF = -1e9
N_BIO = len(BioTag)
INFERENCE_BATCH = 64  # sequences per inference chunk
GRAD_CHECK_STEP = 1e-5  # grad_check's finite-difference step
TOY_CLASSES = 3  # the class count of toy_examples' labels, and of the head they train

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    hidden_dim: int = 128
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = 256
    dropout_rate: float = 0.1
    seed: int = 0
    precision: int = 32  # 32 or 64

    def __post_init__(self) -> None:
        if self.layers < 1 or self.hidden_dim < 1 or self.ffn_dim < 1:
            raise ConfigError("layers, hidden_dim, and ffn_dim must be positive")
        if self.heads < 1 or self.hidden_dim % self.heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}"
            )
        if self.max_len < 8:
            raise ConfigError("max_len must be at least 8")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == 32 else np.float64)


class FlatParams(Mapping[str, np.ndarray]):
    """Named tensors laid out back to back along the last axis of one buffer.

    `layout` lists (name, shape) pairs in buffer order. `flat` is a model's
    1-D buffer, or a `stack_models` stack's (M, W) one, whose views carry
    the model axis. Every value is a view into `flat`, so writing into
    `self[name]` writes the buffer and an operation on `flat` reaches every
    tensor; a key cannot be rebound. `heads` adds views of other buffers (a
    stack's heads), which `zeros_like` and `copy` leave out. `layers[i]`
    holds encoder layer i's views by in-layer name ("attn.wq"), vectors
    shaped (..., 1, n) to broadcast over rows, so a layer call names no layer.
    Where the layout puts them back to back, as `_param_layout` does, a
    layer also holds Q, K and V as one group over the same memory:
    "attn.wqkv" (..., 3, H, H) and "attn.bqkv" (..., 3, 1, H), and K and V
    alone as "attn.wkv" and "attn.bkv".
    """

    def __init__(self, flat: np.ndarray, layout: Sequence[tuple[str, tuple[int, ...]]],
                 heads: Iterable[tuple[str, np.ndarray]] = ()):
        self.flat = flat
        self.layout = tuple(layout)
        self._views: dict[str, np.ndarray] = {}
        layers: dict[str, dict[str, np.ndarray]] = {}
        lead = flat.shape[:-1]
        offset = 0
        last2 = (None, None)  # the two entries before this one
        for name, shape in self.layout:
            size = math.prod(shape)
            view = self._views[name] = flat[..., offset : offset + size].reshape(*lead, *shape)
            pre, _, sub = name.partition(".")
            if pre.startswith("layer"):  # in layout order, layer0 first
                views = layers.setdefault(pre, {})
                views[sub] = view[..., None, :] if len(shape) == 1 else view
                # Q, K and V back to back, of one shape: also one group of three
                stem = sub[:-1]  # "attn.w" or "attn.b"
                if sub in ("attn.wv", "attn.bv") and last2 == ((f"{pre}.{stem}q", shape),
                                                               (f"{pre}.{stem}k", shape)):
                    qkv = flat[..., offset - 2 * size : offset + size].reshape(
                        *lead, 3, *views[sub].shape[len(lead):])
                    views[f"{stem}qkv"], views[f"{stem}kv"] = qkv, qkv[..., 1:, :, :]
            last2 = (last2[1], (name, shape))
            offset += size
        self._views.update(heads)
        self.layers = list(layers.values())

    def zeros_like(self) -> "FlatParams":
        return FlatParams(np.zeros_like(self.flat), self.layout)

    def copy(self) -> "FlatParams":
        return FlatParams(self.flat.copy(), self.layout)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        # `params[name] += x` updates the view in place, then stores it back
        if value is not self._views.get(name):
            raise TypeError(f"write into params[{name!r}][...]; a key cannot be rebound")

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class EncoderModel:
    """Parameters plus configuration. `vocab_size` is the row count of
    `params["tok_emb"]`, and a sequence head's class count the column count
    of its weight, named by `head_names`."""

    config: EncoderConfig
    params: FlatParams  # over a (M, W) buffer, plus each model's head, for a stack

    @property
    def vocab_size(self) -> int:
        return self.params["tok_emb"].shape[-2]


def check_vocab_rows(name: str, model: EncoderModel, pieces: int) -> None:
    """Raise ConfigError unless `model` has one embedding row per vocabulary piece."""
    if model.vocab_size != pieces:
        raise ConfigError(f"{name} has {model.vocab_size} vocabulary rows, "
                          f"the bundle's vocabulary {pieces} pieces")


def head_names(task: Optional[str]) -> tuple[str, str]:
    """The weight and bias names of `task`'s sequence head, or the token head's."""
    prefix = "token_head" if task is None else f"seq_head.{task}"
    return f"{prefix}.w", f"{prefix}.b"


def _head_task(name: str) -> Optional[str]:
    """The task whose sequence head's weight `name` is, else None."""
    if name.startswith("seq_head.") and name.endswith(".w"):
        return name[len("seq_head."):-len(".w")]
    return None


def head_widths(shapes: Iterable[tuple[str, tuple[int, ...]]]) -> dict[str, int]:
    """The class count of each sequence head among (name, shape) pairs."""
    return {task: shape[-1] for name, shape in shapes if (task := _head_task(name))}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 16
    max_epochs: int = 20
    patience: int = 3
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.clip_norm)):
            raise ConfigError("learning_rate and clip_norm must be finite")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


def _param_layout(cfg: EncoderConfig, vocab_size: int, n_classes: Mapping[str, int]):
    """The parameters' total size, and an iterator over the name, shape and
    initial fill of each, in creation order. The size is known before any
    layer's entries are listed."""
    if vocab_size < 1:
        raise ConfigError("vocab_size must be positive")
    h, f = cfg.hidden_dim, cfg.ffn_dim
    embed = [("tok_emb", (vocab_size, h), "uniform"), ("pos_emb", (cfg.max_len, h), "uniform")]
    layer = [(f"attn.{name}", (h, h), "uniform") for name in ("wq", "wk", "wv", "wo")]
    layer += [(f"attn.{name}", (h,), "zeros") for name in ("bq", "bk", "bv", "bo")]
    layer += [
        ("ln1.gain", (h,), "ones"),
        ("ln1.bias", (h,), "zeros"),
        ("ffn.w1", (h, f), "uniform"),
        ("ffn.b1", (f,), "zeros"),
        ("ffn.w2", (f, h), "uniform"),
        ("ffn.b2", (h,), "zeros"),
        ("ln2.gain", (h,), "ones"),
        ("ln2.bias", (h,), "zeros"),
    ]
    heads = []
    for task in (None, *sorted(n_classes)):  # the token head reads one row, a task's three
        rows, n = (h, N_BIO) if task is None else (3 * h, n_classes[task])
        if n < 1:
            raise ConfigError(f"task {task!r} needs at least one class")
        w, b = head_names(task)
        heads += [(w, (rows, n), "uniform"), (b, (n,), "zeros")]
    size = sum(math.prod(shape) for _, shape, _ in (*embed, *heads))
    size += cfg.layers * sum(math.prod(shape) for _, shape, _ in layer)
    layers = ((f"layer{i}.{name}", shape, fill)
              for i in range(cfg.layers) for name, shape, fill in layer)
    return size, chain(embed, layers, heads)


def param_shapes(
    cfg: EncoderConfig, vocab_size: int, n_classes: Mapping[str, int] | None = None
) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter `init_model(cfg, vocab_size, n_classes)`
    creates."""
    _, layout = _param_layout(cfg, vocab_size, dict(n_classes or {}))
    return {name: shape for name, shape, _ in layout}


def init_model(
    cfg: EncoderConfig, vocab_size: int, n_classes: Mapping[str, int] | None = None
) -> EncoderModel:
    """Build a model over a `vocab_size`-piece vocabulary with seeded
    uniform(-0.02, 0.02) weights, zero biases, and unit layer-norm gains.
    A model too large to allocate is a ConfigError."""
    size, layout = _param_layout(cfg, vocab_size, dict(n_classes or {}))
    rng = np.random.default_rng(cfg.seed)
    try:
        flat = np.zeros(size, cfg.dtype)  # before the layout is listed, so a huge one fails fast
        layout = list(layout)
        params = FlatParams(flat, [(name, shape) for name, shape, _ in layout])
        for name, shape, fill in layout:
            if fill == "uniform":
                params[name][...] = rng.uniform(-0.02, 0.02, size=shape)
            elif fill == "ones":
                params[name][...] = 1.0
    except MemoryError:
        raise ConfigError(f"a model of {size:,} parameters does not fit in memory") from None
    return EncoderModel(config=cfg, params=params)


# ---------------------------------------------------------------------------
# forward / backward primitives


def _affine(x, w, b):
    """`x @ w + b`, with the bias added into the product's buffer."""
    y = x @ w
    y += b
    return y


def _affine_bwd(x, dy, w, g, w_name, b_name):
    """The backward of `_affine(x, w[w_name], w[b_name])` over (N, n) rows:
    adds the weight's and the bias's gradients into `g`, and returns the
    input's gradient."""
    g[w_name] += x.T @ dy
    g[b_name] += dy.sum(axis=0)
    return dy @ w[w_name].T


def _mean_last(x):
    """`x.mean(axis=-1, keepdims=True)`, bit for bit, without numpy's
    Python-level wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _row_max(x):
    """`np.max(x, axis=-1, keepdims=True)`, bit for bit, for x without NaN.

    numpy's reduce over a contiguous last axis pays about 0.1 µs per row,
    whatever its length. Up to 256 rows of 8 or more columns, each row's
    maximum is read at its `argmax`, whose loop costs far less per row:
    6.6 against 13.2 µs at (3, 4, 12, 12), a three-row forward's scores.
    With more rows, if they are short, one `np.maximum` per column,
    across all rows at once, is several times faster: 44 against 431 µs
    at (64, 4, 13, 13). Past 32 columns, or under 16 rows per column, the
    reduce was as fast or faster, so it runs there. A maximum is the same
    whatever the order of comparison, except for the sign of a zero, so a
    zero maximum is left to the reduce.
    """
    n = x.shape[-1]
    rows = x.size // n if n else 0
    if 8 <= n and rows <= 256:
        flat = x.reshape(rows, n)
        m = flat[np.arange(rows), flat.argmax(axis=-1)].reshape(*x.shape[:-1], 1)
    elif n > 32 or rows < 16 * n:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    else:
        m = x[..., :1].copy()
        for j in range(1, n):
            np.maximum(m, x[..., j : j + 1], out=m)
    return m if m.all() else np.maximum.reduce(x, axis=-1, keepdims=True)


@lru_cache(maxsize=64)
def _scalars(dtype, *values):
    """`values` as read-only 0-d arrays of `dtype`. As an operand of an
    array of that dtype, each computes what the Python number does, which
    numpy casts to the array's dtype first, and it costs numpy about half
    a µs less per call: at one row, that is a tenth of a layer norm."""
    out = tuple(np.array(v, dtype) for v in values)
    for a in out:
        a.flags.writeable = False
    return out


def _layernorm_fwd(x, gain, bias, keep=False):
    """Layer norm over the last axis of `x`, which it overwrites: `x - mu`
    is formed in `x`, then the normalized `xhat` in place of it. Returns
    the output and, with `keep`, the cache (xhat, inv) `_layernorm_bwd`
    reads, else None; only with `keep` is the output a separate array."""
    # The same roundings as x.mean and x.var, and as 1 / sqrt(var + eps):
    # each statistic is formed in place of the sum it starts from.
    n, eps, one = _scalars(x.dtype, x.shape[-1], LN_EPS, 1.0)
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    x -= mu
    sq = x * x
    inv = np.add.reduce(sq, axis=-1, keepdims=True)  # n * var, then var, then 1 / sqrt
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(one, inv, out=inv)
    x *= inv
    out = np.multiply(x, gain, out=sq if keep else x)
    out += bias
    return out, ((x, inv) if keep else None)


def _layernorm_bwd(dy, cache, gain, dgain, dbias):
    """`_layernorm_fwd`'s backward over (N, n) rows: adds the gain's and
    the bias's gradients into `dgain` and `dbias`, and returns the input's
    gradient."""
    xhat, inv = cache
    tmp = dy * xhat
    dgain += tmp.sum(axis=0)
    dbias += dy.sum(axis=0)
    dx = dy * gain  # dxhat, then dx in place
    m1 = _mean_last(dx)
    m2 = _mean_last(np.multiply(dx, xhat, out=tmp))
    dx -= m1
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx


def _softmax(x):
    """Softmax over the last axis, computed in place of `x`."""
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _log_softmax(x):
    shift = x - _row_max(x)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def _gelu(x, keep=False):
    """Tanh-approximate GELU (Hendrycks & Gimpel, arXiv:1606.08415).

    Returns the activation and its tanh, which `_gelu_grad` reuses. With
    `keep` (the backward reads `x` and the tanh) the activation is a new
    array; else it is written into `x` and the tanh is None. The cube is
    written as products: on float32 a power call is far slower.
    """
    k, c, half, one = _scalars(x.dtype, _GELU_K, _GELU_C, 0.5, 1.0)
    t = x * x
    t *= x
    t *= k
    t += x
    t *= c
    np.tanh(t, out=t)
    if keep:  # (x * 0.5) * (t + 1), as below
        g = x * half
        g *= t + one
        return g, t
    t += one
    x *= half
    x *= t
    return x, None


def _gelu_grad(x, t):
    """Derivative of `_gelu` at `x`, given the tanh it returned there:
    0.5 (1 + t) + 0.5 x (1 - t²) C (1 + 3K x²), in that association."""
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    grad = x * 0.5
    grad *= tmp
    grad *= _GELU_C
    np.multiply(x, 3.0 * _GELU_K, out=tmp)
    tmp *= x
    tmp += 1.0
    grad *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    grad += tmp
    return grad


def _dropout(x, rng, rate, keep=False):
    """`x` with inverted dropout at `rate`, and the mask that scaled it.
    With no `rng` or a rate of 0 nothing is drawn and the mask is None.
    `x` is scaled in place, unless `keep` says the backward reads it."""
    if rng is None or rate == 0:
        return x, None
    p = 1.0 - rate
    mask = (rng.random(x.shape) < p).astype(x.dtype)
    mask /= x.dtype.type(p)
    return (x * mask if keep else np.multiply(x, mask, out=x)), mask


def _undrop(d, mask):
    """The gradient `d` through the dropout that applied `mask`, in place."""
    if mask is not None:
        d *= mask
    return d


def _add_rows(a, rows, values):
    """`np.add.at(a, rows, values)` for a C-contiguous 2-D `a`, bit for bit.

    It runs as 1-D `np.add.at` calls over the flat index of every entry
    (`rows * H + column`), in `values`' order, so each entry of `a` adds
    its terms in the same order as the row-wise call; numpy runs the 1-D
    form several times faster. The rows go 256 at a time, so that each
    index array stays at 256 KB at width 128: one array for a whole
    training batch raised the train workload's peak RSS by about 4 MB.
    """
    h = a.shape[-1]
    rows = rows.reshape(-1, 1)
    values = values.reshape(len(rows), h)
    cols, entries = np.arange(h), a.reshape(-1)
    for start in range(0, len(rows), 256):
        block = slice(start, start + 256)
        np.add.at(entries, (rows[block] * h + cols).reshape(-1), values[block].reshape(-1))


def _joined(rows):
    """The rows end to end, as one int64 array. `rows` is a list, so that a
    MemoryError in `np.fromiter` leaves no suspended generator to close."""
    return np.fromiter(chain.from_iterable(rows), np.int64)


def _first(ids, piece):
    """The position of `piece`'s first occurrence in `ids`, or 0 if none."""
    return ids.index(piece) if piece in ids else 0


class Packed:
    """A minibatch packed to the longest real length it contains.

    `ids` (B, L) int64 and `mask` (B, L) bool, true at each row's first
    len(seq) positions, are built by `pack_batch`, the other fields when
    first read: inference reads only a sequence head's `head_pos`, and
    training reads `loss_mask`, `tags` and `labels` too.
    """

    def __init__(self, seqs: Sequence[LabeledSequence], ids: np.ndarray, mask: np.ndarray):
        self.seqs = seqs
        self.ids = ids
        self.mask = mask

    @cached_property
    def head_pos(self) -> np.ndarray:
        """(B, 3) int64, a sequence head's [CLS], [S] and [E] positions, the
        first of each, or 0 if absent; [CLS] is at 0."""
        return np.array([(0, _first(s.subtoken_ids, S_MARK_ID), _first(s.subtoken_ids, E_MARK_ID))
                         for s in self.seqs], np.int64)

    @cached_property
    def loss_mask(self) -> np.ndarray:
        """(B, L) bool, the real non-special positions."""
        loss_mask = np.zeros(self.mask.shape, dtype=bool)
        loss_mask[self.mask] = _joined([s.word_index for s in self.seqs]) != NO_WORD
        return loss_mask

    @cached_property
    def tags(self) -> np.ndarray:
        """(B, L) int64, the token head's targets: O where a row has none."""
        o = int(BioTag.O)
        tags = np.full(self.mask.shape, o, dtype=np.int64)
        if any(s.tags is not None for s in self.seqs):
            tags[self.mask] = _joined([repeat(o, len(s)) if s.tags is None else s.tags
                                       for s in self.seqs])
        return tags

    @cached_property
    def labels(self) -> np.ndarray:
        """(B,) int64, a sequence head's targets: 0 where a row has none."""
        return np.array([0 if s.label is None else s.label for s in self.seqs], dtype=np.int64)

    @property
    def origins(self) -> list:
        """Each row's origin, which a non-finite loss names."""
        return [s.origin for s in self.seqs]


def pack_batch(seqs: Sequence[LabeledSequence]) -> Packed:
    """Stack sequences into arrays as wide as the longest one.

    This is the one place that writes padding. Padding positions are
    masked out of attention and excluded from every loss, so a row's real
    positions come out the same whatever it is packed with.
    """
    if not seqs:
        raise DataError("empty batch")
    lengths = [len(s.subtoken_ids) for s in seqs]
    width = max(1, max(lengths))
    if min(lengths) == width:  # no padding
        ids = np.array([s.subtoken_ids for s in seqs], dtype=np.int64)
        return Packed(seqs, ids, np.ones(ids.shape, dtype=bool))
    # `mask` is true at each row's real positions, so in row-major order
    # its true cells take the rows' values one after another
    mask = np.arange(width) < np.array(lengths)[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = _joined([s.subtoken_ids for s in seqs])
    return Packed(seqs, ids, mask)


def _attention_fwd(w, cfg, x, b, key_pad, rng, pick=None, keep=False):
    """One layer's self-attention, output projection, residual and `ln1`
    over (..., B*L, H) rows of `b` sequences, with dropout on the attention
    probabilities. `key_pad` is (B, 1, 1, L), true at padding keys, or None
    where no key is padding; the layer's views `w` and `x` may carry a
    leading model axis (`stack_models`).

    Q, K and V come from one grouped product, `x @ [wq, wk, wv]` over the
    layer's "attn.wqkv" view: three GEMMs in one call, each the GEMM its
    own `_affine` would run, so the bits are the same. Given `pick`, the
    flat positions of R rows per sequence (B*R of them), only those rows
    query: Q is their own product, every position is still a key and a
    value (K and V grouped), and the output is (..., B*R, H), so all that
    follows runs on R rows per sequence. The cache's `q`, `probs` and
    dropout mask then have R rows.
    """
    dk = x.shape[-1] // cfg.heads
    scale, = _scalars(x.dtype, 1.0 / math.sqrt(dk))

    def split(m):  # (..., B*N, H) -> (..., B, nh, N, dk)
        return m.reshape(*m.shape[:-2], b, -1, cfg.heads, dk).swapaxes(-3, -2)

    # (..., G, B*L, H) products; the group axis moved first, so that
    # unpacking takes one projection per name, for a model or a stack
    rows = x[..., None, :, :]
    if pick is None:
        resid = x
        q, k, v = split(_affine(rows, w["attn.wqkv"], w["attn.bqkv"])).swapaxes(0, -5)
    else:
        resid = x[..., pick, :]
        q = split(_affine(resid, w["attn.wq"], w["attn.bq"]))
        k, v = split(_affine(rows, w["attn.wkv"], w["attn.bkv"])).swapaxes(0, -5)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if key_pad is not None:
        np.copyto(scores, x.dtype.type(NEG_INF), where=key_pad)
    probs = _softmax(scores)
    probs_used, drop = _dropout(probs, rng, cfg.dropout_rate, keep)
    ctx = (probs_used @ v).swapaxes(-3, -2).reshape(resid.shape)
    h = _affine(ctx, w["attn.wo"], w["attn.bo"])
    h += resid
    out, ln = _layernorm_fwd(h, w["ln1.gain"], w["ln1.bias"], keep)
    return out, (dict(x=x, pick=pick, q=q, k=k, v=v, scale=scale, probs=probs,
                      probs_used=probs_used, drop=drop, ctx=ctx, ln=ln) if keep else None)


def _attention_bwd(w, dout, c, g):
    """`_attention_fwd`'s backward, for one model, into gradient views `g`.
    With `pick`, `dout` is the gradient at those B*R rows alone: `ln1`,
    `wo`, the Q projection and the softmax run at them, K and V at every
    position, and the input's gradient comes back at all B*L rows."""
    b, nh, r, dk = c["q"].shape

    def merge(m):  # (B, nh, N, dk) -> (B*N, H), undoing the forward's split
        return m.transpose(0, 2, 1, 3).reshape(-1, nh * dk)

    # `dres` is also the residual's gradient: Q, K and V add into it last
    dres = _layernorm_bwd(dout, c["ln"], w["ln1.gain"], g["ln1.gain"], g["ln1.bias"])
    dctx = _affine_bwd(c["ctx"], dres, w, g, "attn.wo", "attn.bo")
    dctx = dctx.reshape(b, r, nh, dk).transpose(0, 2, 1, 3)

    probs = c["probs"]
    dprobs = _undrop(dctx @ c["v"].transpose(0, 1, 3, 2), c["drop"])
    dv = c["probs_used"].transpose(0, 1, 3, 2) @ dctx
    dscores = dprobs  # the softmax's gradient, formed in place
    dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
    dscores *= probs
    dq = dscores @ c["k"]
    dq *= c["scale"]
    dk_ = dscores.transpose(0, 1, 3, 2) @ c["q"]
    dk_ *= c["scale"]

    x, pick = c["x"], c["pick"]
    dres += _affine_bwd(x if pick is None else x[pick], merge(dq), w, g, "attn.wq", "attn.bq")
    if pick is not None:  # a row without markers reads position 0 three times
        dx = np.zeros_like(x)
        _add_rows(dx, pick, dres)
        dres = dx
    dres += _affine_bwd(x, merge(dk_), w, g, "attn.wk", "attn.bk")
    dres += _affine_bwd(x, merge(dv), w, g, "attn.wv", "attn.bv")
    return dres


def _ffn_fwd(w, cfg, y, rng, keep=False):
    """One layer's feed-forward block, residual and `ln2` over (..., N, H)
    rows, with dropout on the GELU's output."""
    a = _affine(y, w["ffn.w1"], w["ffn.b1"])
    g, gelu_tanh = _gelu(a, keep)
    g_used, drop = _dropout(g, rng, cfg.dropout_rate)  # the cache keeps only g_used
    h = _affine(g_used, w["ffn.w2"], w["ffn.b2"])
    h += y
    out, ln = _layernorm_fwd(h, w["ln2.gain"], w["ln2.bias"], keep)
    return out, (dict(y=y, a=a, gelu_tanh=gelu_tanh, g_used=g_used, drop=drop, ln=ln)
                 if keep else None)


def _ffn_bwd(w, dout, c, g):
    """`_ffn_fwd`'s backward, for one model."""
    # `dres` is also the residual's gradient: the FFN's adds into it last
    dres = _layernorm_bwd(dout, c["ln"], w["ln2.gain"], g["ln2.gain"], g["ln2.bias"])
    da = _undrop(_affine_bwd(c["g_used"], dres, w, g, "ffn.w2", "ffn.b2"), c["drop"])
    da *= _gelu_grad(c["a"], c["gelu_tanh"])
    dres += _affine_bwd(c["y"], da, w, g, "ffn.w1", "ffn.b1")
    return dres


def _forward_batch(model, ids, mask, rng=None, rows=None, keep_cache=False):
    """Run the encoder stack; returns final hidden states plus, with
    `keep_cache`, the cache the backward pass consumes (else None).

    Dropout runs at the model's rate exactly when `rng` is given; at rate 0
    nothing is drawn from it. The weights may carry a leading model axis
    (`stack_models`); the hidden states then carry it too, and model `m`'s
    slice is bit for bit what model `m` gives alone. Given `rows`, the last
    layer runs at those (B, R) positions alone (`_attention_fwd`), with and
    without the cache, and the hidden states are (..., B, R, H).
    """
    cfg = model.config
    p = model.params
    b, length = ids.shape
    if length > cfg.max_len:
        raise SequenceLengthError(f"sequence length {length} > max_len {cfg.max_len}")

    # Activations are (..., B*L, H) rows, so each weight product is one GEMM
    # per model.
    # np.take(..., axis=-2) would copy a stack's strided table whole first
    emb = p["tok_emb"][..., ids, :]
    emb += p["pos_emb"][..., None, :length, :]
    x = emb.reshape(*emb.shape[:-3], b * length, cfg.hidden_dim)
    x, emb_mask = _dropout(x, rng, cfg.dropout_rate)

    # masking no key is a no-op, so an unpadded batch (every one-row call) skips it
    key_pad = None if mask.all() else ~mask[:, None, None, :]
    pick = None if rows is None else (np.arange(b)[:, None] * length + rows).ravel()
    cache = dict(ids=ids, emb_mask=emb_mask, layers=[]) if keep_cache else None
    for w in p.layers:
        x, attn = _attention_fwd(w, cfg, x, b, key_pad, rng,
                                 pick if w is p.layers[-1] else None, keep_cache)
        x, ffn = _ffn_fwd(w, cfg, x, rng, keep_cache)
        if cache is not None:
            cache["layers"].append((attn, ffn))
    return x.reshape(*x.shape[:-2], b, -1, cfg.hidden_dim), cache


def _backward_batch(model, cache, d_hidden, grads):
    """Add into `grads` the gradients that `d_hidden`, shaped like
    `_forward_batch`'s hidden states, sends back through its `cache`."""
    ids = cache["ids"]
    dx = d_hidden.reshape(-1, d_hidden.shape[-1])
    for w, g, (attn, ffn) in reversed(list(zip(model.params.layers, grads.layers,
                                               cache["layers"]))):
        dx = _ffn_bwd(w, dx, ffn, g)
        dx = _attention_bwd(w, dx, attn, g)

    dx = _undrop(dx, cache["emb_mask"]).reshape(*ids.shape, -1)
    _add_rows(grads["tok_emb"], ids, dx)
    grads["pos_emb"][: ids.shape[1]] += dx.sum(axis=0)


# ---------------------------------------------------------------------------
# public operations


def length_chunks(seqs: Sequence[LabeledSequence], size: int) -> list[list[int]]:
    """Indices of `seqs` in chunks of at most `size`, in order of length.

    Chunking like-length sequences together keeps the padding `pack_batch`
    adds small. Ties keep input order. The chunks come as a list: a caller
    that runs out of memory in its loop leaves no suspended generator,
    whose closing could fail while memory is still short.
    """
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    return [order[start : start + size] for start in range(0, len(order), size)]


def forward_batch(
    model: EncoderModel,
    seqs: Sequence[LabeledSequence],
    task: Optional[str | tuple[str, ...]] = None,
) -> tuple[np.ndarray, Packed]:
    """Inference-mode hidden states for the head `task` picks, with the
    packing used.

    With no task, the token head's input: every position, (..., B, L, H).
    With a task or a tuple of them, a sequence head's input: each row's
    states at its `head_pos`, (..., B, 3, H), the last layer computed at
    those rows alone.
    """
    packed = pack_batch(seqs)
    rows = None if task is None else packed.head_pos
    hidden, _ = _forward_batch(model, packed.ids, packed.mask, rows=rows)
    return hidden, packed


def _head(model, hidden, task):
    """Logits of the head `task` picks, and the features they read.

    With no task, the token head maps every position's hidden state to
    B/I/O logits. With a task, `hidden` holds each row's states at its
    `Packed.head_pos`, (B, 3, H), and that task's sequence head reads
    their concatenation, concat(hidden[CLS], hidden[S], hidden[E]).
    """
    w_name, b_name = head_names(task)
    try:
        w, b = model.params[w_name], model.params[b_name]
    except KeyError:
        raise ConfigError(f"model has no head for task {task!r}") from None
    feat = hidden if task is None else hidden.reshape(*hidden.shape[:-2], -1)
    return _affine(feat, w, b), feat


# Config fields that shape the forward pass. Models run as one stack must
# agree on them and on their vocabulary size.
FORWARD_FIELDS = ("layers", "hidden_dim", "heads", "ffn_dim", "max_len", "precision")


def check_agreement(models: Mapping[str, EncoderModel]) -> None:
    """Raise ConfigError unless every model has the first one's vocabulary
    size and `FORWARD_FIELDS` values, so that they can run as one stack."""

    def shape(m):
        return {"vocab_size": m.vocab_size, **{f: getattr(m.config, f) for f in FORWARD_FIELDS}}

    (first, ref), *rest = models.items()
    want = shape(ref)
    for name, m in rest:
        got = shape(m)
        for key in want:
            if got[key] != want[key]:
                raise ConfigError(f"classifier {name} has {key} {got[key]}, "
                                  f"classifier {first} has {want[key]}")


def stack_models(models: Mapping[str, EncoderModel]) -> EncoderModel:
    """One model that runs `models` as a stack, for inference.

    Its encoder weights carry a leading model axis in `models` order, and
    it holds each model's head for the task that model is keyed by. The
    models must pass `check_agreement`. Their parameter buffers move into
    the rows of one (M, W) buffer, each model's `FlatParams` over a prefix
    of its row, so every stacked weight is a view of the models' own
    memory: nothing is copied, and a write into a model's parameters shows
    in the stack.
    """
    first = next(iter(models.values()))
    sizes = [m.params.flat.size for m in models.values()]
    buf = np.empty((len(models), max(sizes)), first.config.dtype)
    for row, size, m in zip(buf, sizes, models.values()):
        row[:size] = m.params.flat
        m.params = FlatParams(row[:size], m.params.layout)  # drops the old buffer
    # the seq heads come last; the rest of the layout is every model's
    shared = takewhile(lambda entry: _head_task(entry[0]) is None, first.params.layout)
    heads = ((name, m.params[name]) for task, m in models.items() for name in head_names(task))
    return EncoderModel(first.config, FlatParams(buf, shared, heads))


def _stack_tasks(model: EncoderModel) -> tuple[str, ...]:
    """A `stack_models` stack's tasks in its model order; () for one model."""
    if model.params.flat.ndim == 1:
        return ()
    heads = islice(model.params, len(model.params.layout), None)  # a stack's heads follow
    return tuple(task for name in heads if (task := _head_task(name)))


def predict_batch(
    model: EncoderModel,
    seqs: Sequence[LabeledSequence],
    task: Optional[str | tuple[str, ...]] = None,
) -> list:
    """Argmax predictions in input order, in length-ordered chunks.

    With a task, one class id per sequence; with none, one B/I/O id per
    real position. With a tuple of tasks, `model` is their `stack_models`
    stack, and the tuple names all its heads in its order, else it is a
    ConfigError; each sequence gets a list of class ids, one per task, and
    each head reads its model's slice of the stacked hidden states. A
    stacked chunk holds `INFERENCE_BATCH // M` rows, so its activations
    take no more memory than one model's chunk. Ties break toward the
    lowest id.

    A row's prediction depends on its `subtoken_ids` alone, so each
    distinct id sequence is encoded once per call, in first-seen order,
    and every input gets its own copy of that result. Nothing is cached
    across calls.
    """
    stacked = isinstance(task, tuple)
    if stacked and task != _stack_tasks(model):
        raise ConfigError(f"tasks {task} are not the stack's heads {_stack_tasks(model)}")
    inputs: dict[tuple[int, ...], list[int]] = {}  # distinct ids -> positions in seqs
    for i, s in enumerate(seqs):
        inputs.setdefault(tuple(s.subtoken_ids), []).append(i)
    groups = list(inputs.values())
    distinct = [seqs[g[0]] for g in groups]
    out: list = [None] * len(seqs)
    for idx in length_chunks(distinct, INFERENCE_BATCH // len(task) if stacked else INFERENCE_BATCH):
        hidden, _ = forward_batch(model, [distinct[j] for j in idx], task)
        if stacked:  # each head's ids, then one list per row
            best = map(list, zip(*(_head(model, hid, t)[0].argmax(axis=-1).tolist()
                                   for hid, t in zip(hidden, task))))
        else:
            best = _head(model, hidden, task)[0].argmax(axis=-1).tolist()
        for j, row in zip(idx, best):  # an int, or a fresh list per row
            if task is None:
                row = row[: len(distinct[j].subtoken_ids)]
            first, *repeats = groups[j]
            out[first] = row
            for i in repeats:  # a repeat gets a list of its own
                out[i] = row if isinstance(row, int) else list(row)
    return out


def loss_and_grads(
    model: EncoderModel,
    batch: Sequence[LabeledSequence],
    task: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, FlatParams]:
    """Mean cross-entropy and gradients for every parameter.

    With no task, the token head's loss averages over real non-special
    positions; with a task, its sequence head's loss averages over
    examples. Dropout draws from `rng` when one is given; without one the
    result is deterministic.
    """
    return _loss_grads_packed(model, pack_batch(batch), task, rng, want_grads=True)


def _loss_grads_packed(model, packed, task, rng, want_grads):
    # a non-finite loss raises NumericError below, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hidden, cache = _forward_batch(model, packed.ids, packed.mask, rng,
                                       None if task is None else packed.head_pos, want_grads)
        logits, feat = _head(model, hidden, task)
        logp = _log_softmax(logits)
    target = packed.tags if task is None else packed.labels
    picked = np.take_along_axis(logp, target[..., None], axis=-1)[..., 0]
    if task is None:
        m = packed.loss_mask
        n = int(m.sum())
        if n == 0:
            raise DataError("token-head batch has no scoreable positions")
        per_example = -(picked * m).sum(axis=1)
    else:
        n = len(target)
        per_example = -picked
    if not np.all(np.isfinite(per_example)):
        bad = int(np.flatnonzero(~np.isfinite(per_example))[0])
        raise NumericError("non-finite loss", origin=packed.origins[bad])
    loss = float(per_example.sum() / n)
    if not want_grads:
        return loss, None

    dlogits = np.exp(logp) - (np.arange(logits.shape[-1]) == target[..., None])
    if task is None:
        dlogits *= m[..., None].astype(dlogits.dtype) / dlogits.dtype.type(n)
    else:
        dlogits /= n
    grads = model.params.zeros_like()
    dx = _affine_bwd(feat.reshape(-1, feat.shape[-1]), dlogits.reshape(-1, dlogits.shape[-1]),
                     model.params, grads, *head_names(task))
    _backward_batch(model, cache, dx.reshape(hidden.shape), grads)
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Step count and first and second moments, laid out like the model."""

    step: int
    m: FlatParams
    v: FlatParams

    @staticmethod
    def for_model(model: EncoderModel) -> "OptimizerState":
        return OptimizerState(step=0, m=model.params.zeros_like(), v=model.params.zeros_like())


def clip_gradients(grads: FlatParams, clip_norm: float) -> float:
    """Scale gradients in place to the global-norm budget; returns the norm.

    The norm sums each tensor's squares in float64 on its own, then adds
    the tensors' sums in layout order.
    """
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        grads.flat *= grads.flat.dtype.type(clip_norm / total)
    return total


def optimizer_step(
    state: OptimizerState,
    model: EncoderModel,
    grads: FlatParams,
    tc: TrainConfig,
) -> float:
    """Adaptive-moment update with bias correction, after global-norm clipping.

    `grads` must be laid out like `model.params`, as `loss_and_grads`
    returns them; anything else is a `ConfigError` before any write.
    Returns the gradients' global norm before clipping.
    """
    if not isinstance(grads, FlatParams) or grads.layout != model.params.layout:
        raise ConfigError("gradients are not laid out like the model's parameters")
    norm = clip_gradients(grads, tc.clip_norm)
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 / (1.0 - b1**t)
    c2 = 1.0 / (1.0 - b2**t)
    g, m, v = grads.flat, state.m.flat, state.v.flat
    # Whole-buffer form of the per-tensor update
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    #   p -= lr*(m*c1) / (sqrt(v*c2) + eps)
    # with the same roundings: each product and sum has the same operands.
    # Two temporaries, refilled through `out=`, serve every product: with a
    # fresh buffer per product a step at 0.8M parameters took twice as long.
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    np.multiply(g, g, out=step)
    step *= 1.0 - b2
    v *= b2
    v += step
    np.multiply(m, c1, out=step)
    step *= tc.learning_rate
    denom = np.multiply(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    model.params.flat -= step
    return norm


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst_param: str


def grad_check(
    model: EncoderModel,
    batch: Sequence[LabeledSequence],
    task: Optional[str] = None,
    n_samples: int = 200,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences.

    Requires 64-bit precision. Dropout runs at the model's rate, from a
    generator seeded with `seed` anew for every pass, so each pass draws
    the same masks. Entries of `model.params.flat` are sampled and
    perturbed in place by `GRAD_CHECK_STEP` each way. The relative error
    denominator is floored so that zero-against-zero counts as a pass.
    """
    if model.config.precision != 64:
        raise ConfigError("grad_check requires a 64-bit model")
    packed = pack_batch(batch)

    def loss(want_grads):
        return _loss_grads_packed(model, packed, task, np.random.default_rng(seed), want_grads)

    _, analytic = loss(True)

    flat = model.params.flat
    count = min(n_samples, flat.size)
    worst, worst_at = 0.0, None
    for i in np.random.default_rng(seed).choice(flat.size, size=count, replace=False):
        orig = flat[i]
        flat[i] = orig + GRAD_CHECK_STEP
        up, _ = loss(False)
        flat[i] = orig - GRAD_CHECK_STEP
        down, _ = loss(False)
        flat[i] = orig
        numeric = (up - down) / (2.0 * GRAD_CHECK_STEP)
        a = float(analytic.flat[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if rel > worst:
            worst, worst_at = rel, int(i)
    worst_name = "" if worst_at is None else _entry_name(model.params.layout, worst_at)
    return GradCheckReport(max_rel_error=worst, n_checked=count, worst_param=worst_name)


def _entry_name(layout, i):
    """`name[index]` of entry `i` of a buffer laid out as `layout`."""
    for name, shape in layout:
        if i < math.prod(shape):
            return f"{name}[{', '.join(map(str, np.unravel_index(i, shape)))}]"
        i -= math.prod(shape)


def toy_examples(
    kind: str,
    vocab_size: int,
    n: int = 4,
    length: int = 12,
    seed: int = 0,
) -> list[LabeledSequence]:
    """Small synthetic sequences for gradient verification, each 6 to
    `length` positions long.

    `kind` "token" gives random BIO tags on the word positions, for the
    token head; "sequence" gives marker tokens and a class label below
    `TOY_CLASSES`, for a sequence head that wide.
    """
    from .preproc import CLS_ID, SEP_ID

    if length < 8:
        raise ConfigError("toy sequences need length >= 8")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        real = int(rng.integers(6, length + 1))
        body = real - 2 if kind == "token" else real - 4
        inner = [int(t) for t in rng.integers(6, vocab_size, size=body)]
        if kind == "sequence":
            s_at = int(rng.integers(0, body + 1))
            e_at = int(rng.integers(s_at, body + 1))
            inner = inner[:s_at] + [S_MARK_ID] + inner[s_at:e_at] + [E_MARK_ID] + inner[e_at:]
        ids = [CLS_ID] + inner + [SEP_ID]
        word_index = [
            (p - 1) if 0 < p < real - 1 and ids[p] >= 6 else NO_WORD
            for p in range(real)
        ]
        tags = None
        label = None
        if kind == "token":
            tags = [
                BioTag(int(rng.integers(0, N_BIO))) if w != NO_WORD else BioTag.O
                for w in word_index
            ]
        else:
            label = int(rng.integers(0, TOY_CLASSES))
        out.append(
            LabeledSequence(
                subtoken_ids=ids,
                word_index=word_index,
                tags=tags,
                label=label,
                origin=(f"toy{i}", None),
            )
        )
    return out


# ---------------------------------------------------------------------------
# shared training loop


@dataclass
class FitResult:
    history: list[float]
    best_epoch: int


def fit(
    model: EncoderModel,
    examples: Sequence[LabeledSequence],
    tc: TrainConfig,
    eval_fn: Callable[[EncoderModel], float],
    task: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FitResult:
    """Epoch loop with validation-based model selection and early stopping.

    After each epoch `eval_fn` scores the model (higher is better); the
    best-scoring parameters are restored at the end. Stops when the score
    has not improved for `patience` consecutive epochs. `task` picks the
    head trained, as in `loss_and_grads`. One rng seeded with `tc.seed`
    draws each epoch's order and the dropout masks. Each epoch's `log`
    line gives the mean loss, the dev score, the largest global gradient
    norm and how many of the epoch's steps were clipped. Running out of
    memory on the way, for the optimizer state or a step, is a ConfigError.
    """
    if not examples:
        raise DataError("no training examples")
    try:
        return _fit(model, examples, tc, eval_fn, task, log)
    except MemoryError:
        raise ConfigError(f"training a model of {model.params.flat.size:,} parameters "
                          "does not fit in memory") from None


def _fit(model, examples, tc, eval_fn, task, log) -> FitResult:
    rng = np.random.default_rng(tc.seed)
    state = OptimizerState.for_model(model)
    best_flat = model.params.flat.copy()
    best_score = -math.inf
    best_epoch = 0
    history: list[float] = []
    stale = 0

    for epoch in range(1, tc.max_epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        n_batches = 0
        max_norm = 0.0
        clipped = 0
        for start in range(0, len(order), tc.batch_size):
            batch = [examples[i] for i in order[start : start + tc.batch_size]]
            loss, grads = loss_and_grads(model, batch, task, rng)
            norm = optimizer_step(state, model, grads, tc)
            epoch_loss += loss
            n_batches += 1
            max_norm = max(max_norm, norm)
            clipped += norm > tc.clip_norm
        score = eval_fn(model)
        history.append(score)
        if log:
            log(f"epoch {epoch}: loss {epoch_loss / n_batches:.4f} dev {score:.4f} "
                f"grad_norm_max {max_norm:.4f} clipped {clipped}/{n_batches}")
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_flat[...] = model.params.flat
            stale = 0
        else:
            stale += 1
            if stale >= tc.patience:
                break

    model.params.flat[...] = best_flat
    return FitResult(history=history, best_epoch=best_epoch)
