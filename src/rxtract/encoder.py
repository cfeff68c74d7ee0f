"""Desk-scale transformer encoder with classification heads.

Everything numerical lives here: the forward pass, hand-written
reverse-mode gradients, the adaptive-moment optimizer, and the
finite-difference gradient verification harness. Arrays are plain numpy;
no autodiff framework is involved, so the gradient check is a genuinely
independent second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, SequenceLengthError
from .preproc import (
    E_MARK_ID,
    NO_WORD,
    S_MARK_ID,
    DEFAULT_MAX_LEN,
    BioTag,
    LabeledSequence,
)

LN_EPS = 1e-5
ADAM_EPS = 1e-8
NEG_INF = -1e9
N_BIO = 3

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    hidden_dim: int = 128
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = DEFAULT_MAX_LEN
    vocab_size: int = 4096
    dropout_rate: float = 0.1
    seed: int = 0
    precision: int = 32  # 32 or 64

    def validate(self) -> None:
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
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == 32 else np.float64)


@dataclass
class EncoderModel:
    """Parameters plus configuration; `task_classes` maps each
    sequence-classification head to its class count."""

    config: EncoderConfig
    params: dict[str, np.ndarray]
    task_classes: dict[str, int] = field(default_factory=dict)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 16
    max_epochs: int = 20
    patience: int = 3
    beta1: float = 0.9
    beta2: float = 0.999
    clip_norm: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("moment coefficients must lie in (0, 1)")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")


def init_model(cfg: EncoderConfig, n_classes: Mapping[str, int] | None = None) -> EncoderModel:
    """Build a model with seeded uniform(-0.02, 0.02) weights, zero biases,
    and unit layer-norm gains."""
    cfg.validate()
    n_classes = dict(n_classes or {})
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.dtype
    h, f = cfg.hidden_dim, cfg.ffn_dim

    def uniform(*shape):
        return rng.uniform(-0.02, 0.02, size=shape).astype(dt)

    params: dict[str, np.ndarray] = {}
    params["tok_emb"] = uniform(cfg.vocab_size, h)
    params["pos_emb"] = uniform(cfg.max_len, h)
    for i in range(cfg.layers):
        p = f"layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}.attn.{name}"] = uniform(h, h)
        for name in ("bq", "bk", "bv", "bo"):
            params[f"{p}.attn.{name}"] = np.zeros(h, dtype=dt)
        params[f"{p}.ln1.gain"] = np.ones(h, dtype=dt)
        params[f"{p}.ln1.bias"] = np.zeros(h, dtype=dt)
        params[f"{p}.ffn.w1"] = uniform(h, f)
        params[f"{p}.ffn.b1"] = np.zeros(f, dtype=dt)
        params[f"{p}.ffn.w2"] = uniform(f, h)
        params[f"{p}.ffn.b2"] = np.zeros(h, dtype=dt)
        params[f"{p}.ln2.gain"] = np.ones(h, dtype=dt)
        params[f"{p}.ln2.bias"] = np.zeros(h, dtype=dt)
    params["token_head.w"] = uniform(h, N_BIO)
    params["token_head.b"] = np.zeros(N_BIO, dtype=dt)
    for task in sorted(n_classes):
        n = n_classes[task]
        if n < 1:
            raise ConfigError(f"task {task!r} needs at least one class")
        params[f"seq_head.{task}.w"] = uniform(3 * h, n)
        params[f"seq_head.{task}.b"] = np.zeros(n, dtype=dt)

    return EncoderModel(config=cfg, params=params, task_classes=n_classes)


def parameter_count(model: EncoderModel) -> int:
    return sum(p.size for p in model.params.values())


# ---------------------------------------------------------------------------
# forward / backward primitives


def _layernorm_fwd(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv)


def _layernorm_bwd(dy, cache, gain):
    xhat, inv = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dgain, dbias


def _softmax(x):
    shift = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(x):
    shift = x - x.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def _gelu(x):
    inner = _GELU_C * (x + _GELU_K * x**3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def _gelu_grad(x):
    inner = _GELU_C * (x + _GELU_K * x**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)


def _dropout_mask(rng, shape, rate, dtype):
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(dtype) / dtype.type(keep)


@dataclass
class Packed:
    """A minibatch packed to the longest real length it contains."""

    ids: np.ndarray          # (B, L) int64
    mask: np.ndarray         # (B, L) model dtype, 1 real / 0 pad
    loss_mask: np.ndarray    # (B, L) bool, real non-special positions
    tags: np.ndarray         # (B, L) int64 (token mode)
    labels: np.ndarray       # (B,) int64 (sequence mode)
    s_pos: np.ndarray        # (B,) int64
    e_pos: np.ndarray        # (B,) int64
    origins: list


def pack_batch(seqs: Sequence[LabeledSequence], model: EncoderModel) -> Packed:
    """Stack sequences into arrays, trimming the shared padding tail.

    Padding positions are masked out of attention and excluded from every
    loss, so trimming them changes no real-position value.
    """
    if not seqs:
        raise DataError("empty batch")
    max_len = model.config.max_len
    dt = model.config.dtype
    real = [s.real_length() for s in seqs]
    for s, r in zip(seqs, real):
        if len(s) > max_len and s.attention_mask[max_len:].count(1) > 0:
            raise SequenceLengthError(
                f"sequence of real length {r} exceeds max_len {max_len}"
            )
    trim = max(1, max(real))

    b = len(seqs)
    ids = np.zeros((b, trim), dtype=np.int64)
    mask = np.zeros((b, trim), dtype=dt)
    loss_mask = np.zeros((b, trim), dtype=bool)
    tags = np.full((b, trim), int(BioTag.O), dtype=np.int64)
    labels = np.zeros(b, dtype=np.int64)
    s_pos = np.zeros(b, dtype=np.int64)
    e_pos = np.zeros(b, dtype=np.int64)

    for i, s in enumerate(seqs):
        row = s.subtoken_ids[:trim]
        n = len(row)
        ids[i, :n] = row
        mask[i, :n] = s.attention_mask[:trim]
        loss_mask[i, :n] = [w != NO_WORD for w in s.word_index[:trim]]
        if s.tags is not None:
            tags[i, :n] = [int(t) for t in s.tags[:trim]]
        if s.label is not None:
            labels[i] = s.label
        s_pos[i] = row.index(S_MARK_ID) if S_MARK_ID in row else 0
        e_pos[i] = row.index(E_MARK_ID) if E_MARK_ID in row else 0

    return Packed(ids, mask, loss_mask, tags, labels, s_pos, e_pos,
                  [s.origin for s in seqs])


def _forward_batch(model, ids, mask, train=False, rng=None):
    """Run the encoder stack; returns final hidden states plus the
    intermediate cache the backward pass consumes."""
    cfg = model.config
    p = model.params
    dt = cfg.dtype
    b, length = ids.shape
    if length > cfg.max_len:
        raise SequenceLengthError(f"sequence length {length} > max_len {cfg.max_len}")
    nh = cfg.heads
    dk = cfg.hidden_dim // nh
    scale = dt.type(1.0 / math.sqrt(dk))
    rate = cfg.dropout_rate if train else 0.0
    if rate > 0 and rng is None:
        raise ConfigError("training-mode forward needs an rng for dropout")

    x = p["tok_emb"][ids] + p["pos_emb"][:length]
    emb_mask = None
    if rate > 0:
        emb_mask = _dropout_mask(rng, x.shape, rate, dt)
        x = x * emb_mask

    key_keep = mask[:, None, None, :] > 0  # (B,1,1,L)
    layers = []
    for i in range(cfg.layers):
        pre = f"layer{i}"
        x_in = x

        def heads(m):  # (B,L,H) -> (B,nh,L,dk)
            return m.reshape(b, length, nh, dk).transpose(0, 2, 1, 3)

        q = heads(x_in @ p[f"{pre}.attn.wq"] + p[f"{pre}.attn.bq"])
        k = heads(x_in @ p[f"{pre}.attn.wk"] + p[f"{pre}.attn.bk"])
        v = heads(x_in @ p[f"{pre}.attn.wv"] + p[f"{pre}.attn.bv"])
        scores = np.where(key_keep, (q @ k.transpose(0, 1, 3, 2)) * scale, dt.type(NEG_INF))
        probs = _softmax(scores)
        attn_mask_drop = None
        probs_used = probs
        if rate > 0:
            attn_mask_drop = _dropout_mask(rng, probs.shape, rate, dt)
            probs_used = probs * attn_mask_drop
        ctx = (probs_used @ v).transpose(0, 2, 1, 3).reshape(b, length, cfg.hidden_dim)
        attn_out = ctx @ p[f"{pre}.attn.wo"] + p[f"{pre}.attn.bo"]
        res1 = x_in + attn_out
        y, ln1_cache = _layernorm_fwd(res1, p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"])

        a = y @ p[f"{pre}.ffn.w1"] + p[f"{pre}.ffn.b1"]
        g = _gelu(a)
        ffn_mask = None
        g_used = g
        if rate > 0:
            ffn_mask = _dropout_mask(rng, g.shape, rate, dt)
            g_used = g * ffn_mask
        fout = g_used @ p[f"{pre}.ffn.w2"] + p[f"{pre}.ffn.b2"]
        res2 = y + fout
        x, ln2_cache = _layernorm_fwd(res2, p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"])

        layers.append(
            dict(x_in=x_in, q=q, k=k, v=v, probs=probs, probs_used=probs_used,
                 attn_drop=attn_mask_drop, ctx=ctx, ln1=ln1_cache, y=y, a=a,
                 g_used=g_used, ffn_drop=ffn_mask, ln2=ln2_cache)
        )

    cache = dict(ids=ids, length=length, emb_mask=emb_mask, layers=layers,
                 key_keep=key_keep, scale=scale)
    return x, cache


def _backward_batch(model, cache, d_hidden, grads):
    cfg = model.config
    p = model.params
    b = cache["ids"].shape[0]
    length = cache["length"]
    nh = cfg.heads
    dk = cfg.hidden_dim // nh
    scale = cache["scale"]
    dx = d_hidden

    for i in reversed(range(cfg.layers)):
        pre = f"layer{i}"
        c = cache["layers"][i]

        dres2, dg2, db2 = _layernorm_bwd(dx, c["ln2"], p[f"{pre}.ln2.gain"])
        grads[f"{pre}.ln2.gain"] += dg2
        grads[f"{pre}.ln2.bias"] += db2
        dy = dres2.copy()
        dfout = dres2

        g_used = c["g_used"]
        grads[f"{pre}.ffn.w2"] += g_used.reshape(-1, cfg.ffn_dim).T @ dfout.reshape(-1, cfg.hidden_dim)
        grads[f"{pre}.ffn.b2"] += dfout.sum(axis=(0, 1))
        dg = dfout @ p[f"{pre}.ffn.w2"].T
        if c["ffn_drop"] is not None:
            dg = dg * c["ffn_drop"]
        da = dg * _gelu_grad(c["a"])
        grads[f"{pre}.ffn.w1"] += c["y"].reshape(-1, cfg.hidden_dim).T @ da.reshape(-1, cfg.ffn_dim)
        grads[f"{pre}.ffn.b1"] += da.sum(axis=(0, 1))
        dy += da @ p[f"{pre}.ffn.w1"].T

        dres1, dg1, db1 = _layernorm_bwd(dy, c["ln1"], p[f"{pre}.ln1.gain"])
        grads[f"{pre}.ln1.gain"] += dg1
        grads[f"{pre}.ln1.bias"] += db1
        dx_in = dres1.copy()
        dattn_out = dres1

        ctx = c["ctx"]
        grads[f"{pre}.attn.wo"] += ctx.reshape(-1, cfg.hidden_dim).T @ dattn_out.reshape(-1, cfg.hidden_dim)
        grads[f"{pre}.attn.bo"] += dattn_out.sum(axis=(0, 1))
        dctx = (dattn_out @ p[f"{pre}.attn.wo"].T).reshape(b, length, nh, dk).transpose(0, 2, 1, 3)

        probs_used, probs = c["probs_used"], c["probs"]
        dprobs_used = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = probs_used.transpose(0, 1, 3, 2) @ dctx
        dprobs = dprobs_used if c["attn_drop"] is None else dprobs_used * c["attn_drop"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = (dscores @ c["k"]) * scale
        dk_ = (dscores.transpose(0, 1, 3, 2) @ c["q"]) * scale

        def merge(m):  # (B,nh,L,dk) -> (B,L,H)
            return m.transpose(0, 2, 1, 3).reshape(b, length, cfg.hidden_dim)

        x_in = c["x_in"]
        x2d = x_in.reshape(-1, cfg.hidden_dim)
        for name, dmat in (("wq", dq), ("wk", dk_), ("wv", dv)):
            dm = merge(dmat)
            grads[f"{pre}.attn.{name}"] += x2d.T @ dm.reshape(-1, cfg.hidden_dim)
            grads[f"{pre}.attn.b{name[1]}"] += dm.sum(axis=(0, 1))
            dx_in += dm @ p[f"{pre}.attn.{name}"].T

        dx = dx_in

    if cache["emb_mask"] is not None:
        dx = dx * cache["emb_mask"]
    np.add.at(grads["tok_emb"], cache["ids"], dx)
    grads["pos_emb"][:length] += dx.sum(axis=0)


# ---------------------------------------------------------------------------
# public operations


def length_chunks(seqs: Sequence[LabeledSequence], size: int) -> Iterator[list[int]]:
    """Indices of `seqs` in chunks of at most `size`, in order of real length.

    Chunking like-length sequences together keeps the padding that
    `pack_batch` cannot trim small. Ties keep input order.
    """
    order = sorted(range(len(seqs)), key=lambda i: seqs[i].real_length())
    for start in range(0, len(order), size):
        yield order[start : start + size]


def forward_batch(
    model: EncoderModel, seqs: Sequence[LabeledSequence]
) -> tuple[np.ndarray, Packed]:
    """Inference-mode hidden states for a batch, with the packing used."""
    packed = pack_batch(seqs, model)
    hidden, _ = _forward_batch(model, packed.ids, packed.mask, train=False)
    return hidden, packed


def sequence_logits_batch(
    model: EncoderModel, seqs: Sequence[LabeledSequence], task: str
) -> np.ndarray:
    """Classification logits from concat(hidden[CLS], hidden[S], hidden[E])
    for a batch of marker-bearing sequences."""
    if task not in model.task_classes:
        raise ConfigError(f"model has no head for task {task!r}")
    hidden, packed = forward_batch(model, seqs)
    rows = np.arange(hidden.shape[0])
    feat = np.concatenate(
        [hidden[:, 0, :], hidden[rows, packed.s_pos], hidden[rows, packed.e_pos]],
        axis=1,
    )
    return feat @ model.params[f"seq_head.{task}.w"] + model.params[f"seq_head.{task}.b"]


def token_logits(model: EncoderModel, hidden: np.ndarray) -> np.ndarray:
    """Affine map from hidden states to per-position B/I/O logits."""
    return hidden @ model.params["token_head.w"] + model.params["token_head.b"]


def loss_and_grads(
    model: EncoderModel,
    batch: Sequence[LabeledSequence],
    mode: str,
    task: Optional[str] = None,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and gradients for every parameter.

    Token mode averages over real non-special positions; sequence mode
    averages over examples. Deterministic whenever dropout is off.
    """
    if mode not in ("token", "sequence"):
        raise ConfigError(f"unknown mode {mode!r}")
    packed = pack_batch(batch, model)
    loss, grads, _ = _loss_grads_packed(model, packed, mode, task, train, rng,
                                        want_grads=True)
    return loss, grads


def _loss_grads_packed(model, packed, mode, task, train, rng, want_grads):
    cfg = model.config
    hidden, cache = _forward_batch(model, packed.ids, packed.mask, train=train, rng=rng)
    b = hidden.shape[0]

    grads = None
    if want_grads:
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}

    if mode == "token":
        logits = hidden @ model.params["token_head.w"] + model.params["token_head.b"]
        logp = _log_softmax(logits)
        m = packed.loss_mask
        n = int(m.sum())
        if n == 0:
            raise DataError("token-mode batch has no scoreable positions")
        picked = np.take_along_axis(logp, packed.tags[..., None], axis=-1)[..., 0]
        per_example = -(picked * m).sum(axis=1)
        if not np.all(np.isfinite(per_example)):
            bad = int(np.flatnonzero(~np.isfinite(per_example))[0])
            raise NumericError("non-finite loss", origin=packed.origins[bad])
        loss = float(per_example.sum() / n)
        if not want_grads:
            return loss, None, hidden
        dlogits = np.exp(logp)
        bsz, length = packed.tags.shape
        bi = np.repeat(np.arange(bsz), length)
        li = np.tile(np.arange(length), bsz)
        dlogits[bi, li, packed.tags.ravel()] -= 1.0
        dlogits *= m[..., None].astype(cfg.dtype) / cfg.dtype.type(n)
        grads["token_head.w"] += hidden.reshape(-1, cfg.hidden_dim).T @ dlogits.reshape(-1, N_BIO)
        grads["token_head.b"] += dlogits.sum(axis=(0, 1))
        d_hidden = dlogits @ model.params["token_head.w"].T
    else:
        if task is None or task not in model.task_classes:
            raise ConfigError(f"sequence mode needs a known task, got {task!r}")
        h = cfg.hidden_dim
        rows = np.arange(b)
        feat = np.concatenate(
            [hidden[:, 0, :], hidden[rows, packed.s_pos], hidden[rows, packed.e_pos]],
            axis=1,
        )
        w = model.params[f"seq_head.{task}.w"]
        logits = feat @ w + model.params[f"seq_head.{task}.b"]
        logp = _log_softmax(logits)
        per_example = -logp[rows, packed.labels]
        if not np.all(np.isfinite(per_example)):
            bad = int(np.flatnonzero(~np.isfinite(per_example))[0])
            raise NumericError("non-finite loss", origin=packed.origins[bad])
        loss = float(per_example.mean())
        if not want_grads:
            return loss, None, hidden
        dlogits = np.exp(logp)
        dlogits[rows, packed.labels] -= 1.0
        dlogits = (dlogits / b).astype(cfg.dtype)
        grads[f"seq_head.{task}.w"] += feat.T @ dlogits
        grads[f"seq_head.{task}.b"] += dlogits.sum(axis=0)
        dfeat = dlogits @ w.T
        d_hidden = np.zeros_like(hidden)
        d_hidden[:, 0, :] += dfeat[:, :h]
        np.add.at(d_hidden, (rows, packed.s_pos), dfeat[:, h : 2 * h])
        np.add.at(d_hidden, (rows, packed.e_pos), dfeat[:, 2 * h :])

    _backward_batch(model, cache, d_hidden, grads)
    return loss, grads, hidden


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @staticmethod
    def for_model(model: EncoderModel) -> "OptimizerState":
        return OptimizerState(
            step=0,
            m={k: np.zeros_like(p) for k, p in model.params.items()},
            v={k: np.zeros_like(p) for k, p in model.params.items()},
        )


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale gradients in place to the global-norm budget; returns the norm."""
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        factor = clip_norm / total
        for g in grads.values():
            g *= g.dtype.type(factor)
    return total


def optimizer_step(
    state: OptimizerState,
    model: EncoderModel,
    grads: dict[str, np.ndarray],
    tc: TrainConfig,
) -> tuple[EncoderModel, OptimizerState]:
    """Adaptive-moment update with bias correction, after global-norm clipping."""
    clip_gradients(grads, tc.clip_norm)
    state.step += 1
    t = state.step
    b1, b2 = tc.beta1, tc.beta2
    c1 = 1.0 / (1.0 - b1**t)
    c2 = 1.0 / (1.0 - b2**t)
    for name, p in model.params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] * c1
        v_hat = state.v[name] * c2
        p -= (tc.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)
    return model, state


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
    mode: str,
    task: Optional[str] = None,
    n_samples: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences.

    Requires 64-bit precision; dropout is off on both routes. The relative
    error denominator is floored so that zero-against-zero counts as a pass.
    """
    if model.config.precision != 64:
        raise ConfigError("grad_check requires a 64-bit model")
    packed = pack_batch(batch, model)
    _, analytic, _ = _loss_grads_packed(model, packed, mode, task, False, None,
                                        want_grads=True)

    names = sorted(model.params)
    sizes = np.array([model.params[n].size for n in names])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    count = min(n_samples, total)
    flat_choices = np.sort(rng.choice(total, size=count, replace=False))
    bounds = np.cumsum(sizes)

    worst = 0.0
    worst_name = ""
    for flat in flat_choices:
        pi = int(np.searchsorted(bounds, flat, side="right"))
        offset = int(flat - (bounds[pi - 1] if pi > 0 else 0))
        name = names[pi]
        param = model.params[name]
        idx = np.unravel_index(offset, param.shape)
        orig = param[idx]
        param[idx] = orig + step
        up, _, _ = _loss_grads_packed(model, packed, mode, task, False, None, False)
        param[idx] = orig - step
        down, _, _ = _loss_grads_packed(model, packed, mode, task, False, None, False)
        param[idx] = orig
        numeric = (up - down) / (2.0 * step)
        a = float(analytic[name][idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if rel > worst:
            worst = rel
            worst_name = f"{name}{list(idx)}"
    return GradCheckReport(max_rel_error=worst, n_checked=count, worst_param=worst_name)


def toy_examples(
    mode: str,
    vocab_size: int,
    n: int = 4,
    length: int = 12,
    n_classes: int = 3,
    seed: int = 0,
) -> list[LabeledSequence]:
    """Small synthetic sequences for gradient verification.

    Token mode carries random BIO tags on the word positions; sequence mode
    carries marker tokens and a class label.
    """
    from .preproc import CLS_ID, PAD_ID, SEP_ID

    if length < 8:
        raise ConfigError("toy sequences need length >= 8")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        real = int(rng.integers(6, length + 1))
        body = real - 2 if mode == "token" else real - 4
        inner = [int(t) for t in rng.integers(6, vocab_size, size=body)]
        if mode == "sequence":
            s_at = int(rng.integers(0, body + 1))
            e_at = int(rng.integers(s_at, body + 1))
            inner = inner[:s_at] + [S_MARK_ID] + inner[s_at:e_at] + [E_MARK_ID] + inner[e_at:]
        ids = [CLS_ID] + inner + [SEP_ID] + [PAD_ID] * (length - real)
        mask = [1] * real + [0] * (length - real)
        word_index = [
            (p - 1) if 0 < p < real - 1 and ids[p] >= 6 else NO_WORD
            for p in range(length)
        ]
        tags = None
        label = None
        if mode == "token":
            tags = [
                BioTag(int(rng.integers(0, N_BIO))) if word_index[p] != NO_WORD else BioTag.O
                for p in range(length)
            ]
        else:
            label = int(rng.integers(0, n_classes))
        out.append(
            LabeledSequence(
                subtoken_ids=ids,
                attention_mask=mask,
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
    best_score: float
    best_epoch: int


def fit(
    model: EncoderModel,
    examples: Sequence[LabeledSequence],
    mode: str,
    tc: TrainConfig,
    eval_fn: Callable[[EncoderModel], float],
    task: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FitResult:
    """Epoch loop with validation-based model selection and early stopping.

    After each epoch `eval_fn` scores the model (higher is better); the
    best-scoring parameters are restored at the end. Stops when the score
    has not improved for `patience` consecutive epochs.
    """
    tc.validate()
    if not examples:
        raise DataError("no training examples")
    rng = np.random.default_rng(tc.seed)
    state = OptimizerState.for_model(model)
    best_params = model.copy_params()
    best_score = -math.inf
    best_epoch = 0
    history: list[float] = []
    stale = 0

    for epoch in range(1, tc.max_epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), tc.batch_size):
            batch = [examples[i] for i in order[start : start + tc.batch_size]]
            loss, grads = loss_and_grads(model, batch, mode, task=task,
                                         train=model.config.dropout_rate > 0, rng=rng)
            optimizer_step(state, model, grads, tc)
            epoch_loss += loss
            n_batches += 1
        score = eval_fn(model)
        history.append(score)
        if log:
            log(f"epoch {epoch}: loss {epoch_loss / n_batches:.4f} dev {score:.4f}")
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = model.copy_params()
            stale = 0
        else:
            stale += 1
            if stale >= tc.patience:
                break

    model.params = best_params
    return FitResult(history=history, best_score=best_score, best_epoch=best_epoch)
