"""Encoder forward/backward, heads, loss, optimizer, and gradient checks."""

import collections
import copy
import gc
import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxtract import encoder
from rxtract.artifacts import load_artifact, save_artifact
from rxtract.encoder import (
    INFERENCE_BATCH,
    LN_EPS,
    NEG_INF,
    EncoderConfig,
    FlatParams,
    OptimizerState,
    TrainConfig,
    _forward_batch,
    _gelu,
    _gelu_grad,
    _head,
    _layernorm_bwd,
    _layernorm_fwd,
    _row_max,
    check_agreement,
    fit,
    forward_batch,
    grad_check,
    head_widths,
    init_model,
    loss_and_grads,
    optimizer_step,
    pack_batch,
    param_shapes,
    predict_batch,
    stack_models,
    toy_examples,
)
from rxtract.errors import ConfigError, NumericError, SequenceLengthError
from rxtract.ner import NerModelBundle
from rxtract.preproc import (
    CLS_ID,
    E_MARK_ID,
    PAD_ID,
    S_MARK_ID,
    SEP_ID,
    BioTag,
    LabeledSequence,
    build_vocab,
)

TOY = EncoderConfig(
    layers=2, hidden_dim=16, heads=2, ffn_dim=32, max_len=32,
    dropout_rate=0.0, seed=3, precision=64,
)
VOCAB = 64


def _hidden(model, seq):
    """Inference-mode hidden states of one sequence."""
    return forward_batch(model, [seq])[0][0]


def _logits(model, seqs, task=None):
    """Inference-mode logits of the head `task` picks, for a batch."""
    return _head(model, forward_batch(model, seqs, task)[0], task)[0]


def _softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(TOY, VOCAB, {"Event": 3})
        b = init_model(TOY, VOCAB, {"Event": 3})
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_heads_divisibility_checked(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(heads=3, hidden_dim=64), 4096)

    def test_dropout_range_checked(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(dropout_rate=1.0), 4096)

    def test_max_len_floor(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(max_len=4), 4096)

    def test_parameter_count_closed_form(self):
        cfg = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=128, max_len=256)
        model = init_model(cfg, 4096, {"Event": 3})
        h, f = 64, 128
        per_layer = (
            4 * h * h + 4 * h      # attention projections and biases
            + 2 * h                # first layer norm
            + h * f + f + f * h + h  # feed-forward
            + 2 * h                # second layer norm
        )
        expected = (
            4096 * h + 256 * h
            + 2 * per_layer
            + h * 3 + 3            # token head
            + 3 * h * 3 + 3        # Event head on concat features
        )
        assert model.params.flat.size == expected

    def test_vocab_size_floor(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            init_model(TOY, 0)
        with pytest.raises(ConfigError, match="vocab_size"):
            param_shapes(TOY, 0)

    def test_init_ranges(self):
        model = init_model(TOY, VOCAB)
        assert float(np.abs(model.params["tok_emb"]).max()) <= 0.02
        assert np.all(model.params["layer0.ln1.gain"] == 1.0)
        assert np.all(model.params["layer0.attn.bq"] == 0.0)


REF_VOCAB = 16


def _affine(x, w, b):
    """`x @ w + b` over plain lists, one sum at a time."""
    return [sum(x[i] * w[i][j] for i in range(len(x))) + b[j] for j in range(len(b))]


def _reference_hidden(params, cfg, ids, n_real):
    """Hidden states of one packed row of piece `ids`, whose first `n_real`
    positions are real, in plain float arithmetic: one position and one
    head at a time, attending to the real keys alone."""
    p = {k: v.tolist() for k, v in params.items()}
    dk = cfg.hidden_dim // cfg.heads

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    def layer_norm(x, gain, bias):
        mu = sum(x) / len(x)
        var = sum((v - mu) ** 2 for v in x) / len(x)
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [(v - mu) * inv * g + b for v, g, b in zip(x, gain, bias)]

    def gelu(v):
        inner = math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)
        return 0.5 * v * (1.0 + math.tanh(inner))

    xs = [add(p["tok_emb"][t], p["pos_emb"][i]) for i, t in enumerate(ids)]
    for layer in range(cfg.layers):
        pre = f"layer{layer}."
        w = {name[len(pre):]: val for name, val in p.items() if name.startswith(pre)}
        q, k, v = ([_affine(x, w[f"attn.w{c}"], w[f"attn.b{c}"]) for x in xs] for c in "qkv")
        out = []
        for i, x in enumerate(xs):
            ctx = []
            for head in range(cfg.heads):
                cols = range(head * dk, (head + 1) * dk)
                scores = [sum(q[i][c] * k[j][c] for c in cols) / math.sqrt(dk)
                          for j in range(n_real)]
                e = [math.exp(sc - max(scores)) for sc in scores]
                ctx += [sum(e[j] * v[j][c] for j in range(n_real)) / sum(e) for c in cols]
            y = layer_norm(add(x, _affine(ctx, w["attn.wo"], w["attn.bo"])),
                           w["ln1.gain"], w["ln1.bias"])
            g = [gelu(a) for a in _affine(y, w["ffn.w1"], w["ffn.b1"])]
            out.append(layer_norm(add(y, _affine(g, w["ffn.w2"], w["ffn.b2"])),
                                  w["ln2.gain"], w["ln2.bias"]))
        xs = out
    return xs


@st.composite
def _reference_cases(draw):
    """A 64-bit config, a batch of piece lists of mixed lengths (so that
    the batch is padded), (B, R) rows for the last layer or None, and 1 or
    2 models."""
    heads = draw(st.sampled_from([1, 2]))
    cfg = EncoderConfig(layers=draw(st.integers(1, 3)), hidden_dim=4 * heads, heads=heads,
                        ffn_dim=draw(st.sampled_from([4, 8])), max_len=8, dropout_rate=0.0,
                        seed=draw(st.integers(0, 99)), precision=64)
    seqs = draw(st.lists(st.lists(st.integers(1, REF_VOCAB - 1), min_size=1, max_size=8),
                         min_size=1, max_size=3))
    rows = None
    if draw(st.booleans()):
        width, r = max(map(len, seqs)), draw(st.integers(1, 3))
        rows = np.array([draw(st.lists(st.integers(0, width - 1), min_size=r, max_size=r))
                         for _ in seqs])
    return cfg, seqs, rows, draw(st.sampled_from([1, 2]))


class TestForward:
    def test_attention_probs_sum_to_one(self):
        model = init_model(TOY, VOCAB)
        batch = toy_examples("token", VOCAB, n=3, length=16, seed=0)
        packed = pack_batch(batch)
        _, cache = _forward_batch(model, packed.ids, packed.mask, keep_cache=True)
        for attn, _ in cache["layers"]:
            sums = attn["probs"].sum(axis=-1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_pad_tail_content_is_inert(self):
        """Whatever ids sit where the mask is false, the real rows agree."""
        model = init_model(TOY, VOCAB)
        mask = np.array([[True] * 5 + [False] * 3])
        ids_a = np.array([[2, 7, 8, 9, 3, 0, 0, 0]])
        ids_b = np.array([[2, 7, 8, 9, 3, 13, 14, 15]])  # junk in the padding tail
        ha = _forward_batch(model, ids_a, mask)[0]
        hb = _forward_batch(model, ids_b, mask)[0]
        assert np.array_equal(ha[0, :5], hb[0, :5])

    def test_inference_deterministic(self):
        model = init_model(TOY, VOCAB)
        seq = toy_examples("token", VOCAB, n=1, length=12, seed=1)[0]
        assert np.array_equal(_hidden(model, seq), _hidden(model, seq))

    def test_sequence_too_long(self):
        model = init_model(TOY, VOCAB)
        ids = [2] + [7] * TOY.max_len + [3]
        seq = LabeledSequence(ids, [-1] * len(ids))
        with pytest.raises(SequenceLengthError):
            forward_batch(model, [seq])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_reference_cases())
    @example(case=(EncoderConfig(layers=1, hidden_dim=4, heads=2, ffn_dim=8, max_len=8,
                                 dropout_rate=0.0, seed=11, precision=64), [[9]], None, 1))
    @example(case=(EncoderConfig(layers=1, hidden_dim=4, heads=2, ffn_dim=8, max_len=8,
                                 dropout_rate=0.0, seed=5, precision=64),
                   [[CLS_ID, S_MARK_ID, 9, E_MARK_ID, SEP_ID]], np.array([[0, 1, 3]]), 1))
    def test_matches_float64_reference(self, case):
        """`_forward_batch` and the head that reads its rows against
        `_reference_hidden` and plain sums over it, on padded batches, with
        and without trimmed rows, for one model and each slice of a
        two-model stack. Without rows the token head is checked at every
        real position; with three rows, the sequence head over them."""
        cfg, seqs, rows, n_models = case
        models = {f"T{m}": init_model(replace(cfg, seed=cfg.seed + m), REF_VOCAB, {f"T{m}": 2})
                  for m in range(n_models)}
        model = stack_models(models) if n_models > 1 else models["T0"]
        packed = pack_batch([LabeledSequence(s, [-1] * len(s)) for s in seqs])
        hidden, _ = _forward_batch(model, packed.ids, packed.mask, rows=rows)
        for (task, m), got in zip(models.items(), hidden if n_models > 1 else [hidden]):
            for i, s in enumerate(seqs):
                want = _reference_hidden(m.params, cfg, packed.ids[i].tolist(), len(s))
                if rows is not None:
                    want = [want[r] for r in rows[i]]
                assert np.abs(got[i] - np.array(want)).max() <= 1e-10
                if rows is None:  # the token head, at every real position
                    name, feats = "token_head", want[: len(s)]
                    logits = _head(m, got[i], None)[0][: len(s)]
                elif len(rows[i]) == 3:  # a sequence head, reading the rows as (CLS, S, E)
                    name, feats = f"seq_head.{task}", [sum(want, [])]
                    logits = _head(m, got[i], task)[0][None]
                else:
                    continue
                w, b = (m.params[f"{name}.{part}"].tolist() for part in "wb")
                assert np.abs(logits - np.array([_affine(f, w, b) for f in feats])).max() <= 1e-10


class TestPackBatch:
    """`pack_batch` is the one place that writes padding."""

    def _mixed(self):
        batch = toy_examples("token", VOCAB, n=6, length=20, seed=9)
        assert len({len(s) for s in batch}) > 2
        return batch

    def test_short_rows_get_a_padding_tail(self):
        batch = self._mixed()
        packed = pack_batch(batch)
        width = max(len(s) for s in batch)
        assert packed.ids.shape == packed.mask.shape == (len(batch), width)
        assert packed.mask.dtype == bool
        for i, s in enumerate(batch):
            n = len(s)
            assert packed.ids[i, :n].tolist() == s.subtoken_ids
            assert packed.mask[i, :n].all()
            assert packed.tags[i, :n].tolist() == [int(t) for t in s.tags]
            assert np.all(packed.ids[i, n:] == PAD_ID)
            assert not packed.mask[i, n:].any()
            assert not packed.loss_mask[i, n:].any()
            assert np.all(packed.tags[i, n:] == int(BioTag.O))

    @pytest.mark.parametrize("field", ["ids", "loss_mask", "tags"])
    def test_memory_error_in_fromiter_leaves_no_suspended_generator(self, field, monkeypatch):
        """Closing a suspended generator while memory is short can fail too,
        which Python reports as `Exception ignored in: ...` on stderr."""
        batch = self._mixed()
        batch[0].tags = None  # its tags come from a fill of O
        packed = None if field == "ids" else pack_batch(batch)
        suspended = []

        def fromiter(rows, dtype):
            next(rows)
            suspended.extend(r for r in gc.get_referents(rows) if inspect.isgenerator(r)
                             and inspect.getgeneratorstate(r) == inspect.GEN_SUSPENDED)
            raise MemoryError

        monkeypatch.setattr(encoder.np, "fromiter", fromiter)
        with pytest.raises(MemoryError):
            pack_batch(batch) if packed is None else getattr(packed, field)
        assert suspended == []

    def test_real_positions_match_packing_alone(self):
        model = init_model(TOY, VOCAB)
        batch = self._mixed()
        hidden, _ = forward_batch(model, batch)
        assert hidden.dtype == np.float64
        for i, s in enumerate(batch):
            alone = _hidden(model, s)
            assert alone.shape[0] == len(s)
            assert np.abs(hidden[i, : len(s)] - alone).max() <= 1e-12


class TestGelu:
    GRID = np.linspace(-12.0, 12.0, 4001)

    def test_float32_matches_float64_formula(self):
        x32 = self.GRID.astype(np.float32)
        g32, t32 = _gelu(x32, keep=True)
        g64, _ = _gelu(x32.astype(np.float64), keep=True)
        assert g32.dtype == np.float32 and t32.dtype == np.float32
        assert np.abs(g32 - g64).max() < 1e-6

    def test_grad_matches_central_difference(self):
        x = self.GRID
        step = 1e-5
        _, t = _gelu(x, keep=True)
        numeric = (_gelu(x + step)[0] - _gelu(x - step)[0]) / (2.0 * step)
        assert np.abs(_gelu_grad(x, t) - numeric).max() < 1e-8


class TestHeads:
    def test_zero_token_head_uniform(self):
        model = init_model(TOY, VOCAB)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = 0.0
        seq = toy_examples("token", VOCAB, n=1, length=12, seed=2)[0]
        logits = _logits(model, [seq])[0]
        probs = np.apply_along_axis(_softmax, -1, logits)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        shifted = logits + 7.3
        for row, row2 in zip(logits, shifted):
            assert np.allclose(_softmax(row), _softmax(row2), atol=1e-9)

    def test_argmax_matches_probability_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            row = rng.normal(size=3)
            assert np.argmax(row) == np.argmax(_softmax(row))

    def test_zero_sequence_head_uniform(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        model.params["seq_head.Event.w"][:] = 0.0
        seq = toy_examples("sequence", VOCAB, n=1, length=12, seed=3)[0]
        logits = _logits(model, [seq], "Event")[0]
        assert np.allclose(_softmax(logits), 1.0 / 3.0, atol=1e-9)

    def test_logits_do_not_depend_on_gold_labels(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples("sequence", VOCAB, n=4, length=12, seed=8)
        before = _logits(model, batch, "Event")
        for seq in batch:
            seq.label = (seq.label + 1) % 3
        after = _logits(model, batch, "Event")
        assert np.array_equal(before, after)


class TestPredictBatch:
    @pytest.mark.parametrize("kind,task", [("token", None), ("sequence", "Event")])
    def test_row_by_row_argmax_in_input_order(self, kind, task):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples(kind, VOCAB, n=INFERENCE_BATCH + 6, length=16, seed=12)
        lengths = [len(s) for s in batch]
        assert len(set(lengths)) > 2 and lengths != sorted(lengths)
        want = []
        for seq in batch:
            best = np.argmax(_logits(model, [seq], task)[0], axis=-1)
            want.append(int(best) if task else best.tolist())
        assert predict_batch(model, batch, task) == want

    @pytest.mark.parametrize("head", ["token", "task", "stack"])
    def test_duplicates_are_encoded_once_and_answered_per_input(self, head, monkeypatch):
        if head == "stack":
            model, task = stack_models(_distinct_models(TOY)), tuple(STACK_TASKS)
        else:
            task = None if head == "token" else "Event"
            model = init_model(TOY, VOCAB, {"Event": 3})
        base = toy_examples("token" if head == "token" else "sequence", VOCAB,
                            n=40, length=16, seed=22)
        # repeats that differ only in word_index or origin, and repeated objects
        seqs = [*base,
                *(replace(s, word_index=[w + 1 for w in s.word_index]) for s in base[::2]),
                *(replace(s, origin=("copy", None)) for s in base[::3]),
                *base[:5]]
        seqs = [seqs[i] for i in np.random.default_rng(0).permutation(len(seqs))]
        assert len(seqs) > INFERENCE_BATCH
        want = [predict_batch(model, [s], task)[0] for s in seqs]

        seen, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda m, batch, *rest:
                            seen.extend(tuple(s.subtoken_ids) for s in batch)
                            or forward(m, batch, *rest))
        got = predict_batch(model, seqs, task)
        assert got == want
        assert sorted(seen) == sorted(tuple(s.subtoken_ids) for s in base)  # each once

        twins = [(i, j) for i in range(len(seqs)) for j in range(i + 1, len(seqs))
                 if seqs[i].subtoken_ids == seqs[j].subtoken_ids]
        assert len(twins) >= len(base) // 2
        if head != "task":  # a class id is an int; rows are lists
            for i, j in twins:
                got[i][0] = -1
                assert got[j] == want[j]
                got[i][0] = want[i][0]

    def test_unknown_task_is_config_error(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples("sequence", VOCAB, n=2, length=12, seed=13)
        with pytest.raises(ConfigError):
            predict_batch(model, batch, "Nope")
        with pytest.raises(ConfigError):
            loss_and_grads(model, batch, task="Nope")


class TestLayerNorm:
    """The layer norm's reductions keep the bits of `x.mean` and `x.var`."""

    @staticmethod
    def _reference(x, gain, bias, dy):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (x - mu) * inv
        dxhat = dy * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (xhat * gain + bias, xhat, inv, (dxhat - m1 - xhat * m2) * inv,
                (dy * xhat).sum(axis=0), dy.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_mean_and_var(self, dtype):
        rng = np.random.default_rng(0)
        for rows in [*range(1, 400, 3), 400]:
            for width in (16, 17, 32, 64, 100, 128):
                x, dy = (rng.standard_normal((2, rows, width)) * 3 + 0.5).astype(dtype)
                gain, bias = rng.standard_normal((2, width)).astype(dtype)
                out, (xhat, inv) = _layernorm_fwd(x.copy(), gain, bias, keep=True)
                dgain, dbias = np.zeros_like(gain), np.zeros_like(bias)
                dx = _layernorm_bwd(dy, (xhat, inv), gain, dgain, dbias)
                for got, want in zip((out, xhat, inv, dx, dgain, dbias),
                                     self._reference(x, gain, bias, dy)):
                    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def _score_arrays(draw):
    """Arrays shaped like attention scores, ([model,] batch, heads,
    queries, keys), with signed zeros, and keys masked to NEG_INF per
    sequence, up to all but one key of each."""
    keys = draw(st.one_of(st.integers(1, 32), st.integers(33, 300)))
    models = draw(st.sampled_from([(), (1,), (5,)]))
    heads, queries = draw(st.integers(1, 4)), draw(st.integers(1, 16))
    cap = max(1, 40_000 // (math.prod(models) * heads * queries * keys))
    shape = (*models, draw(st.integers(1, min(64, cap))), heads, queries, keys)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape)
    if draw(st.booleans()):  # nothing above zero, so a zero can be the maximum
        x = -np.abs(x)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    batch = shape[-4]
    keep = rng.random((batch, 1, 1, keys)) >= draw(st.sampled_from([0.0, 0.5, 1.0]))
    keep[np.arange(batch), 0, 0, rng.integers(0, keys, batch)] = True
    x[..., ~np.broadcast_to(keep, shape[-4:])] = NEG_INF
    return x.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestRowMax:
    """`_row_max` is `np.max` over the last axis, bit for bit, on both
    sides of its choice of method."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=_score_arrays())
    @example(x=np.zeros((64, 4, 13, 13), np.float32))  # one loop per column
    @example(x=np.where(np.random.default_rng(3).random((5, 12, 4, 3, 17)) < 0.5, 0.0, -0.0)
             .astype(np.float32))  # zeros of both signs, at a width where numpy's order differs
    @example(x=np.random.default_rng(1).standard_normal((64, 4, 13, 13)).astype(np.float32))
    @example(x=np.random.default_rng(2).standard_normal((16, 4, 120, 120)).astype(np.float32))
    def test_bit_identical_to_np_max(self, x):
        got, want = _row_max(x), np.max(x, axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


STACK_TASKS = {"A": 2, "B": 3, "C": 4, "D": 3, "E": 2}  # heads of different widths
WIDE = EncoderConfig(layers=2, hidden_dim=128, heads=4, ffn_dim=256, max_len=32,
                     dropout_rate=0.0, seed=3)


def _distinct_models(cfg):
    """Five models of one shape, with distinct weights, one head each."""
    return {task: init_model(replace(cfg, seed=i), VOCAB, {task: n})
            for i, (task, n) in enumerate(STACK_TASKS.items())}


class TestStack:
    @pytest.mark.parametrize("cfg", [TOY, WIDE], ids=["toy", "wide"])
    @pytest.mark.parametrize("precision", [32, 64])
    @pytest.mark.parametrize("rows", [1, 2, 8, 12, 13, 64])
    def test_hidden_states_bit_identical_to_each_model_alone(self, cfg, precision, rows):
        models = _distinct_models(replace(cfg, precision=precision))
        seqs = toy_examples("sequence", VOCAB, n=rows, length=20, seed=rows)
        alone = [forward_batch(m, seqs)[0] for m in models.values()]
        hidden, _ = forward_batch(stack_models(models), seqs)
        assert hidden.shape == (len(models), *alone[0].shape)
        for got, want in zip(hidden, alone):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("stacked,tasks", [
        (True, ("B", "A", "C", "D", "E")), (True, ("A",)),
        (True, ("A", "B", "C", "D", "E", "F")), (True, ()), (False, ("A",)),
    ])
    def test_tasks_other_than_the_stack_heads_are_config_error(self, stacked, tasks):
        """The tuple names the stack's heads in their order, all of them:
        another order would run each head on another model's hidden states."""
        models = _distinct_models(TOY)
        model = stack_models(models) if stacked else models["A"]
        seqs = toy_examples("sequence", VOCAB, n=3, length=12, seed=2)
        with pytest.raises(ConfigError, match="the stack's heads"):
            predict_batch(model, seqs, tasks)

    def test_predictions_match_each_model_alone(self):
        models = _distinct_models(TOY)
        seqs = toy_examples("sequence", VOCAB, n=INFERENCE_BATCH + 6, length=20, seed=14)
        want = [predict_batch(m, seqs, task) for task, m in models.items()]
        assert len({tuple(w) for w in want}) > 1
        got = predict_batch(stack_models(models), seqs, tuple(models))
        assert got == [list(ids) for ids in zip(*want)]

    def test_stacked_chunk_holds_a_share_of_the_rows(self, monkeypatch):
        models = _distinct_models(TOY)
        stack = stack_models(models)
        rows, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda m, seqs, *rest:
                            rows.append(len(seqs)) or forward(m, seqs, *rest))
        seqs = toy_examples("sequence", VOCAB, n=30, length=12, seed=2)
        predict_batch(stack, seqs, tuple(models))
        assert rows == [12, 12, 6] and INFERENCE_BATCH // len(models) == 12

    def test_weights_are_the_models_own_memory(self):
        models = _distinct_models(TOY)
        before = {task: m.params.flat.copy() for task, m in models.items()}
        stack = stack_models(models)
        for i, (task, m) in enumerate(models.items()):
            _assert_one_buffer(m)
            assert np.array_equal(m.params.flat, before[task])
            for name, w in stack.params.items():
                if not name.startswith("seq_head."):
                    assert np.shares_memory(w[i], m.params[name])
                    assert np.array_equal(w[i], m.params[name])
            for part in ("w", "b"):
                assert np.shares_memory(stack.params[f"seq_head.{task}.{part}"], m.params.flat)
        assert head_widths((name, w.shape) for name, w in stack.params.items()) == STACK_TASKS
        models["C"].params["layer1.ffn.w2"][0, 0] = 7.0
        assert stack.params["layer1.ffn.w2"][2, 0, 0] == 7.0

    @pytest.mark.parametrize("field,value", [
        ("layers", 1), ("hidden_dim", 32), ("heads", 4), ("ffn_dim", 16),
        ("max_len", 16), ("precision", 32),
    ])
    def test_models_that_cannot_stack_are_config_error(self, field, value):
        models = _distinct_models(TOY)
        models["D"] = init_model(replace(TOY, **{field: value}), VOCAB, {"D": 3})
        with pytest.raises(ConfigError, match=f"classifier D has {field} {value}, "
                                              f"classifier A has"):
            check_agreement(models)

    def test_vocabulary_size_must_agree_but_dropout_and_seed_need_not(self):
        models = _distinct_models(replace(TOY, dropout_rate=0.1))
        models["E"] = init_model(replace(TOY, dropout_rate=0.3, seed=9), VOCAB, {"E": 2})
        check_agreement(models)
        models["B"] = init_model(TOY, VOCAB + 1, {"B": 3})
        with pytest.raises(ConfigError, match="classifier B has vocab_size 65"):
            check_agreement(models)


def _edge_sequences():
    """Marker sequences of several lengths, so that a chunk holds padded
    rows; one has no markers, one has [E] on its last real position."""
    seqs = toy_examples("sequence", VOCAB, n=8, length=20, seed=21)
    no_marker = [CLS_ID, 9, 10, 11, SEP_ID]
    e_last = [CLS_ID, 12, S_MARK_ID, 13, 14, E_MARK_ID]
    for pos, ids in ((2, no_marker), (5, e_last)):
        seqs.insert(pos, LabeledSequence(ids, [-1] * len(ids), label=0))
    return seqs


class _Recorded:
    """A generator that keeps every `random` draw it hands out."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]


class _Replayed:
    """A generator that hands out the given draws, in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self, shape):
        drawn = next(self.draws)
        assert drawn.shape == tuple(shape)
        return drawn


def _widen(draws, pos, r, length):
    """The draws of a trimmed sequence-head run, with its last layer's two
    (attention, FFN), made at 3 rows per sequence, spread over all L rows:
    row `r`'s values go to each sequence's `pos[:, r]`, and every other
    row draws 0, which keeps (that row reaches no loss)."""
    *early, attn, ffn = draws
    b, nh = attn.shape[:2]
    wide_attn = np.zeros((b, nh, length, length))
    wide_attn[np.arange(b), :, pos[:, r]] = attn[:, :, r]
    wide_ffn = np.zeros((b * length, ffn.shape[-1]))
    wide_ffn[np.arange(b) * length + pos[:, r]] = ffn.reshape(b, 3, -1)[:, r]
    return [*early, wide_attn, wide_ffn]


def _full_width_grads(model, packed, task, draws):
    """A sequence head's loss gradients with the last layer run at every
    position, once for each of the three rows the head reads: run `r`
    replays a trimmed run's `draws` (`_widen`), its hidden states are read
    at `head_pos[:, r]`, and the head's gradient at row r is scattered
    back there into a zero array before that run's backward."""
    n, length = packed.ids.shape
    seq = np.arange(n)
    runs = [_forward_batch(model, packed.ids, packed.mask,
                           _Replayed(_widen(draws, packed.head_pos, r, length)) if draws
                           else None, keep_cache=True) for r in range(3)]
    read = np.stack([hidden[seq, packed.head_pos[:, r]] for r, (hidden, _) in enumerate(runs)],
                    axis=1)
    logits, feat = _head(model, read, task)
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    dlogits = (probs - (np.arange(logits.shape[-1]) == packed.labels[:, None])) / n
    w = model.params[f"seq_head.{task}.w"]
    grads = model.params.zeros_like()
    grads[f"seq_head.{task}.w"] += feat.T @ dlogits
    grads[f"seq_head.{task}.b"] += dlogits.sum(axis=0)
    d_read = (dlogits @ w.T).reshape(n, 3, -1)
    for r, (hidden, cache) in enumerate(runs):
        d_hidden = np.zeros_like(hidden)
        d_hidden[seq, packed.head_pos[:, r]] = d_read[:, r]
        encoder._backward_batch(model, cache, d_hidden, grads)
    return grads


class TestTrimmedLastLayer:
    """A sequence head runs the last layer at its rows alone, at inference
    and in training."""

    @pytest.fixture(params=["one", "stack"])
    def model_and_task(self, request):
        if request.param == "one":
            return init_model(WIDE, VOCAB, {"A": 3}), "A"
        models = _distinct_models(WIDE)
        return stack_models(models), tuple(models)

    def test_matches_the_full_forward_at_the_rows_read(self, model_and_task):
        model, task = model_and_task
        seqs = _edge_sequences()
        full, packed = forward_batch(model, seqs)
        pos = packed.head_pos
        assert packed.mask.min() == 0  # padded rows
        assert pos[2].tolist() == [0, 0, 0]  # no markers: [CLS] read three times
        assert pos[5, 2] == len(seqs[5]) - 1  # [E] on the last real position
        want = full[..., np.arange(len(seqs))[:, None], pos, :]
        got, _ = forward_batch(model, seqs, task)
        assert got.shape == want.shape and got.dtype == want.dtype
        # allclose: a GEMM over a subset of rows may round differently
        # on some BLAS kernels
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)

        if isinstance(task, tuple):
            best = np.stack([np.argmax(_head(model, w, t)[0], axis=-1)
                             for w, t in zip(want, task)], axis=-1)
        else:
            best = np.argmax(_head(model, want, task)[0], axis=-1)
        assert predict_batch(model, seqs, task) == best.tolist()

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_the_full_width_backward(self, rate, layers, seed):
        model = init_model(replace(TOY, layers=layers, dropout_rate=rate, seed=seed), VOCAB,
                           {"Event": 3})
        seqs = _edge_sequences()
        for s in seqs:
            s.label = (len(s) + seed) % 3
        rng = _Recorded(np.random.default_rng(seed))
        _, got = loss_and_grads(model, seqs, "Event", rng)
        # the same draws: each full-width run replays the trimmed run's
        want = _full_width_grads(model, pack_batch(seqs), "Event", rng.draws)
        assert np.abs(got.flat - want.flat).max() <= 1e-12 * np.abs(want.flat).max()

    def test_dropout_masks_are_drawn_at_the_rows_they_scale(self):
        model = init_model(replace(TOY, dropout_rate=0.3), VOCAB, {"Event": 3})
        seqs = _edge_sequences()
        rng, want = np.random.default_rng(0), np.random.default_rng(0)
        loss_and_grads(model, seqs, "Event", rng)
        b, length = pack_batch(seqs).ids.shape
        nh, h, f = TOY.heads, TOY.hidden_dim, TOY.ffn_dim
        shapes = [(b * length, h)]
        shapes += [(b, nh, length, length), (b * length, f)] * (TOY.layers - 1)
        shapes += [(b, nh, 3, length), (b * 3, f)]
        for shape in shapes:
            want.random(shape)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_inference_keeps_no_cache(self, model_and_task):
        model, _ = model_and_task
        packed = pack_batch(_edge_sequences())
        for rows in (None, packed.head_pos):
            assert _forward_batch(model, packed.ids, packed.mask, rows=rows)[1] is None


class TestNoWriteThrough:
    """The encoder's in-place elementwise chains write only into arrays
    they own: never into a weight, the packed batch or the input."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_weights_batch_and_inputs_unchanged(self, stacked, rate):
        models = _distinct_models(replace(WIDE, dropout_rate=rate))
        for m in models.values():  # biases and gains off their initial zeros and ones
            m.params.flat += np.random.default_rng(6).uniform(-0.1, 0.1, m.params.flat.size)
        model = stack_models(models) if stacked else models["C"]  # 4 classes
        task = tuple(models) if stacked else "C"
        seqs = _edge_sequences()
        before = copy.deepcopy(seqs)
        packed = pack_batch(seqs)
        ids, mask, flat = packed.ids.copy(), packed.mask.copy(), model.params.flat.copy()
        for rows in (None, packed.head_pos):
            for keep in (False, True):
                for rng in (None, np.random.default_rng(0)):
                    _forward_batch(model, packed.ids, packed.mask, rng, rows, keep)
        predict_batch(model, seqs, task)
        if not stacked:
            predict_batch(model, seqs)
            for head in (None, "C"):
                loss_and_grads(model, seqs, head)
                loss_and_grads(model, seqs, head, np.random.default_rng(1))
        assert np.array_equal(packed.ids, ids) and np.array_equal(packed.mask, mask)
        assert model.params.flat.tobytes() == flat.tobytes()
        assert seqs == before

    @pytest.mark.parametrize("head", [None, "A"])
    def test_equally_seeded_calls_give_the_same_bits(self, head):
        model = init_model(replace(WIDE, dropout_rate=0.2), VOCAB, {"A": 3})
        seqs = _edge_sequences()
        first, second = (loss_and_grads(model, seqs, head, np.random.default_rng(4))
                         for _ in range(2))
        assert first[0] == second[0]
        assert first[1].flat.tobytes() == second[1].flat.tobytes()


class TestConfigsCheckedWhenBuilt:
    @pytest.mark.parametrize("cls, fields", [
        (EncoderConfig, {"layers": 0}),
        (EncoderConfig, {"heads": 3}),
        (EncoderConfig, {"max_len": 4}),
        (EncoderConfig, {"dropout_rate": 1.0}),
        (EncoderConfig, {"precision": 16}),
        (TrainConfig, {"batch_size": 0}),
        (TrainConfig, {"patience": 0}),
        (TrainConfig, {"clip_norm": -1.0}),
        (EncoderConfig, {"seed": -1}),
        (TrainConfig, {"seed": -1}),
    ])
    def test_invalid_value_raises_when_built(self, cls, fields):
        with pytest.raises(ConfigError):
            cls(**fields)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{field: value})


class TestLoss:
    def test_confident_correct_predictions_near_zero_loss(self):
        model = init_model(TOY, VOCAB)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = [-20.0, -20.0, 20.0]  # always O
        batch = toy_examples("token", VOCAB, n=2, length=12, seed=4)
        for seq in batch:
            seq.tags = [BioTag.O] * len(seq)
        loss, _ = loss_and_grads(model, batch)
        assert loss < 1e-8

    def test_uniform_predictions_log3(self):
        model = init_model(TOY, VOCAB)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = 0.0
        batch = toy_examples("token", VOCAB, n=2, length=12, seed=5)
        loss, _ = loss_and_grads(model, batch)
        assert abs(loss - math.log(3)) < 1e-6

    def test_batch_order_invariance(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples("token", VOCAB, n=5, length=14, seed=6)
        a, _ = loss_and_grads(model, batch)
        b, _ = loss_and_grads(model, list(reversed(batch)))
        assert abs(a - b) < 1e-9

    def test_gradients_cover_every_parameter(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples("sequence", VOCAB, n=3, length=12, seed=7)
        _, grads = loss_and_grads(model, batch, task="Event")
        assert grads.keys() == model.params.keys()
        for k, g in grads.items():
            assert g.shape == model.params[k].shape

    def test_non_finite_loss_carries_origin(self):
        model = init_model(TOY, VOCAB)
        model.params["tok_emb"][:] = np.nan
        batch = toy_examples("token", VOCAB, n=2, length=12, seed=8)
        with pytest.raises(NumericError) as exc:
            loss_and_grads(model, batch)
        assert exc.value.origin == batch[0].origin


class TestDropout:
    """Dropout runs exactly when an rng is passed."""

    def test_rng_switches_dropout_on(self):
        model = init_model(replace(TOY, dropout_rate=0.5), VOCAB)
        batch = toy_examples("token", VOCAB, n=2, length=12, seed=4)
        plain, _ = loss_and_grads(model, batch)
        assert loss_and_grads(model, batch)[0] == plain
        assert loss_and_grads(model, batch, rng=np.random.default_rng(0))[0] != plain

    def test_rate_zero_draws_nothing(self):
        model = init_model(TOY, VOCAB)
        batch = toy_examples("token", VOCAB, n=2, length=12, seed=4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        loss, _ = loss_and_grads(model, batch, rng=rng)
        assert rng.bit_generator.state == state
        assert loss == loss_and_grads(model, batch)[0]


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        model = init_model(TOY, VOCAB)
        before = model.params.copy()
        grads = model.params.zeros_like()
        optimizer_step(OptimizerState.for_model(model), model, grads, TrainConfig())
        for k in before:
            assert np.array_equal(before[k], model.params[k])

    def test_first_step_is_signed_learning_rate(self):
        model = init_model(TOY, VOCAB)
        tc = TrainConfig(learning_rate=0.01, clip_norm=100.0)
        grads = model.params.zeros_like()
        grads["token_head.b"][0] = 0.5
        before = float(model.params["token_head.b"][0])
        optimizer_step(OptimizerState.for_model(model), model, grads, tc)
        delta = float(model.params["token_head.b"][0]) - before
        # bias-corrected first step: -lr * g / (|g| + eps) ~= -lr * sign(g)
        assert abs(delta + tc.learning_rate) < 1e-6 * tc.learning_rate

    def test_clipping_equals_prescaled_gradients(self):
        tc = TrainConfig(learning_rate=0.05, clip_norm=1.0)
        model_a = init_model(TOY, VOCAB)
        model_b = init_model(TOY, VOCAB)
        grads_a = model_a.params.zeros_like()
        grads_a["token_head.b"][2] = 10.0  # global norm 10, clip 1
        grads_b = grads_a.copy()
        grads_b.flat /= 10.0
        optimizer_step(OptimizerState.for_model(model_a), model_a, grads_a, tc)
        optimizer_step(OptimizerState.for_model(model_b), model_b, grads_b, tc)
        for k in model_a.params:
            assert np.array_equal(model_a.params[k], model_b.params[k])


def _assert_one_buffer(model):
    """Every parameter is a view of one contiguous buffer, in layout order."""
    flat = model.params.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.dtype == model.config.dtype
    widths = head_widths((name, w.shape) for name, w in model.params.items())
    shapes = param_shapes(model.config, model.params["tok_emb"].shape[0], widths)
    assert list(model.params) == list(shapes)
    start = flat.__array_interface__["data"][0]
    offset = 0
    for name, shape in shapes.items():
        view = model.params[name]
        assert view.shape == shape
        assert view.__array_interface__["data"][0] == start + offset * flat.itemsize
        offset += view.size
    assert offset == flat.size


class TestFlatLayout:
    def test_init_model(self):
        _assert_one_buffer(init_model(TOY, VOCAB, {"Event": 3, "Actor": 5}))

    def test_load_artifact(self, tmp_path):
        vocab = build_vocab(["patient started velamab 5mg daily"], 64)
        model = init_model(replace(TOY, precision=32), len(vocab))
        save_artifact(NerModelBundle(model, vocab, TrainConfig(), []), tmp_path / "m")
        loaded = load_artifact(tmp_path / "m").model
        _assert_one_buffer(loaded)
        assert np.array_equal(loaded.params.flat, model.params.flat)

    def test_fit(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        examples = toy_examples("sequence", VOCAB, n=6, length=12, seed=3)
        scores = iter([0.5, 0.1])  # restores the first epoch's parameters
        fit(model, examples, TrainConfig(max_epochs=2, patience=2), lambda m: next(scores),
            task="Event")
        _assert_one_buffer(model)

    def test_views_over_a_stack_buffer(self):
        """Over an (M, W) buffer each view stacks the row buffers' views, and
        each layer's views, vectors shaped (M, 1, n), are the buffer's memory."""
        layout = list(param_shapes(TOY, VOCAB, {"Event": 3}).items())
        size = sum(math.prod(shape) for _, shape in layout)
        buf = np.random.default_rng(0).random((3, size + 5))  # rows wider than the layout
        stacked = FlatParams(buf, layout)
        rows = [FlatParams(row, layout) for row in buf]
        assert list(stacked) == [name for name, _ in layout]
        for name in stacked:
            assert np.array_equal(stacked[name], np.stack([r[name] for r in rows]))
        assert len(stacked.layers) == TOY.layers
        groups = {"attn.wqkv": ("attn.wq", "attn.wk", "attn.wv"),
                  "attn.bqkv": ("attn.bq", "attn.bk", "attn.bv"),
                  "attn.wkv": ("attn.wk", "attn.wv"), "attn.bkv": ("attn.bk", "attn.bv")}
        for i, layer in enumerate(stacked.layers):
            assert list(layer) == list(rows[0].layers[i])
            assert set(groups) <= set(layer)
            for sub, view in layer.items():
                assert np.shares_memory(view, buf)
                assert np.array_equal(view, np.stack([r.layers[i][sub] for r in rows]))
                if sub in groups:  # its parts' views, one after another on axis 1
                    parts = [layer[part] for part in groups[sub]]
                    assert np.shares_memory(view, parts[0])
                    assert np.array_equal(view, np.stack(parts, axis=1))
                    continue
                named = stacked[f"layer{i}.{sub}"]
                assert view.shape == (named.shape if named.ndim > 2 else (3, 1, named.shape[1]))
                assert np.shares_memory(view, named)

    def test_copy_params_is_independent(self):
        model = init_model(TOY, VOCAB)
        copy = model.params.copy()
        assert not np.shares_memory(copy.flat, model.params.flat)
        copy["tok_emb"][0, 0] = 5.0
        model.params["token_head.b"][0] = 7.0
        assert model.params["tok_emb"][0, 0] != 5.0
        assert copy["token_head.b"][0] == 0.0

    def test_key_cannot_be_rebound(self):
        model = init_model(TOY, VOCAB)
        with pytest.raises(TypeError):
            model.params["token_head.b"] = np.ones(3)
        model.params["token_head.b"] += 1.0  # in place, through the view
        assert model.params.flat[-1] == 1.0

    @pytest.mark.parametrize(
        "make_grads",
        [
            lambda p: {k: np.ones_like(v) for k, v in p.items()},
            lambda p: FlatParams(np.ones_like(p.flat), tuple(reversed(p.layout))),
            lambda p: init_model(TOY, VOCAB, {"Event": 3, "Actor": 3}).params,
        ],
        ids=["dict", "reordered", "other_model"],
    )
    def test_gradients_in_another_layout_are_refused(self, make_grads):
        model = init_model(TOY, VOCAB, {"Event": 3})
        grads = make_grads(model.params)
        before = model.params.flat.copy()
        state = OptimizerState.for_model(model)
        with pytest.raises(ConfigError, match="laid out"):
            optimizer_step(state, model, grads, TrainConfig())
        assert np.array_equal(model.params.flat, before)
        assert state.step == 0 and not state.m.flat.any()


class TestFitLog:
    @pytest.mark.parametrize("clip_norm, clipped", [(1e-6, 3), (1e6, 0)])
    def test_epoch_line_reports_gradient_norm_and_clipping(self, clip_norm, clipped):
        model = init_model(TOY, VOCAB)
        examples = toy_examples("token", VOCAB, n=6, length=12, seed=3)
        lines = []
        tc = TrainConfig(batch_size=2, max_epochs=1, clip_norm=clip_norm)
        fit(model, examples, tc, lambda m: 0.0, log=lines.append)
        (line,) = lines
        match = re.fullmatch(r"epoch 1: loss \S+ dev 0\.0000 grad_norm_max (\S+) clipped (\d+)/3",
                             line)
        assert match, line
        assert float(match[1]) > 0 and int(match[2]) == clipped


class TestGradCheck:
    def test_token_mode(self):
        model = init_model(TOY, VOCAB)
        batch = toy_examples("token", VOCAB, n=4, length=16, seed=1)
        report = grad_check(model, batch, n_samples=220, seed=9)
        assert report.n_checked >= 200
        assert report.max_rel_error < 1e-4

    def test_sequence_mode(self):
        model = init_model(TOY, VOCAB, {"Event": 3})
        batch = toy_examples("sequence", VOCAB, n=4, length=16, seed=2)
        report = grad_check(model, batch, task="Event", n_samples=220, seed=10)
        assert report.max_rel_error < 1e-4

    def test_worst_param_indices_are_plain_ints(self):
        model = init_model(TOY, VOCAB)
        batch = toy_examples("token", VOCAB, n=4, length=16, seed=1)
        report = grad_check(model, batch, n_samples=50, seed=9)
        assert re.fullmatch(r"[\w.]+\[\d+(, \d+)*\]", report.worst_param), report.worst_param

    def test_zero_analytic_and_numeric_counts_as_pass(self):
        cfg = EncoderConfig(layers=1, hidden_dim=8, heads=2, ffn_dim=16,
                            max_len=16, dropout_rate=0.0,
                            seed=1, precision=64)
        # the Event head never feeds the token loss: exact zero on both routes
        model = init_model(cfg, 32, {"Event": 3})
        batch = toy_examples("token", 32, n=2, length=10, seed=3)
        report = grad_check(model, batch,
                            n_samples=model.params.flat.size, seed=11)
        assert report.n_checked == model.params.flat.size
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("rate", [0.1, 0.3])
    @pytest.mark.parametrize("kind,task", [("token", None), ("sequence", "Event")])
    def test_dropout_on(self, rate, kind, task):
        """The backward through all three dropout sites, against differences
        taken under the same masks."""
        model = init_model(replace(TOY, dropout_rate=rate), VOCAB, {"Event": 3} if task else {})
        batch = toy_examples(kind, VOCAB, n=4, length=16, seed=2)
        report = grad_check(model, batch, task=task, n_samples=220, seed=10)
        assert report.max_rel_error < 1e-4

    def test_requires_64_bit(self):
        model = init_model(EncoderConfig(layers=1, hidden_dim=8, heads=2,
                                         ffn_dim=16, precision=32), 32)
        batch = toy_examples("token", 32, n=2, length=10, seed=4)
        with pytest.raises(ConfigError):
            grad_check(model, batch)


class TestTrainingSignal:
    def test_fifty_steps_memorize_small_batch(self):
        cfg = EncoderConfig(layers=1, hidden_dim=32, heads=2, ffn_dim=64,
                            max_len=32, dropout_rate=0.0,
                            seed=2, precision=32)
        model = init_model(cfg, 64)
        batch = toy_examples("token", 64, n=10, length=16, seed=5)
        tc = TrainConfig(learning_rate=1e-2, clip_norm=1.0)
        state = OptimizerState.for_model(model)
        initial, _ = loss_and_grads(model, batch)
        for _ in range(50):
            _, grads = loss_and_grads(model, batch)
            optimizer_step(state, model, grads, tc)
        final, _ = loss_and_grads(model, batch)
        assert final <= 0.1 * initial


class _Counting(np.ndarray):
    """An array that counts each ufunc call it takes part in, matmul and
    reductions included, then runs the call on plain arrays and hands back
    counting arrays, so that every array computed from it counts too."""

    calls: collections.Counter = collections.Counter()

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counting.calls["all"] += 1
        if ufunc is np.matmul:
            _Counting.calls["matmul"] += 1
        if method == "reduce":
            _Counting.calls["reduce"] += 1

        def plain(arrays):
            return tuple(a.view(np.ndarray) if isinstance(a, _Counting) else a for a in arrays)

        if out is not None:
            kwargs["out"] = plain(out)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Counting) if isinstance(result, np.ndarray) else result


class TestUfuncCount:
    """The numpy calls a one-row forward makes, counted, so that none is
    added unseen: at one row each call's fixed cost, about a µs, is much
    of a forward's time. Counts are per `forward_batch` call of one
    10-piece sequence; hidden and FFN widths do not change them."""

    @staticmethod
    def _counted(model, task):
        p = model.params
        counting = encoder.EncoderModel(model.config, FlatParams(p.flat.view(_Counting), p.layout))
        seq = toy_examples("sequence", VOCAB, n=1, length=12, seed=5)[:1]
        _Counting.calls.clear()
        hidden, _ = forward_batch(counting, seq, task)
        assert isinstance(hidden, _Counting)
        return {key: _Counting.calls[key] for key in ("all", "matmul", "reduce")}

    def test_token_head(self):
        # per layer: Q/K/V as one product, scores, context, wo, w1 and w2
        model = init_model(WIDE, VOCAB)
        assert self._counted(model, None) == {"all": 103, "matmul": 12, "reduce": 12}

    def test_sequence_head(self):
        # the last layer's Q at the rows read, K and V as one product
        model = init_model(WIDE, VOCAB, {"A": 3})
        assert self._counted(model, "A") == {"all": 105, "matmul": 13, "reduce": 12}

    def test_five_model_stack(self):
        stack = stack_models(_distinct_models(WIDE))
        assert self._counted(stack, tuple(STACK_TASKS)) == {"all": 105, "matmul": 13,
                                                            "reduce": 12}


class TestStepUfuncCount:
    """The numpy calls one training step's `loss_and_grads` makes, counted
    as `TestUfuncCount` counts a forward's, with dropout on: forward, head,
    loss and backward, for one fixed padded batch of four sequences."""

    @pytest.mark.parametrize("task, want", [
        (None, {"all": 312, "matmul": 47, "reduce": 49}),
        ("A", {"all": 313, "matmul": 48, "reduce": 48}),
    ], ids=["token_head", "sequence_head"])
    def test_loss_and_grads(self, task, want):
        cfg = replace(WIDE, dropout_rate=0.1)
        p = init_model(cfg, VOCAB, {} if task is None else {"A": 3}).params
        counting = encoder.EncoderModel(cfg, FlatParams(p.flat.view(_Counting), p.layout))
        batch = toy_examples("token" if task is None else "sequence", VOCAB, n=4, length=12,
                             seed=5)
        assert len({len(s) for s in batch}) > 1  # padded, so the key mask runs
        _Counting.calls.clear()
        _, grads = loss_and_grads(counting, batch, task, np.random.default_rng(0))
        assert isinstance(grads.flat, _Counting)
        assert {key: _Counting.calls[key] for key in ("all", "matmul", "reduce")} == want


class TestGroupedProjections:
    """Q, K and V as one grouped product over a layer's "attn.wqkv" view
    are the three `_affine` calls, bit for bit."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("precision", [32, 64])
    @pytest.mark.parametrize("rows", [1, 2, 12, 13, 208, 768])
    def test_bit_identical_to_one_affine_per_projection(self, stacked, precision, rows):
        models = _distinct_models(replace(WIDE, precision=precision))
        rng = np.random.default_rng(rows)
        for m in models.values():  # biases off their initial zeros
            m.params.flat[...] = rng.uniform(-0.5, 0.5, m.params.flat.size)
        model = stack_models(models) if stacked else models["A"]
        x = rng.standard_normal((len(models), rows, WIDE.hidden_dim) if stacked
                                else (rows, WIDE.hidden_dim)).astype(WIDE.dtype if precision == 32
                                                                     else np.float64)
        for w in model.params.layers:
            qkv = encoder._affine(x[..., None, :, :], w["attn.wqkv"], w["attn.bqkv"])
            kv = encoder._affine(x[..., None, :, :], w["attn.wkv"], w["attn.bkv"])
            for i, part in enumerate("qkv"):
                want = encoder._affine(x, w[f"attn.w{part}"], w[f"attn.b{part}"])
                assert qkv[..., i, :, :].dtype == want.dtype
                assert qkv[..., i, :, :].tobytes() == want.tobytes()
                if part != "q":
                    assert kv[..., i - 1, :, :].tobytes() == want.tobytes()

    def test_views_are_the_weights_memory(self):
        model = init_model(TOY, VOCAB)
        w = model.params.layers[1]
        w["attn.wqkv"][2, 0, 0] = 5.0
        w["attn.bkv"][0, 0, 1] = 6.0
        assert model.params["layer1.attn.wv"][0, 0] == 5.0
        assert model.params["layer1.attn.bk"][1] == 6.0

    def test_out_of_order_layout_has_no_group(self):
        layout = [(name, shape) for name, shape in param_shapes(TOY, VOCAB).items()]
        at = [name for name, _ in layout].index("layer0.attn.wk")
        layout[at], layout[at + 1] = layout[at + 1], layout[at]  # wv before wk
        params = FlatParams(np.zeros(sum(math.prod(s) for _, s in layout)), layout)
        assert "attn.wqkv" not in params.layers[0] and "attn.wqkv" in params.layers[1]


class TestKeyMask:
    def test_masking_no_key_is_skipped_bit_for_bit(self):
        """An unpadded batch skips the key mask; with an all-false padding
        mask the scores are the same, and so is every bit after them."""
        model = init_model(WIDE, VOCAB)
        packed = pack_batch(toy_examples("token", VOCAB, n=3, length=12, seed=3)[:1] * 3)
        assert packed.mask.all()
        b, length = packed.ids.shape
        x = np.random.default_rng(0).standard_normal((b * length, WIDE.hidden_dim))
        x = x.astype(WIDE.dtype)
        w = model.params.layers[0]
        skipped, _ = encoder._attention_fwd(w, WIDE, x, b, None, None)
        masked, _ = encoder._attention_fwd(w, WIDE, x, b, np.zeros((b, 1, 1, length), bool),
                                           None)
        assert skipped.tobytes() == masked.tobytes()


class TestPackedFields:
    def test_unpadded_batch(self):
        seqs = toy_examples("token", VOCAB, n=1, length=12, seed=3) * 2
        packed = pack_batch(seqs)
        assert packed.ids.tolist() == [seqs[0].subtoken_ids] * 2
        assert packed.ids.dtype == np.int64 and packed.mask.dtype == bool and packed.mask.all()

    def test_training_fields_are_built_on_first_read(self):
        seqs = _edge_sequences()
        packed = pack_batch(seqs)
        assert not {"head_pos", "loss_mask", "tags", "labels"} & set(vars(packed))
        ids = packed.ids
        want = np.zeros((len(seqs), 3), np.int64)  # the first marker, or 0 if none
        want[:, 1] = (ids == S_MARK_ID).argmax(axis=1)
        want[:, 2] = (ids == E_MARK_ID).argmax(axis=1)
        assert packed.head_pos.dtype == np.int64 and np.array_equal(packed.head_pos, want)
        assert packed.head_pos is packed.head_pos  # built once
        assert packed.labels.tolist() == [s.label for s in seqs]
        assert packed.origins == [s.origin for s in seqs]


class TestAddRows:
    """The gradient scatters' `_add_rows` is `np.add.at` over rows, bit for
    bit: each entry adds its terms in the same order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 13), (16, 20), (64, 12), (48,)])
    def test_bit_identical_to_add_at(self, dtype, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        rows = rng.integers(6, 20, size=shape)  # few ids, so most repeat
        if len(shape) == 2:  # token ids: [CLS] and [SEP] in every row
            rows[:, 0], rows[:, -1] = CLS_ID, SEP_ID
        values = rng.standard_normal((*shape, 16)).astype(dtype)
        want = rng.standard_normal((VOCAB, 16)).astype(dtype)
        got = want.copy()
        np.add.at(want, rows, values)
        encoder._add_rows(got, rows, values)
        assert got.tobytes() == want.tobytes()
