"""Encoder forward/backward, heads, loss, optimizer, and gradient checks."""

import math

import numpy as np
import pytest

from rxtract.encoder import (
    EncoderConfig,
    OptimizerState,
    TrainConfig,
    _forward_batch,
    _gelu,
    _gelu_grad,
    forward_batch,
    grad_check,
    init_model,
    loss_and_grads,
    optimizer_step,
    pack_batch,
    parameter_count,
    sequence_logits_batch,
    token_logits,
    toy_examples,
)
from rxtract.errors import ConfigError, NumericError, SequenceLengthError
from rxtract.preproc import PAD_ID, BioTag, LabeledSequence

TOY = EncoderConfig(
    layers=2, hidden_dim=16, heads=2, ffn_dim=32, max_len=32,
    vocab_size=64, dropout_rate=0.0, seed=3, precision=64,
)


def _hidden(model, seq):
    """Inference-mode hidden states of one sequence."""
    return forward_batch(model, [seq])[0][0]


def _softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(TOY, {"Event": 3})
        b = init_model(TOY, {"Event": 3})
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_heads_divisibility_checked(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(heads=3, hidden_dim=64))

    def test_dropout_range_checked(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(dropout_rate=1.0))

    def test_max_len_floor(self):
        with pytest.raises(ConfigError):
            init_model(EncoderConfig(max_len=4))

    def test_parameter_count_closed_form(self):
        cfg = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=128,
                            vocab_size=4096, max_len=256)
        model = init_model(cfg, {"Event": 3})
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
        assert parameter_count(model) == expected

    def test_init_ranges(self):
        model = init_model(TOY)
        assert float(np.abs(model.params["tok_emb"]).max()) <= 0.02
        assert np.all(model.params["layer0.ln1.gain"] == 1.0)
        assert np.all(model.params["layer0.attn.bq"] == 0.0)


def _plain_seq(ids, n_words=None, tags=None, label=None):
    length = len(ids)
    mask = [1 if i != 0 else 0 for i in ids]
    word_index = list(range(length)) if n_words is None else (
        list(range(n_words)) + [-1] * (length - n_words)
    )
    return LabeledSequence(
        subtoken_ids=ids, attention_mask=mask, word_index=word_index,
        tags=tags, label=label, origin=("t", None),
    )


class TestForward:
    def test_attention_probs_sum_to_one(self):
        model = init_model(TOY)
        batch = toy_examples("token", TOY.vocab_size, n=3, length=16, seed=0)
        packed = pack_batch(batch, model)
        _, cache = _forward_batch(model, packed.ids, packed.mask)
        for layer in cache["layers"]:
            sums = layer["probs"].sum(axis=-1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_pad_tail_content_is_inert(self):
        model = init_model(TOY)
        ids = [2, 7, 8, 9, 3, 0, 0, 0]
        seq_a = LabeledSequence(ids, [1] * 5 + [0] * 3, [-1, 0, 1, 2, -1, -1, -1, -1])
        ids_b = [2, 7, 8, 9, 3, 13, 14, 15]  # junk in the padding tail
        seq_b = LabeledSequence(ids_b, [1] * 5 + [0] * 3, [-1, 0, 1, 2, -1, -1, -1, -1])
        ha = _forward_batch(model, *_ids_mask(model, seq_a))[0]
        hb = _forward_batch(model, *_ids_mask(model, seq_b))[0]
        assert np.array_equal(ha[0, :5], hb[0, :5])

    def test_inference_deterministic(self):
        model = init_model(TOY)
        seq = toy_examples("token", TOY.vocab_size, n=1, length=12, seed=1)[0]
        assert np.array_equal(_hidden(model, seq), _hidden(model, seq))

    def test_sequence_too_long(self):
        model = init_model(TOY)
        ids = [2] + [7] * TOY.max_len + [3]
        seq = LabeledSequence(ids, [1] * len(ids), [-1] * len(ids))
        with pytest.raises(SequenceLengthError):
            forward_batch(model, [seq])

    def test_single_position_matches_scalar_recomputation(self):
        cfg = EncoderConfig(layers=1, hidden_dim=4, heads=2, ffn_dim=8,
                            max_len=8, vocab_size=16, dropout_rate=0.0,
                            seed=11, precision=64)
        model = init_model(cfg)
        tok = 9
        seq = LabeledSequence([tok], [1], [0])
        got = _hidden(model, seq)[0]
        want = _scalar_one_layer(model, tok)
        assert np.allclose(got, want, atol=1e-9)


class TestPackBatch:
    """`pack_batch` is the one place that writes padding."""

    def _mixed(self):
        batch = toy_examples("token", TOY.vocab_size, n=6, length=20, seed=9)
        assert len({len(s) for s in batch}) > 2
        return batch

    def test_short_rows_get_a_padding_tail(self):
        batch = self._mixed()
        packed = pack_batch(batch, init_model(TOY))
        width = max(len(s) for s in batch)
        assert packed.ids.shape == (len(batch), width)
        for i, s in enumerate(batch):
            n = len(s)
            assert packed.ids[i, :n].tolist() == s.subtoken_ids
            assert packed.mask[i, :n].tolist() == [1.0] * n
            assert packed.tags[i, :n].tolist() == [int(t) for t in s.tags]
            assert np.all(packed.ids[i, n:] == PAD_ID)
            assert np.all(packed.mask[i, n:] == 0)
            assert not packed.loss_mask[i, n:].any()
            assert np.all(packed.tags[i, n:] == int(BioTag.O))

    def test_real_positions_match_packing_alone(self):
        model = init_model(TOY)
        batch = self._mixed()
        hidden, _ = forward_batch(model, batch)
        assert hidden.dtype == np.float64
        for i, s in enumerate(batch):
            alone = _hidden(model, s)
            assert alone.shape[0] == len(s)
            assert np.abs(hidden[i, : len(s)] - alone).max() <= 1e-12


def _ids_mask(model, seq):
    packed = pack_batch([seq], model)
    return packed.ids, packed.mask


def _scalar_one_layer(model, tok):
    """Re-derive a length-1 forward pass with plain Python arithmetic."""
    p = {k: v.tolist() for k, v in model.params.items()}
    h = model.config.hidden_dim

    def vec_mat(x, w):
        return [sum(x[i] * w[i][j] for i in range(len(x))) for j in range(len(w[0]))]

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

    x = add(p["tok_emb"][tok], p["pos_emb"][0])
    # one key only: attention probabilities are exactly 1, context = value
    v = add(vec_mat(x, p["layer0.attn.wv"]), p["layer0.attn.bv"])
    attn_out = add(vec_mat(v, p["layer0.attn.wo"]), p["layer0.attn.bo"])
    y = layer_norm(add(x, attn_out), p["layer0.ln1.gain"], p["layer0.ln1.bias"])
    a = add(vec_mat(y, p["layer0.ffn.w1"]), p["layer0.ffn.b1"])
    g = [gelu(val) for val in a]
    f = add(vec_mat(g, p["layer0.ffn.w2"]), p["layer0.ffn.b2"])
    return layer_norm(add(y, f), p["layer0.ln2.gain"], p["layer0.ln2.bias"])


class TestGelu:
    GRID = np.linspace(-12.0, 12.0, 4001)

    def test_float32_matches_float64_formula(self):
        x32 = self.GRID.astype(np.float32)
        g32, t32 = _gelu(x32)
        g64, _ = _gelu(x32.astype(np.float64))
        assert g32.dtype == np.float32 and t32.dtype == np.float32
        assert np.abs(g32 - g64).max() < 1e-6

    def test_grad_matches_central_difference(self):
        x = self.GRID
        step = 1e-5
        _, t = _gelu(x)
        numeric = (_gelu(x + step)[0] - _gelu(x - step)[0]) / (2.0 * step)
        assert np.abs(_gelu_grad(x, t) - numeric).max() < 1e-8


class TestHeads:
    def test_zero_token_head_uniform(self):
        model = init_model(TOY)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = 0.0
        seq = toy_examples("token", TOY.vocab_size, n=1, length=12, seed=2)[0]
        logits = token_logits(model, _hidden(model, seq))
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
        model = init_model(TOY, {"Event": 3})
        model.params["seq_head.Event.w"][:] = 0.0
        seq = toy_examples("sequence", TOY.vocab_size, n=1, length=12, seed=3)[0]
        logits = sequence_logits_batch(model, [seq], "Event")[0]
        assert np.allclose(_softmax(logits), 1.0 / 3.0, atol=1e-9)

    def test_logits_do_not_depend_on_gold_labels(self):
        model = init_model(TOY, {"Event": 3})
        batch = toy_examples("sequence", TOY.vocab_size, n=4, length=12, seed=8)
        before = sequence_logits_batch(model, batch, "Event")
        for seq in batch:
            seq.label = (seq.label + 1) % 3
        after = sequence_logits_batch(model, batch, "Event")
        assert np.array_equal(before, after)

    def test_sequence_head_scalar_recomputation(self):
        cfg = EncoderConfig(layers=1, hidden_dim=4, heads=2, ffn_dim=8,
                            max_len=8, vocab_size=16, dropout_rate=0.0,
                            seed=5, precision=64)
        model = init_model(cfg, {"flag": 2})
        seq = LabeledSequence([2, 4, 9, 5, 3], [1] * 5, [-1, -1, 0, -1, -1])
        hidden = _hidden(model, seq)
        logits = sequence_logits_batch(model, [seq], "flag")[0]
        feat = list(hidden[0]) + list(hidden[1]) + list(hidden[3])
        w = model.params["seq_head.flag.w"].tolist()
        b = model.params["seq_head.flag.b"].tolist()
        want = [
            sum(feat[i] * w[i][j] for i in range(len(feat))) + b[j] for j in range(2)
        ]
        assert np.allclose(logits, want, atol=1e-10)


class TestLoss:
    def test_confident_correct_predictions_near_zero_loss(self):
        model = init_model(TOY)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = [-20.0, -20.0, 20.0]  # always O
        batch = toy_examples("token", TOY.vocab_size, n=2, length=12, seed=4)
        for seq in batch:
            seq.tags = [BioTag.O] * len(seq)
        loss, _ = loss_and_grads(model, batch, "token")
        assert loss < 1e-8

    def test_uniform_predictions_log3(self):
        model = init_model(TOY)
        model.params["token_head.w"][:] = 0.0
        model.params["token_head.b"][:] = 0.0
        batch = toy_examples("token", TOY.vocab_size, n=2, length=12, seed=5)
        loss, _ = loss_and_grads(model, batch, "token")
        assert abs(loss - math.log(3)) < 1e-6

    def test_batch_order_invariance(self):
        model = init_model(TOY, {"Event": 3})
        batch = toy_examples("token", TOY.vocab_size, n=5, length=14, seed=6)
        a, _ = loss_and_grads(model, batch, "token")
        b, _ = loss_and_grads(model, list(reversed(batch)), "token")
        assert abs(a - b) < 1e-9

    def test_gradients_cover_every_parameter(self):
        model = init_model(TOY, {"Event": 3})
        batch = toy_examples("sequence", TOY.vocab_size, n=3, length=12, seed=7)
        _, grads = loss_and_grads(model, batch, "sequence", task="Event")
        assert grads.keys() == model.params.keys()
        for k, g in grads.items():
            assert g.shape == model.params[k].shape

    def test_non_finite_loss_carries_origin(self):
        model = init_model(TOY)
        model.params["tok_emb"][:] = np.nan
        batch = toy_examples("token", TOY.vocab_size, n=2, length=12, seed=8)
        with pytest.raises(NumericError) as exc:
            loss_and_grads(model, batch, "token")
        assert exc.value.origin == batch[0].origin


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        model = init_model(TOY)
        before = model.copy_params()
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        optimizer_step(OptimizerState.for_model(model), model, grads, TrainConfig())
        for k in before:
            assert np.array_equal(before[k], model.params[k])

    def test_first_step_is_signed_learning_rate(self):
        model = init_model(TOY)
        tc = TrainConfig(learning_rate=0.01, clip_norm=100.0)
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["token_head.b"][0] = 0.5
        before = float(model.params["token_head.b"][0])
        optimizer_step(OptimizerState.for_model(model), model, grads, tc)
        delta = float(model.params["token_head.b"][0]) - before
        # bias-corrected first step: -lr * g / (|g| + eps) ~= -lr * sign(g)
        assert abs(delta + tc.learning_rate) < 1e-6 * tc.learning_rate

    def test_clipping_equals_prescaled_gradients(self):
        tc = TrainConfig(learning_rate=0.05, clip_norm=1.0)
        model_a = init_model(TOY)
        model_b = init_model(TOY)
        grads_a = {k: np.zeros_like(v) for k, v in model_a.params.items()}
        grads_a["token_head.b"][2] = 10.0  # global norm 10, clip 1
        grads_b = {k: g.copy() / 10.0 for k, g in grads_a.items()}
        optimizer_step(OptimizerState.for_model(model_a), model_a, grads_a, tc)
        optimizer_step(OptimizerState.for_model(model_b), model_b, grads_b, tc)
        for k in model_a.params:
            assert np.array_equal(model_a.params[k], model_b.params[k])


class TestGradCheck:
    def test_token_mode(self):
        model = init_model(TOY)
        batch = toy_examples("token", TOY.vocab_size, n=4, length=16, seed=1)
        report = grad_check(model, batch, "token", n_samples=220, seed=9)
        assert report.n_checked >= 200
        assert report.max_rel_error < 1e-4

    def test_sequence_mode(self):
        model = init_model(TOY, {"Event": 3})
        batch = toy_examples("sequence", TOY.vocab_size, n=4, length=16, seed=2)
        report = grad_check(model, batch, "sequence", task="Event", n_samples=220, seed=10)
        assert report.max_rel_error < 1e-4

    def test_zero_analytic_and_numeric_counts_as_pass(self):
        cfg = EncoderConfig(layers=1, hidden_dim=8, heads=2, ffn_dim=16,
                            max_len=16, vocab_size=32, dropout_rate=0.0,
                            seed=1, precision=64)
        # the Event head never feeds the token loss: exact zero on both routes
        model = init_model(cfg, {"Event": 3})
        batch = toy_examples("token", cfg.vocab_size, n=2, length=10, seed=3)
        report = grad_check(model, batch, "token",
                            n_samples=parameter_count(model), seed=11)
        assert report.n_checked == parameter_count(model)
        assert report.max_rel_error < 1e-4

    def test_requires_64_bit(self):
        model = init_model(EncoderConfig(layers=1, hidden_dim=8, heads=2,
                                         ffn_dim=16, vocab_size=32, precision=32))
        batch = toy_examples("token", 32, n=2, length=10, seed=4)
        with pytest.raises(ConfigError):
            grad_check(model, batch, "token")


class TestTrainingSignal:
    def test_fifty_steps_memorize_small_batch(self):
        cfg = EncoderConfig(layers=1, hidden_dim=32, heads=2, ffn_dim=64,
                            max_len=32, vocab_size=64, dropout_rate=0.0,
                            seed=2, precision=32)
        model = init_model(cfg)
        batch = toy_examples("token", cfg.vocab_size, n=10, length=16, seed=5)
        tc = TrainConfig(learning_rate=1e-2, clip_norm=1.0)
        state = OptimizerState.for_model(model)
        initial, _ = loss_and_grads(model, batch, "token")
        for _ in range(50):
            _, grads = loss_and_grads(model, batch, "token")
            optimizer_step(state, model, grads, tc)
        final, _ = loss_and_grads(model, batch, "token")
        assert final <= 0.1 * initial
