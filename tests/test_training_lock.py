"""Trained-bits lock: training must keep producing the same weights.

The digests below were recorded before the parameters, gradients and
optimizer moments moved into one flat buffer per model, and before every
activation-by-weight product became one 2-D GEMM. A refactor of the
training step must reproduce them exactly; a change that moves them on
purpose must say why and record the new values. The optimizer is also
checked step by step against the per-tensor Adam loop, copied here as the
reference.

The fit runs at the benchmark encoder's widths (hidden 128, FFN 256). At
narrower widths OpenBLAS picks its small-matrix kernels for the per-row
products of the old 3-D form, and those round differently from one 2-D
product, so the weights of a narrow model move in their last bits. The
optimizer check draws its gradients from a seeded generator, so it runs
at any width.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from rxtract.encoder import (
    EncoderConfig,
    OptimizerState,
    TrainConfig,
    clip_gradients,
    fit,
    init_model,
    loss_and_grads,
    optimizer_step,
    toy_examples,
)

VOCAB = 64
FIT_CFG = EncoderConfig(layers=1, hidden_dim=128, heads=4, ffn_dim=256, max_len=32,
                        dropout_rate=0.1, seed=5)
STEP_CFG = EncoderConfig(layers=2, hidden_dim=16, heads=2, ffn_dim=32, max_len=32,
                         dropout_rate=0.1, seed=5)
# clip_norm sits below every gradient norm of the fits, so each of their steps clips
TC = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=4, patience=3,
                 clip_norm=0.05, seed=2)

FIT_DIGESTS = {
    None: "62ba9730a0bc9cf42ce0761adb1e11ceb16ca1a0743645afd6acabbedc5d7963",
    "Event": "728283eded99bb7c74ef98fe8672ec406839434141eb8c427e224dd7a681ee29",
}
STEP_DIGESTS = {
    32: "09311cda1dca48165dd474efd8ace59bd9bd1adad897ca691ddfde2c3bd68e30",
    64: "6516279f95b3dd7b56f0c2b2058b1e1019a875f0e642e16101bf62e16f697982",
}


def _digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def _reference_clip(grads, clip_norm):
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        factor = clip_norm / total
        for g in grads.values():
            g *= g.dtype.type(factor)
    return total


def _reference_step(m, v, params, grads, t, tc):
    _reference_clip(grads, tc.clip_norm)
    b1, b2 = tc.beta1, tc.beta2
    c1 = 1.0 / (1.0 - b1**t)
    c2 = 1.0 / (1.0 - b2**t)
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = m[name] * c1
        v_hat = v[name] * c2
        p -= (tc.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(p.dtype)


def _equal(a, b) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("task", [None, "Event"])
def test_fit_weights_locked(task):
    model = init_model(FIT_CFG, VOCAB, {"Event": 3})
    kind = "token" if task is None else "sequence"
    examples = toy_examples(kind, VOCAB, n=40, length=14, seed=3)
    scores = iter([0.2, 0.6, 0.4, 0.5])  # the best epoch is not the last one
    result = fit(model, examples, TC, lambda m: next(scores), task=task)
    assert result.best_epoch == 2 and len(result.history) == 4
    assert _digest(model.params) == FIT_DIGESTS[task]


@pytest.mark.parametrize("precision", [32, 64])
def test_optimizer_matches_per_tensor_reference(precision):
    cfg = replace(STEP_CFG, precision=precision)
    model = init_model(cfg, VOCAB, {"Event": 3})
    params = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    state = OptimizerState.for_model(model)
    rng = np.random.default_rng(4)
    batch = toy_examples("sequence", VOCAB, n=6, length=14, seed=6)
    _, grads = loss_and_grads(model, batch, "Event")  # laid out like the model
    norms = []
    for t in range(1, 6):
        scale = 1e-5 if t % 2 else 1.0  # norms alternate around clip_norm
        for g in grads.values():
            g[...] = scale * rng.standard_normal(g.shape)
        ref = {k: g.copy() for k, g in grads.items()}
        norm = clip_gradients(grads, TC.clip_norm)
        assert norm == _reference_clip(ref, TC.clip_norm)
        assert _equal(grads, ref)
        norms.append(norm)
        optimizer_step(state, model, grads, TC)
        _reference_step(m, v, params, ref, t, TC)
        assert _equal(model.params, params)
        assert _equal(state.m, m) and _equal(state.v, v)
    assert min(norms) < TC.clip_norm < max(norms)
    assert _digest(model.params) == STEP_DIGESTS[precision]
