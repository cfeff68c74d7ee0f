"""Trained-bits lock: training must keep producing the same weights.

The fit digests below lock the weights `fit` trains under OpenBLAS's
Haswell kernel. Kernels round GEMMs differently (the AVX-512 ones give
other bits), so the fit runs in a child process pinned to that kernel with
`OPENBLAS_CORETYPE=Haswell` and one thread: every x86-64 CPU with AVX2 and
FMA runs it, and numpy's OpenBLAS wheels pick their kernel at run time, so
the lock holds whatever kernel this process uses. Other architectures
cannot run that kernel, so there the fit lock is skipped. A refactor of
the training step must reproduce the digests exactly; a change that moves
them on purpose must say why and record the new values. The optimizer is
also checked step by step against the per-tensor Adam loop, copied here as
the reference; its gradients come from a seeded generator, so it runs in
this process on any kernel.

The fit runs at the benchmark encoder's widths (hidden 128, FFN 256). At
narrower widths OpenBLAS picks its small-matrix kernels for the per-row
products of the old 3-D form, and those round differently from one 2-D
product, so the weights of a narrow model move in their last bits.

The fit digests are numpy's bits too. Float32 `np.tanh` and `np.exp` give
other bits on numpy's baseline loops than on its X86_V3 ones, and GELU's
tanh and the softmax's exp move the trained weights: on the baseline loops
the fits give `7418471e...` and `c294a39e...`. `FIT_DIGESTS` come out both
with every dispatched target on (X86_V3, X86_V4, AVX512_ICL, AVX512_SPR)
and with X86_V3 alone, so the child runs numpy's X86_V3 loops: `FIT_ENV`
sets `NPY_DISABLE_CPU_FEATURES` to the dispatched targets after X86_V3,
replacing what this process was given, and the lock holds when this
process runs on the baseline loops. numpy releases before 2.4 have no
X86_V3 group (they dispatch single targets such as AVX2 and AVX512_SKX);
there `FIT_ENV` sets the variable empty, so the child runs every
dispatched target, as a run with no variable set does.
"""

import hashlib
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

import rxtract
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

FIT_DIGESTS = {  # under OPENBLAS_CORETYPE=Haswell, with numpy's X86_V3+ targets
    None: "c4eb5fb9985906034d49618adc30b69104fc0d0d951ccef51802ddb69f326ff7",
    "Event": "960e31af646f3fcc8d45e555db51259389c14ebd47cadb2a674c273bd2b9e89a",
}
FIT_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
FIT_ENV["NPY_DISABLE_CPU_FEATURES"] = (
    " ".join(__cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:])
    if "X86_V3" in __cpu_dispatch__ else "")
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
    b1, b2 = 0.9, 0.999
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


def _fit_digest(task):
    model = init_model(FIT_CFG, VOCAB, {"Event": 3})
    kind = "token" if task is None else "sequence"
    examples = toy_examples(kind, VOCAB, n=40, length=14, seed=3)
    scores = iter([0.2, 0.6, 0.4, 0.5])  # the best epoch is not the last one
    result = fit(model, examples, TC, lambda m: next(scores), task=task)
    assert result.best_epoch == 2 and len(result.history) == 4
    return _digest(model.params)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the digests are Haswell-kernel bits; only x86-64 runs that kernel")
@pytest.mark.parametrize("task", [None, "Event"])
def test_fit_weights_locked(task):
    src = str(Path(rxtract.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, __file__, str(task)], capture_output=True, text=True,
        env={**os.environ, **FIT_ENV, "PYTHONPATH": path},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [FIT_DIGESTS[task]]


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


if __name__ == "__main__":  # the child process of test_fit_weights_locked
    print(_fit_digest(None if sys.argv[1] == "None" else sys.argv[1]))
