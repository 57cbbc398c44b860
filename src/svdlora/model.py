"""Frozen toy transformer backbone with SVD-LoRA hooks at Q and V.

Two encoder layers by default: single-head softmax attention with 1/sqrt(d)
scaling, a tanh MLP (d -> 4d -> d), residual connections, mean pooling over
the sequence, then a per-task linear head. Backbone weights are generated
from a seed and frozen (write-protected); only adapters and the head train.

Forward and reverse passes are written out explicitly in numpy so gradient
correctness can be checked against finite differences without an autodiff
framework. Both work on token rows: a batch (n, seq_len, d) is reshaped once
to (n*seq_len, d), so every projection, the adapter factors and both MLP
matmuls are single 2-D GEMMs, and only the attention scores and ``p @ v``
stay batched (n, seq_len, .) matmuls. The backward pass computes no gradient
with respect to the first layer's input, which is data, and writes every
gradient in place into an adapter set of the trained set's layout; in
training its tensors are views into the vector the optimizer steps.

Importing this module pins glibc's malloc thresholds (see
:func:`_pin_malloc_thresholds`), so that a step's temporaries are reused
from the heap whatever the process allocated before; setting
``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
``glibc.malloc.*`` entry of ``GLIBC_TUNABLES`` leaves them to the
environment.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .adapter import SLOTS, AdapterSet, ModelSignature, TargetId
from .errors import DataError, ModelError, ParameterError

_BACKBONE_TAG = 5551
MLP_RATIO = 4  # hidden width of the MLP, in multiples of embed_dim
DEFAULT_BACKBONE_SEED = 7  # the backbone of the CLI and of the benchmark suites

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 8 MiB.

    By default glibc maps every request above 128 KiB afresh, and raises
    both thresholds to the size of any mapped chunk that is freed. A
    training step's temporaries (``hact``, ``dtanh`` and ``du1`` are
    256 KiB each at batch 32; an evaluation chunk's are 512 KiB) are then
    either recycled in the heap or mapped and faulted in again on every
    step, depending on what the process freed before. On a 2-core VM, 100
    batch-32 steps in a fresh process that had built its data in place took
    ~53,000-55,400 minor page faults at 2.9-3.1 ms per step; with the
    thresholds pinned, none at 1.9-2.0 ms per step. At 1 MiB a task's
    training split (512 x 8 x 32 doubles) is still mapped, so freeing it
    returns the memory; 8 MiB is above one step's ~2 MiB of churn. 4 MiB /
    32 MiB raised the reduced benchmark's peak RSS from 55.0 to 58.0 MB. A
    threshold the environment sets wins, and a C library without
    ``mallopt`` (not glibc) is left alone.
    """
    if (os.name != "posix" or "MALLOC_MMAP_THRESHOLD_" in os.environ
            or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        mallopt(_M_TRIM_THRESHOLD, 8 << 20)


_pin_malloc_thresholds()


def backbone_param_count(embed_dim: int, num_layers: int) -> int:
    """Frozen weights per backbone: attention 4d^2 plus MLP 2*MLP_RATIO*d^2
    per layer."""
    return (4 + 2 * MLP_RATIO) * embed_dim * embed_dim * num_layers


@dataclass(frozen=True)
class LayerWeights:
    Wq: np.ndarray
    Wk: np.ndarray
    Wv: np.ndarray
    Wo: np.ndarray
    W1: np.ndarray  # (hidden, d)
    W2: np.ndarray  # (d, hidden)


class TinyModel:
    """Immutable toy backbone standing in for a pre-trained model."""

    def __init__(self, embed_dim: int = 32, num_layers: int = 2,
                 seed: int = DEFAULT_BACKBONE_SEED):
        if seed < 0:
            raise ParameterError(f"backbone seed must be non-negative, got {seed}")
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.hidden_dim = MLP_RATIO * embed_dim
        self.seed = seed
        d, h = embed_dim, self.hidden_dim
        digest = hashlib.sha256(
            f"tiny-transformer d={embed_dim} L={num_layers} h={h} seed={seed}".encode()
        ).hexdigest()[:16]
        # ModelSignature rejects a dimension below 1 before any weight is drawn
        self.signature = ModelSignature(embed_dim, num_layers, digest)
        rng = np.random.default_rng([_BACKBONE_TAG, seed])
        layers = []
        for _ in range(num_layers):
            mats = {
                "Wq": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wk": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wv": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wo": rng.standard_normal((d, d)) / np.sqrt(d),
                "W1": rng.standard_normal((h, d)) / np.sqrt(d),
                "W2": rng.standard_normal((d, h)) / np.sqrt(h),
            }
            for m in mats.values():
                m.setflags(write=False)
            layers.append(LayerWeights(**mats))
        self.layers = tuple(layers)

    def targets(self) -> list[TargetId]:
        return [
            TargetId(layer, slot)
            for layer in range(self.num_layers)
            for slot in SLOTS
        ]


def check_signature(model: TinyModel, adapters: AdapterSet) -> None:
    if adapters.signature != model.signature:
        raise ModelError(
            f"adapter set signature {adapters.signature} does not match "
            f"model signature {model.signature}"
        )


def forward(model: TinyModel, adapters: AdapterSet, x: np.ndarray,
            head: tuple[np.ndarray, np.ndarray] | None = None,
            want_cache: bool = False):
    """Logits for a batch x of shape (n, seq_len, embed_dim).

    ``head`` overrides the set's own classifier (used when evaluating a
    merged, head-less set with a task-specific head). ``want_cache`` also
    returns :func:`backward`'s cache, per layer ``(x, q, k, v, p, hact,
    adapted)``; ``adapted`` is ``(w, adapter or None, ya, yb)`` per slot.
    """
    check_signature(model, adapters)
    if head is None:
        if adapters.head_w is None:
            raise ModelError("adapter set has no head and none was supplied")
        head = (adapters.head_w, adapters.head_b)
    head_w, head_b = head
    if x.ndim != 3 or x.shape[2] != model.embed_dim:
        raise ModelError(f"batch shape {x.shape} incompatible with embed dim {model.embed_dim}")

    n, seq_len, d = x.shape
    scale = 1.0 / np.sqrt(d)
    x = x.reshape(n * seq_len, d)
    cache = []
    for layer_index, lw in enumerate(model.layers):
        projections, adapted = [], []
        for slot, w in zip(SLOTS, (lw.Wq, lw.Wv)):
            ad = adapters.adapters.get(TargetId(layer_index, slot))
            proj = x @ w.T
            ya = yb = None
            if ad is not None:  # x @ (w + delta).T without forming delta
                ya = x @ ad.A.T  # (n*T, r)
                yb = ya * ad.E
                proj += yb @ ad.B.T
            projections.append(proj)
            adapted.append((w, ad, ya, yb))
        q, v = projections
        k = x @ lw.Wk.T
        p = q.reshape(n, seq_len, d) @ k.reshape(n, seq_len, d).transpose(0, 2, 1)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx = p @ v.reshape(n, seq_len, d)
        x1 = ctx.reshape(n * seq_len, d) @ lw.Wo.T
        x1 += x
        hact = x1 @ lw.W1.T
        np.tanh(hact, out=hact)
        x2 = hact @ lw.W2.T
        x2 += x1
        if want_cache:
            cache.append((x, q, k, v, p, hact, adapted))
        x = x2
    pooled = x.reshape(n, seq_len, d).mean(axis=1)
    logits = pooled @ head_w + head_b
    if want_cache:
        return logits, dict(layers=cache, pooled=pooled, head=head)
    return logits


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits."""
    n, c = logits.shape
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1, keepdims=True)
    probs = expv / total
    logprob = shifted - np.log(total)
    loss = -float(logprob[np.arange(n), labels].mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def orthogonality_penalty(adapters: AdapterSet, grads: AdapterSet | None = None,
                          reg_weight: float = 0.0) -> float:
    """Sum over adapters of ||B'B - I||_F^2 + ||AA' - I||_F^2.

    Given ``grads``, a set in ``adapters``' layout, the penalty's gradient
    scaled by ``reg_weight``, 4*B(B'B - I) for B and 4*(AA' - I)A for A, is
    also added in place to its factors, from the same Gram matrices.
    """
    total = 0.0
    for tid, a in adapters.adapters.items():
        gram_b = a.B.T @ a.B
        gram_a = a.A @ a.A.T
        gram_b.flat[::a.rank + 1] -= 1.0
        gram_a.flat[::a.rank + 1] -= 1.0
        total += float(np.sum(gram_b * gram_b) + np.sum(gram_a * gram_a))
        if grads is not None and reg_weight != 0.0:
            g = grads.adapters[tid]  # frozen: add through the views
            g.B[...] += 4.0 * reg_weight * (a.B @ gram_b)
            g.A[...] += 4.0 * reg_weight * (gram_a @ a.A)
    return total


def backward(model: TinyModel, cache: dict, dlogits: np.ndarray,
             grads: AdapterSet) -> None:
    """Exact reverse-mode gradients of the network through the cached
    forward pass, written in place into ``grads``, a set in the layout of
    the adapters that pass ran with, whose every tensor is overwritten.

    Backbone weights are frozen: the pass propagates through them but never
    accumulates gradients for them, and it stops at the first layer's input,
    which is data. The orthogonality penalty is not part of the network;
    :func:`train.gradients` adds its gradient afterwards.
    """
    head_w, _ = cache["head"]
    np.matmul(cache["pooled"].T, dlogits, out=grads.head_w)
    np.sum(dlogits, axis=0, out=grads.head_b)
    dz = dlogits @ head_w.T  # (n, d)

    n, d = dz.shape
    seq_len = len(cache["layers"][0][0]) // n  # rows of the first layer's x
    dx = np.repeat(dz / seq_len, seq_len, axis=0)  # (n*T, d)
    scale = 1.0 / np.sqrt(d)

    for layer_index in reversed(range(model.num_layers)):
        lw = model.layers[layer_index]
        x, q, k, v, p, hact, adapted = cache["layers"][layer_index]

        dtanh = np.square(hact)
        np.subtract(1.0, dtanh, out=dtanh)
        du1 = dx @ lw.W2
        du1 *= dtanh
        dx1 = du1 @ lw.W1
        dx1 += dx  # residual branch

        dctx = (dx1 @ lw.Wo).reshape(n, seq_len, d)
        dscores = dctx @ v.reshape(n, seq_len, d).transpose(0, 2, 1)
        dv = (p.transpose(0, 2, 1) @ dctx).reshape(n * seq_len, d)
        dscores -= np.sum(dscores * p, axis=-1, keepdims=True)
        dscores *= p
        dq = (dscores @ k.reshape(n, seq_len, d)).reshape(n * seq_len, d)
        dq *= scale

        dx_in = None  # stays None at layer 0, whose input is data
        if layer_index > 0:
            dk = (dscores.transpose(0, 2, 1) @ q.reshape(n, seq_len, d)).reshape(n * seq_len, d)
            dk *= scale
            dx_in = dx1
            dx_in += dk @ lw.Wk
        for dproj, (w, ad, ya, yb) in zip((dq, dv), adapted):
            if dx_in is not None:
                dx_in += dproj @ w
            if ad is None:
                continue
            g = grads.adapters[ad.target]
            dya = dproj @ ad.B
            np.matmul(dproj.T, yb, out=g.B)
            np.sum(dya * ya, axis=0, out=g.E)
            dya *= ad.E
            np.matmul(dya.T, x, out=g.A)
            if dx_in is not None:
                dx_in += dya @ ad.A
        dx = dx_in
