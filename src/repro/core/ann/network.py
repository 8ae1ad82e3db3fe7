"""Multi-head backpropagation network (the DBN's "visible layers").

The paper's DBN computes its outputs "by a back propagation network"
sitting on top of the pretrained feature layers.  The outputs mix
types — a categorical capacitor choice ``C_{h,i}``, a scalar pattern
index ``α`` and per-task execution bits ``te`` — so the network has
three heads sharing the hidden stack:

* softmax head (cross-entropy) for the capacitor;
* linear head (squared error) for α;
* sigmoid head (binary cross-entropy) for the task bits.

All three losses have the convenient ``delta = prediction - target``
form, so backpropagation through the shared trunk is uniform.
Implemented from scratch on numpy with mini-batch SGD + momentum.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rbm import RBM, sigmoid

__all__ = ["HeadSpec", "MultiHeadMLP"]


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclasses.dataclass(frozen=True)
class HeadSpec:
    """Output layout: capacitor classes, one α scalar, task bits."""

    num_capacitors: int
    num_tasks: int
    alpha_weight: float = 0.5
    te_weight: float = 1.0
    cap_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.num_capacitors < 1 or self.num_tasks < 1:
            raise ValueError("head sizes must be >= 1")

    @property
    def output_size(self) -> int:
        """Total output width across the three heads."""
        return self.num_capacitors + 1 + self.num_tasks


class MultiHeadMLP:
    """Sigmoid-hidden MLP with softmax/linear/sigmoid heads."""

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        heads: HeadSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if input_size < 1:
            raise ValueError(f"input_size must be >= 1, got {input_size}")
        if not hidden_sizes:
            raise ValueError("need at least one hidden layer")
        self.input_size = input_size
        self.hidden_sizes = tuple(hidden_sizes)
        self.heads = heads
        self.rng = rng or np.random.default_rng(0)

        sizes = [input_size, *hidden_sizes, heads.output_size]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(
                self.rng.normal(0.0, scale, (fan_in, fan_out))
            )
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------
    def load_pretrained(self, rbms: Sequence[RBM]) -> None:
        """Initialise hidden layers from a greedy RBM stack."""
        if len(rbms) > len(self.hidden_sizes):
            raise ValueError(
                f"{len(rbms)} RBMs for {len(self.hidden_sizes)} hidden layers"
            )
        for i, rbm in enumerate(rbms):
            if rbm.weights.shape != self.weights[i].shape:
                raise ValueError(
                    f"RBM {i} shape {rbm.weights.shape} does not match "
                    f"layer shape {self.weights[i].shape}"
                )
            self.weights[i] = rbm.weights.copy()
            self.biases[i] = rbm.hidden_bias.copy()

    # ------------------------------------------------------------------
    def _forward(
        self, x: np.ndarray
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Hidden activations (post-sigmoid) and raw output logits."""
        activations = [x]
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w
            a += b
            activations.append(sigmoid(a, out=a))
        logits = a @ self.weights[-1]
        logits += self.biases[-1]
        return activations, logits

    def _split(
        self, logits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = self.heads.num_capacitors
        cap = _softmax(logits[:, :h])
        alpha = logits[:, h : h + 1]
        te = sigmoid(logits[:, h + 1 :])
        return cap, alpha, te

    def predict(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cap_probs, alpha, te_probs)`` for a batch (or one row)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"input width {x.shape[1]} != expected {self.input_size}"
            )
        _, logits = self._forward(x)
        cap, alpha, te = self._split(logits)
        return cap, alpha[:, 0], te

    # ------------------------------------------------------------------
    def train(
        self,
        x: np.ndarray,
        cap_targets: np.ndarray,
        alpha_targets: np.ndarray,
        te_targets: np.ndarray,
        epochs: int = 100,
        learning_rate: float = 0.05,
        batch_size: int = 32,
        momentum: float = 0.8,
        weight_decay: float = 1e-4,
    ) -> np.ndarray:
        """Mini-batch SGD; returns the per-epoch mean total loss."""
        x = np.asarray(x, dtype=float)
        n = len(x)
        if n == 0:
            raise ValueError("no training samples")
        cap_targets = np.asarray(cap_targets, dtype=int)
        alpha_targets = np.asarray(alpha_targets, dtype=float)
        te_targets = np.asarray(te_targets, dtype=float)
        if len(cap_targets) != n or len(alpha_targets) != n or len(
            te_targets
        ) != n:
            raise ValueError("target lengths must match the inputs")

        h = self.heads.num_capacitors
        cap_onehot = np.zeros((n, h))
        cap_onehot[np.arange(n), cap_targets] = 1.0
        cap_w = self.heads.cap_weight
        alpha_w = self.heads.alpha_weight
        te_w = self.heads.te_weight
        eps = 1e-12

        params, grads_w, grads_b, grads = self._flat_parameters()
        n_weights = sum(w.size for w in self.weights)
        weight_part, grad_weight_part = params[:n_weights], grads[:n_weights]
        decay = np.empty(n_weights)
        velocity = np.zeros_like(params)
        losses = np.zeros(epochs)

        for epoch in range(epochs):
            order = self.rng.permutation(n)
            x_epoch = x[order]
            cap_epoch = cap_onehot[order]
            alpha_epoch = alpha_targets[order]
            te_epoch = te_targets[order]
            total = 0.0
            for start in range(0, n, batch_size):
                stop = start + batch_size
                xb = x_epoch[start:stop]
                cap_b = cap_epoch[start:stop]
                te_b = te_epoch[start:stop]
                acts, logits = self._forward(xb)
                cap, alpha, te = self._split(logits)

                m = len(xb)
                alpha_err = alpha[:, 0] - alpha_epoch[start:stop]
                delta = np.empty_like(logits)
                d_cap = np.subtract(cap, cap_b, out=delta[:, :h])
                d_cap *= cap_w
                np.multiply(alpha_err, alpha_w, out=delta[:, h])
                d_te = np.subtract(te, te_b, out=delta[:, h + 1 :])
                d_te *= te_w
                delta /= m

                total += float(
                    -cap_w * (cap_b * np.log(cap + eps)).sum()
                    + 0.5 * alpha_w * (alpha_err**2).sum()
                    - te_w
                    * (
                        te_b * np.log(te + eps)
                        + (1 - te_b) * np.log(1 - te + eps)
                    ).sum()
                )

                # Backprop through the shared trunk.
                np.matmul(acts[-1].T, delta, out=grads_w[-1])
                np.add.reduce(delta, axis=0, out=grads_b[-1])
                back = delta @ self.weights[-1].T
                for layer in range(len(self.weights) - 2, -1, -1):
                    a = acts[layer + 1]
                    back *= a
                    back *= 1.0 - a
                    np.matmul(acts[layer].T, back, out=grads_w[layer])
                    np.add.reduce(back, axis=0, out=grads_b[layer])
                    if layer > 0:
                        back = back @ self.weights[layer].T

                # Weight decay (weights only), momentum and step, each
                # one pass over the flat buffers.
                np.multiply(weight_part, weight_decay, out=decay)
                grad_weight_part += decay
                velocity *= momentum
                grads *= learning_rate
                velocity -= grads
                params += velocity
            losses[epoch] = total / n
        return losses

    def _flat_parameters(
        self,
    ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray], np.ndarray]:
        """Move the parameters into one flat buffer, weights first.

        ``self.weights`` / ``self.biases`` become views into the
        returned ``params``; the gradient buffer ``grads`` has the same
        layout, with per-layer views ``grads_w`` / ``grads_b``.
        """
        layers = [*self.weights, *self.biases]
        params = np.concatenate([a.ravel() for a in layers])
        grads = np.empty_like(params)

        def views(buffer: np.ndarray) -> List[np.ndarray]:
            out, offset = [], 0
            for a in layers:
                out.append(buffer[offset : offset + a.size].reshape(a.shape))
                offset += a.size
            return out

        depth = len(self.weights)
        param_views, grad_views = views(params), views(grads)
        self.weights = param_views[:depth]
        self.biases = param_views[depth:]
        return params, grad_views[:depth], grad_views[depth:], grads
