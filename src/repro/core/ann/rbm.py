"""Restricted Boltzmann machine with contrastive divergence.

Building block of the paper's deep belief network (Figure 6): the
hidden layers "extract the features of the inputs by unsupervised
learning" on stacked RBMs.  Implemented from scratch on numpy:
Bernoulli hidden units, real-valued [0, 1] visible units (inputs are
normalised physical quantities), CD-k training with momentum and
weight decay.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["RBM", "sigmoid"]


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-clip(x, -30, 30)))`` into ``out`` (may be ``x``).

    ``out=None`` returns a new array.  The clip bounds overflow; the
    operations are those of the textbook expression, so in-place and
    fresh results are identical.
    """
    out = np.maximum(x, -30.0, out=out)
    np.minimum(out, 30.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class RBM:
    """Bernoulli-Bernoulli RBM (visible units may be probabilities).

    Parameters
    ----------
    num_visible / num_hidden:
        Layer sizes.
    rng:
        Numpy generator for reproducible init and sampling.
    """

    def __init__(
        self,
        num_visible: int,
        num_hidden: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_visible < 1 or num_hidden < 1:
            raise ValueError("layer sizes must be >= 1")
        self.num_visible = num_visible
        self.num_hidden = num_hidden
        self.rng = rng or np.random.default_rng(0)
        scale = 0.1 / np.sqrt(num_visible)
        self.weights = self.rng.normal(0.0, scale, (num_visible, num_hidden))
        self.visible_bias = np.zeros(num_visible)
        self.hidden_bias = np.zeros(num_hidden)

    # ------------------------------------------------------------------
    def hidden_probs(self, visible: np.ndarray) -> np.ndarray:
        """``P(h=1 | v)`` for a batch of visible vectors."""
        h = visible @ self.weights
        h += self.hidden_bias
        return sigmoid(h, out=h)

    def visible_probs(self, hidden: np.ndarray) -> np.ndarray:
        """``P(v=1 | h)`` for a batch of hidden vectors."""
        v = hidden @ self.weights.T
        v += self.visible_bias
        return sigmoid(v, out=v)

    def sample_hidden(self, visible: np.ndarray) -> np.ndarray:
        """Bernoulli sample of the hidden units given ``visible``."""
        probs = self.hidden_probs(visible)
        return (self.rng.random(probs.shape) < probs).astype(float)

    # ------------------------------------------------------------------
    def train(
        self,
        data: np.ndarray,
        epochs: int = 20,
        learning_rate: float = 0.05,
        batch_size: int = 32,
        cd_steps: int = 1,
        momentum: float = 0.5,
        weight_decay: float = 1e-4,
    ) -> np.ndarray:
        """CD-k training; returns per-epoch reconstruction errors."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.num_visible:
            raise ValueError(
                f"data must be (samples, {self.num_visible}), got {data.shape}"
            )
        if epochs < 1 or batch_size < 1 or cd_steps < 1:
            raise ValueError("epochs, batch_size, cd_steps must be >= 1")
        n = len(data)
        vel_w = np.zeros_like(self.weights)
        vel_vb = np.zeros_like(self.visible_bias)
        vel_hb = np.zeros_like(self.hidden_bias)
        errors = np.zeros(epochs)

        for epoch in range(epochs):
            order = self.rng.permutation(n)
            recon_err = 0.0
            for start in range(0, n, batch_size):
                batch = data[order[start : start + batch_size]]
                pos_h = self.hidden_probs(batch)
                pos_assoc = batch.T @ pos_h

                h = (self.rng.random(pos_h.shape) < pos_h).astype(float)
                v = batch
                for _ in range(cd_steps):
                    v = self.visible_probs(h)
                    neg_h = self.hidden_probs(v)
                    h = (self.rng.random(neg_h.shape) < neg_h).astype(float)
                neg_assoc = v.T @ neg_h

                m = len(batch)
                grad_w = (pos_assoc - neg_assoc) / m - weight_decay * self.weights
                grad_vb = (batch - v).mean(axis=0)
                grad_hb = (pos_h - neg_h).mean(axis=0)

                vel_w = momentum * vel_w + learning_rate * grad_w
                vel_vb = momentum * vel_vb + learning_rate * grad_vb
                vel_hb = momentum * vel_hb + learning_rate * grad_hb
                self.weights += vel_w
                self.visible_bias += vel_vb
                self.hidden_bias += vel_hb

                recon_err += float(((batch - v) ** 2).sum())
            errors[epoch] = recon_err / n
        return errors
