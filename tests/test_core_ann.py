"""Tests for the from-scratch ANN stack: RBM, multi-head MLP, DBN."""

import numpy as np
import pytest

from repro.core import DBN, HeadSpec, MultiHeadMLP, RBM


def toy_dataset(n=256, seed=0):
    """Inputs whose structure determines all three heads.

    Two latent modes: 'bright' rows (high first half) map to capacitor
    1, alpha 0.8, te [1,1,0]; 'dark' rows map to capacitor 0, alpha
    0.1, te [1,0,0].
    """
    rng = np.random.default_rng(seed)
    bright = rng.random(n) < 0.5
    x = rng.random((n, 8)) * 0.1
    x[bright, :4] += 0.8
    caps = bright.astype(int)
    alphas = np.where(bright, 0.8, 0.1)
    tes = np.zeros((n, 3))
    tes[:, 0] = 1.0
    tes[bright, 1] = 1.0
    return x, caps, alphas, tes


class TestRBM:
    def test_shapes(self):
        rbm = RBM(8, 4, rng=np.random.default_rng(0))
        v = np.random.default_rng(1).random((10, 8))
        h = rbm.hidden_probs(v)
        assert h.shape == (10, 4)
        assert np.all((h >= 0) & (h <= 1))
        back = rbm.visible_probs(h)
        assert back.shape == (10, 8)

    def test_training_reduces_reconstruction_error(self):
        x, *_ = toy_dataset()
        rbm = RBM(8, 6, rng=np.random.default_rng(0))
        errors = rbm.train(x, epochs=30, learning_rate=0.1)
        assert errors[-1] < errors[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RBM(0, 4)
        rbm = RBM(8, 4)
        with pytest.raises(ValueError):
            rbm.train(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            rbm.train(np.zeros((4, 8)), epochs=0)


class TestMultiHeadMLP:
    def test_predict_shapes_and_ranges(self):
        heads = HeadSpec(num_capacitors=3, num_tasks=4)
        net = MultiHeadMLP(8, [6], heads, rng=np.random.default_rng(0))
        cap, alpha, te = net.predict(np.random.default_rng(1).random((5, 8)))
        assert cap.shape == (5, 3)
        assert np.allclose(cap.sum(axis=1), 1.0)
        assert alpha.shape == (5,)
        assert te.shape == (5, 4)
        assert np.all((te >= 0) & (te <= 1))

    def test_single_row_input(self):
        heads = HeadSpec(num_capacitors=2, num_tasks=3)
        net = MultiHeadMLP(8, [4], heads)
        cap, alpha, te = net.predict(np.zeros(8))
        assert cap.shape == (1, 2)

    def test_training_learns_toy_problem(self):
        x, caps, alphas, tes = toy_dataset()
        heads = HeadSpec(num_capacitors=2, num_tasks=3)
        net = MultiHeadMLP(8, [12], heads, rng=np.random.default_rng(0))
        losses = net.train(
            x, caps, alphas, tes, epochs=120, learning_rate=0.2
        )
        assert losses[-1] < losses[0]
        cap_p, alpha_p, te_p = net.predict(x)
        assert (np.argmax(cap_p, axis=1) == caps).mean() > 0.95
        assert ((te_p >= 0.5) == (tes >= 0.5)).mean() > 0.95
        assert np.sqrt(((alpha_p - alphas) ** 2).mean()) < 0.15

    def test_wrong_input_width_rejected(self):
        net = MultiHeadMLP(8, [4], HeadSpec(2, 3))
        with pytest.raises(ValueError):
            net.predict(np.zeros((2, 5)))

    def test_target_length_mismatch(self):
        net = MultiHeadMLP(8, [4], HeadSpec(2, 3))
        with pytest.raises(ValueError):
            net.train(np.zeros((4, 8)), np.zeros(3, int), np.zeros(4),
                      np.zeros((4, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiHeadMLP(0, [4], HeadSpec(2, 3))
        with pytest.raises(ValueError):
            MultiHeadMLP(8, [], HeadSpec(2, 3))
        with pytest.raises(ValueError):
            HeadSpec(0, 3)


class TestDBN:
    def test_fit_predict_roundtrip(self):
        x, caps, alphas, tes = toy_dataset()
        dbn = DBN(8, [10, 6], HeadSpec(2, 3), seed=0)
        dbn.fit(x, caps, alphas, tes, pretrain_epochs=5, finetune_epochs=80)
        cap_p, alpha_p, te_p = dbn.predict(x)
        assert (np.argmax(cap_p, axis=1) == caps).mean() > 0.9

    def test_pretraining_populates_rbms(self):
        x, *_ = toy_dataset(64)
        dbn = DBN(8, [6, 4], HeadSpec(2, 3), seed=0)
        dbn.pretrain(x, epochs=3)
        assert len(dbn.rbms) == 2
        assert dbn.rbms[0].weights.shape == (8, 6)
        assert dbn.rbms[1].weights.shape == (6, 4)
        # Network hidden layers initialised from the RBM weights.
        assert np.array_equal(dbn.network.weights[0], dbn.rbms[0].weights)

    def test_predict_one(self):
        x, caps, alphas, tes = toy_dataset()
        dbn = DBN(8, [10], HeadSpec(2, 3), seed=0)
        dbn.fit(x, caps, alphas, tes, pretrain_epochs=3, finetune_epochs=50)
        cap, alpha, te = dbn.predict_one(x[0])
        assert cap in (0, 1)
        assert isinstance(alpha, float)
        assert te.shape == (3,)
        assert te.dtype == bool

    def test_mac_count(self):
        dbn = DBN(10, [8, 4], HeadSpec(2, 3))
        # 10*8 + 8*4 + 4*(2+1+3) = 80 + 32 + 24
        assert dbn.mac_count() == 136

    def test_deterministic_given_seed(self):
        x, caps, alphas, tes = toy_dataset(64)
        outs = []
        for _ in range(2):
            dbn = DBN(8, [6], HeadSpec(2, 3), seed=42)
            dbn.fit(x, caps, alphas, tes, pretrain_epochs=2,
                    finetune_epochs=10)
            outs.append(dbn.predict(x)[0])
        assert np.allclose(outs[0], outs[1])

    def test_pretrain_shape_validation(self):
        dbn = DBN(8, [6], HeadSpec(2, 3))
        with pytest.raises(ValueError):
            dbn.pretrain(np.zeros((4, 5)))
