"""Figure 6 companion: DBN architecture and training diagnostics.

Figure 6 of the paper is the DBN's architecture diagram, not an
experiment; this runner documents the trained network that stands in
for it — layer sizes, unsupervised pretraining reconstruction error
per RBM, supervised fine-tuning loss, and the network's accuracy on
its own training samples (how faithfully the compact model captures
the LUT/DP behaviour it compresses).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..tasks import wam
from .common import Check, ExperimentTable, train_policy

__all__ = ["run", "checks"]


def run() -> ExperimentTable:
    """Architecture, training convergence and fidelity of the DBN."""
    policy = train_policy(wam())
    dbn = policy.dbn
    codec = policy.codec

    # Fidelity is measured on the *trajectory* samples (the first
    # total_periods entries); the off-trajectory augmentation that
    # follows them randomises idle-capacitor voltages, which makes the
    # capacitor label deliberately ambiguous there (see
    # LongTermOptimizer.optimize's augment_per_period).
    trajectory = policy.samples[: policy.timeline.total_periods]
    x, caps, alphas, tes = codec.encode_samples(trajectory)
    cap_probs, alpha_pred, te_probs = dbn.predict(x)
    cap_acc = float((np.argmax(cap_probs, axis=1) == caps).mean())
    te_acc = float(((te_probs >= 0.5) == (tes >= 0.5)).mean())
    alpha_rmse = float(np.sqrt(((alpha_pred - alphas) ** 2).mean()))

    rows = [
        ["input width", str(dbn.input_size)],
        ["hidden layers", " -> ".join(str(h) for h in dbn.hidden_sizes)],
        [
            "output heads",
            f"{dbn.heads.num_capacitors} capacitors + alpha + "
            f"{dbn.heads.num_tasks} task bits",
        ],
        ["forward-pass MACs", f"{dbn.mac_count():,}"],
        [
            "training samples",
            f"{len(policy.samples)} ({len(trajectory)} trajectory + "
            f"{len(policy.samples) - len(trajectory)} augmented)",
        ],
    ]
    for i, errs in enumerate(dbn.pretrain_errors):
        rows.append(
            [
                f"RBM {i + 1} reconstruction",
                f"{errs[0]:.3f} -> {errs[-1]:.3f}",
            ]
        )
    if dbn.finetune_losses is not None:
        rows.append(
            [
                "fine-tune loss",
                f"{dbn.finetune_losses[0]:.3f} -> "
                f"{dbn.finetune_losses[-1]:.3f}",
            ]
        )
    rows += [
        ["capacitor accuracy", f"{cap_acc * 100:.1f}%"],
        ["task-bit accuracy", f"{te_acc * 100:.1f}%"],
        ["alpha RMSE (scaled)", f"{alpha_rmse:.3f}"],
    ]
    notes = [
        "pretraining (RBM stack) and fine-tuning (backprop) both reduce "
        "their objectives; the compact network reproduces the oracle's "
        "decisions on its training distribution",
    ]
    return ExperimentTable(
        title="Figure 6 companion: the trained DBN",
        headers=["property", "value"],
        rows=rows,
        notes=notes,
    )


def checks(table: ExperimentTable) -> List[Check]:
    """The compact model reproduces its training targets, and both
    training phases made progress."""
    values = {r[0]: r[1] for r in table.rows}
    cap = values["capacitor accuracy"]
    bits = values["task-bit accuracy"]
    first, last = values["fine-tune loss"].split(" -> ")
    return [
        ("capacitor_accuracy", float(cap.rstrip("%")) > 70.0, f"{cap} <= 70%"),
        ("task_bit_accuracy", float(bits.rstrip("%")) > 90.0, f"{bits} <= 90%"),
        (
            "finetune_loss_decreases",
            float(last) < float(first),
            f"fine-tune loss {first} -> {last}",
        ),
    ]
