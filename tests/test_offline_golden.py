"""Golden digest of the offline stage (sizing → long-term DP → DBN).

``tests/data/offline_golden.json`` holds, per benchmark, the sha256 of
one small :class:`~repro.core.offline.TrainedPolicy`: its sized
capacitances, every training sample, the fine-tuned DBN weights and
biases, ``finetune_losses`` and ``pretrain_errors``.  The run is the
experiments' own two-day synthetic training trace (so cloud sampling
is covered too) with few epochs, so the test takes seconds.  Every
float is hashed by its bytes: a rewrite of any offline loop must
reproduce the old results exactly, not approximately.

Regenerate only after an *intentional* change of the offline results
with::

    PYTHONPATH=src python tests/test_offline_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import OfflinePipeline
from repro.experiments.common import training_trace
from repro.tasks import random_case, wam

GOLDEN = Path(__file__).resolve().parent / "data" / "offline_golden.json"

BENCHMARKS = {"WAM": wam, "random-case-1": lambda: random_case(1)}


def policy_digest(policy) -> str:
    """sha256 over the float bytes of everything the offline stage made."""
    h = hashlib.sha256()

    def put(values) -> None:
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())

    put([c.capacitance for c in policy.capacitors])
    for s in policy.samples:
        put(s.prev_solar)
        put(s.voltages)
        put([s.accumulated_dmr, s.cap_index, s.alpha])
        put(s.te)
    net = policy.dbn.network
    for w, b in zip(net.weights, net.biases):
        put(w)
        put(b)
    put(policy.dbn.finetune_losses)
    for errs in policy.dbn.pretrain_errors:
        put(errs)
    return h.hexdigest()


def golden_run(name: str) -> str:
    pipe = OfflinePipeline(
        BENCHMARKS[name](),
        hidden_sizes=(16, 8),
        pretrain_epochs=2,
        finetune_epochs=4,
    )
    return policy_digest(pipe.run(training_trace(2)))


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_offline_stage_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert golden_run(name) == golden[name]


if __name__ == "__main__":
    digests = {name: golden_run(name) for name in sorted(BENCHMARKS)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
