"""Deterministic chaos for fleet execution: kills, hangs, poison.

:mod:`repro.reliability.runtime` injects faults *inside* the physics
of one node; this module injects faults into the **orchestration
layer** around a fleet run, to exercise the supervision path of
:mod:`repro.reliability.supervisor` end to end:

``poison``
    The selected nodes raise :class:`ChaosError` while their batch
    case is built, on *every* attempt — the fleet must quarantine
    exactly these nodes and no others.
``hang``
    The selected nodes sleep ``hang_seconds`` while their case is
    built, on the **first attempt only** — long enough to trip a
    configured task timeout, after which the re-dispatched attempt
    completes normally.
``kill``
    Workers executing the selected shards call ``os._exit`` on the
    first attempt — a hard worker death the pool cannot catch — and
    the rebuilt pool's retry completes normally.

All three are materialised from a :class:`ChaosSpec` by seeded
sha256 draws (:meth:`ChaosSpec.plan`): the same spec over the same
fleet always poisons the same node ids and kills the same shards, so
a chaos run is as reproducible as a clean one.  First-attempt-only
kills and hangs make the *outcome* deterministic too — transient
faults always recover, poison always quarantines — which is what lets
CI assert an exact quarantine set and a bit-identical healthy-subset
fingerprint.

Kills and hangs require process isolation (``os._exit`` in-process
would take the parent down): the fleet runner forces pool mode
whenever a chaos plan is active.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Dict, FrozenSet, Sequence

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosSpec",
]


class ChaosError(RuntimeError):
    """Raised by a poisoned node — the injected 'engine bug'."""


def _draw(seed: int, salt: str, population: Sequence[int], k: int):
    """Pick ``k`` distinct members of ``population`` deterministically.

    Members are ranked by the sha256 of ``(seed, salt, member)`` —
    order-free, so the draw depends only on the seed and the
    population contents, never on iteration order.
    """
    k = min(k, len(population))
    if k <= 0:
        return frozenset()
    ranked = sorted(
        population,
        key=lambda m: hashlib.sha256(
            repr(("chaos", seed, salt, m)).encode()
        ).hexdigest(),
    )
    return frozenset(ranked[:k])


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """What to break, how much, under which seed.

    Parameters
    ----------
    seed:
        Seed of every selection draw.
    poison_nodes:
        Number of nodes whose simulation raises on every attempt.
    hang_nodes:
        Number of nodes that sleep ``hang_seconds`` on attempt 0.
    kill_shards:
        Number of shards whose first-attempt worker dies hard.
    hang_seconds:
        First-attempt sleep of a hung node (pick it above the task
        timeout to trip the straggler path).
    """

    seed: int = 0
    poison_nodes: int = 0
    hang_nodes: int = 0
    kill_shards: int = 0
    hang_seconds: float = 2.0

    def __post_init__(self) -> None:
        for field in ("poison_nodes", "hang_nodes", "kill_shards"):
            if getattr(self, field) < 0:
                raise ValueError(
                    f"{field} must be >= 0, got {getattr(self, field)}"
                )
        if self.hang_seconds < 0:
            raise ValueError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    @property
    def active(self) -> bool:
        return bool(
            self.poison_nodes or self.hang_nodes or self.kill_shards
        )

    def describe(self) -> Dict[str, object]:
        """Digest-stable description (mixed into shard cache keys so a
        chaos run never poisons the clean-run cache)."""
        return {
            "seed": self.seed,
            "poison_nodes": self.poison_nodes,
            "hang_nodes": self.hang_nodes,
            "kill_shards": self.kill_shards,
            "hang_seconds": self.hang_seconds,
        }

    def plan(
        self, node_ids: Sequence[int], n_shards: int
    ) -> "ChaosPlan":
        """Materialise the spec over a concrete fleet layout.

        Poison and hang draws are disjoint (a hung node that also
        raised would make the quarantine set timing-dependent).
        """
        poison = _draw(self.seed, "poison", node_ids, self.poison_nodes)
        hang_pool = [n for n in node_ids if n not in poison]
        hang = _draw(self.seed, "hang", hang_pool, self.hang_nodes)
        kills = _draw(
            self.seed, "kill", range(n_shards), self.kill_shards
        )
        return ChaosPlan(
            poison=poison,
            hang=hang,
            kill_shards=kills,
            hang_seconds=self.hang_seconds,
        )


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """A materialised :class:`ChaosSpec`: concrete ids, ready to fire.

    Picklable — the plan rides into pool workers with the shard
    payload.
    """

    poison: FrozenSet[int] = frozenset()
    hang: FrozenSet[int] = frozenset()
    kill_shards: FrozenSet[int] = frozenset()
    hang_seconds: float = 2.0

    def on_shard_start(self, shard_index: int, attempt: int) -> None:
        """Fire a worker kill, first attempt only.

        ``os._exit`` skips every handler and finaliser — exactly the
        failure mode ``BrokenProcessPool`` reports.  Never called
        in-process: the runner forces pool mode under chaos.
        """
        if attempt == 0 and shard_index in self.kill_shards:
            os._exit(1)

    def on_node_start(self, node_id: int, attempt: int) -> None:
        """Fire a poison raise (every attempt) or hang (attempt 0)."""
        if node_id in self.poison:
            raise ChaosError(
                f"chaos: node {node_id} is poisoned (attempt {attempt})"
            )
        if attempt == 0 and node_id in self.hang:
            time.sleep(self.hang_seconds)
