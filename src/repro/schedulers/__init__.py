"""Scheduling policies: baselines from the literature plus plan replay.

The paper's proposed scheduler lives in :mod:`repro.core.online`; this
package holds the interface, the comparison baselines and the policy
table (:data:`SCHEDULER_FACTORIES`) that maps a fleet policy name to a
scheduler for both engines.
"""

from typing import Callable, Dict

from .base import Scheduler, StaticLargestCapacitorMixin, nvp_filter
from .greedy import GreedyEDFScheduler, must_run_now, slack_slots
from .lsa import InterTaskScheduler, admit_by_energy
from .intratask import (
    IntraTaskScheduler,
    best_power_match,
    fine_grained_decision,
)
from .dvfs import DVFSLoadMatchingScheduler
from .plan import PlanScheduler, SchedulePlan
from .randomized import RandomScheduler

__all__ = [
    "SCHEDULER_FACTORIES",
    "make_scheduler",
    "Scheduler",
    "StaticLargestCapacitorMixin",
    "nvp_filter",
    "DVFSLoadMatchingScheduler",
    "GreedyEDFScheduler",
    "slack_slots",
    "must_run_now",
    "InterTaskScheduler",
    "admit_by_energy",
    "IntraTaskScheduler",
    "best_power_match",
    "fine_grained_decision",
    "PlanScheduler",
    "RandomScheduler",
    "SchedulePlan",
]


def _proposed(seed: int, trained) -> Scheduler:
    if trained is None:
        raise ValueError("policy 'proposed' needs its trained policy")
    return trained.make_scheduler()


#: Policy name -> ``factory(scheduler_seed, trained) -> Scheduler``;
#: ``trained`` is the offline stage's
#: :class:`~repro.core.offline.TrainedPolicy`, read by ``proposed`` only.
SCHEDULER_FACTORIES: Dict[str, Callable[[int, object], Scheduler]] = {
    "asap": lambda seed, trained: GreedyEDFScheduler(),
    "inter-task": lambda seed, trained: InterTaskScheduler(),
    "intra-task": lambda seed, trained: IntraTaskScheduler(),
    "dvfs": lambda seed, trained: DVFSLoadMatchingScheduler(),
    "random": lambda seed, trained: RandomScheduler(seed),
    "proposed": _proposed,
}


def make_scheduler(policy: str, seed: int = 0, trained=None) -> Scheduler:
    """A fresh scheduler for ``policy`` (see :data:`SCHEDULER_FACTORIES`)."""
    factory = SCHEDULER_FACTORIES.get(policy)
    if factory is None:
        raise ValueError(f"unknown policy {policy!r}")
    return factory(seed, trained)
