"""Shared workload/weather/fault generators for tests and verification.

This module is the single source of the tiny timelines, solar traces,
workloads and fleet variations that tests, ``repro verify`` and the
fleet spec share.  The deterministic helpers at the top need only
numpy; the ``hypothesis`` strategy below imports hypothesis lazily so
the production package never hard-depends on the test toolchain.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..solar.days import FOUR_DAYS, archetype_trace
from ..solar.trace import SolarTrace
from ..tasks.benchmarks import random_benchmark
from ..tasks.graph import Task, TaskGraph
from ..timeline import Timeline

__all__ = [
    "tiny_timeline",
    "tiny_env",
    "solar_matrix",
    "random_trace",
    "constant_trace",
    "identical_task_graph",
    "node_rng",
    "build_graph",
    "fleet_variation",
    "fleet_variations",
    "FLEET_TASK_MIX",
    "FLEET_BANK_CHOICES",
    "engine_setups",
]


# ----------------------------------------------------------------------
# Deterministic generators
# ----------------------------------------------------------------------
def tiny_timeline(
    periods_per_day: int = 6,
    num_days: int = 1,
    slots_per_period: int = 20,
    slot_seconds: float = 30.0,
) -> Timeline:
    """A short timeline for fast soak/roundtrip tests."""
    return Timeline(
        num_days=num_days,
        periods_per_day=periods_per_day,
        slots_per_period=slots_per_period,
        slot_seconds=slot_seconds,
    )


def tiny_env(
    seed: int = 3,
    periods_per_day: int = 6,
    graph: Optional[TaskGraph] = None,
    archetype_index: int = 0,
) -> Tuple[TaskGraph, Timeline, SolarTrace]:
    """``(graph, timeline, trace)`` for a one-day micro run.

    The default reproduces the fault-suite fixture: the ECG benchmark
    over one canonical sunny-day archetype.
    """
    from ..tasks.benchmarks import ecg

    graph = graph if graph is not None else ecg()
    tl = tiny_timeline(periods_per_day=periods_per_day)
    trace = archetype_trace(tl, [FOUR_DAYS[archetype_index]], seed=seed)
    return graph, tl, trace


def solar_matrix(
    tl: Timeline, pattern: str = "diurnal", scale: float = 0.12
) -> np.ndarray:
    """Per-period solar matrix for the long-term DP (``diurnal`` or
    ``flat``)."""
    periods = tl.total_periods
    if pattern == "diurnal":
        shape = np.maximum(
            np.sin(
                np.linspace(
                    0, 2 * np.pi * tl.num_days, periods, endpoint=False
                )
                - np.pi / 2
            ),
            0.0,
        )
    else:
        shape = np.full(periods, 0.5)
    return np.repeat((scale * shape)[:, None], tl.slots_per_period, axis=1)


def random_trace(tl: Timeline, seed: int) -> SolarTrace:
    """Uniform noise scaled by a randomly drawn overall brightness."""
    rng = np.random.default_rng(seed)
    power = rng.random(
        (tl.num_days, tl.periods_per_day, tl.slots_per_period)
    ) * rng.choice([0.0, 0.05, 0.15])
    return SolarTrace(tl, power)


def constant_trace(tl: Timeline, power: float) -> SolarTrace:
    """Flat irradiance everywhere (metamorphic baselines)."""
    return SolarTrace(
        tl,
        np.full(
            (tl.num_days, tl.periods_per_day, tl.slots_per_period), power
        ),
    )


def identical_task_graph(
    num_tasks: int = 3,
    execution_time: float = 120.0,
    deadline: float = 360.0,
    power: float = 0.03,
) -> TaskGraph:
    """``num_tasks`` identical, independent tasks on distinct NVPs —
    the equal-priority workload of the permutation relation."""
    return TaskGraph(
        [
            Task(f"t{i}", execution_time, deadline, power, nvp=i)
            for i in range(num_tasks)
        ]
    )


# ----------------------------------------------------------------------
# Fleet heterogeneity (n-node variation)
# ----------------------------------------------------------------------
#: Workload kinds a fleet node may draw; named entries resolve to the
#: paper benchmarks, ``random`` to a seeded :func:`random_benchmark`.
FLEET_TASK_MIX: Tuple[str, ...] = ("wam", "ecg", "shm", "random")

#: Capacitances a heterogeneous bank draws from.
FLEET_BANK_CHOICES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.7, 10.0, 47.0)


def node_rng(seed: int, node_index: int) -> np.random.Generator:
    """Independent per-node RNG derived only from ``(seed, node_index)``.

    This is the determinism anchor of every n-node generator: a node's
    variation never depends on worker identity, shard boundaries or
    draw order across nodes, so fleet results are bit-identical for any
    worker count or shard size.
    """
    return np.random.default_rng([int(seed), int(node_index)])


def build_graph(kind: str) -> TaskGraph:
    """Resolve a task-mix kind to a concrete graph.

    ``kind`` is a :data:`FLEET_TASK_MIX` name or ``"random:<seed>"``
    (the reified form of a ``random`` draw), so a node's workload can
    be reconstructed from a short picklable string in any process.
    """
    from ..tasks.benchmarks import ecg, shm, wam

    named = {"wam": wam, "ecg": ecg, "shm": shm}
    if kind in named:
        return named[kind]()
    if kind.startswith("random:"):
        return random_benchmark(int(kind.split(":", 1)[1]))
    raise ValueError(
        f"unknown task kind {kind!r}; expected one of {sorted(named)} "
        f"or 'random:<seed>'"
    )


def fleet_variation(
    seed: int,
    node_index: int,
    task_mix: Sequence[str] = FLEET_TASK_MIX,
    policies: Sequence[str] = ("asap",),
    bank_choices: Sequence[float] = FLEET_BANK_CHOICES,
    bank_size: Tuple[int, int] = (2, 4),
    panel_scale: Tuple[float, float] = (0.6, 1.4),
    cloud_jitter: Tuple[float, float] = (0.0, 0.25),
) -> dict:
    """Seeded per-node variation for heterogeneous multi-node setups.

    One deterministic dict per ``(seed, node_index)``: workload kind,
    scheduler/policy assignment, capacitor-bank sizes, panel scale and
    cloud-jitter parameters.  The draw order is part of the contract —
    changing it changes every downstream fleet fingerprint.
    """
    rng = node_rng(seed, node_index)
    kind = str(task_mix[int(rng.integers(len(task_mix)))])
    if kind == "random":
        kind = f"random:{int(rng.integers(100_000))}"
    n_caps = int(rng.integers(bank_size[0], bank_size[1] + 1))
    farads = tuple(
        float(bank_choices[int(k)])
        for k in rng.integers(len(bank_choices), size=n_caps)
    )
    return {
        "node_id": int(node_index),
        "graph_kind": kind,
        "policy": str(policies[int(rng.integers(len(policies)))]),
        "bank_farads": farads,
        "panel_scale": float(rng.uniform(*panel_scale)),
        "jitter_sigma": float(rng.uniform(*cloud_jitter)),
        "jitter_seed": int(rng.integers(2**31)),
        "scheduler_seed": int(rng.integers(2**31)),
    }


def fleet_variations(seed: int, n_nodes: int, **kwargs) -> list:
    """``n_nodes`` independent :func:`fleet_variation` dicts."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return [fleet_variation(seed, i, **kwargs) for i in range(n_nodes)]


# ----------------------------------------------------------------------
# hypothesis strategies (lazy import)
# ----------------------------------------------------------------------
def _st():
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - test-only dep
        raise ImportError(
            "hypothesis is required for repro.verify.strategies' "
            "strategy builder (pip extra: repro[test])"
        ) from exc
    return st


def engine_setups(max_seed: int = 300):
    """``(graph, timeline, trace, scheduler)`` tuples: random workload,
    random weather and a legal-but-arbitrary random scheduler."""
    st = _st()
    from ..schedulers import RandomScheduler

    @st.composite
    def _engine_setups(draw):
        graph_seed = draw(st.integers(0, max_seed))
        trace_seed = draw(st.integers(0, max_seed))
        sched_seed = draw(st.integers(0, max_seed))
        periods = draw(st.integers(1, 3))
        graph = random_benchmark(graph_seed)
        tl = Timeline(1, periods, 20, 30.0)
        return (
            graph,
            tl,
            random_trace(tl, trace_seed),
            RandomScheduler(sched_seed),
        )

    return _engine_setups()
