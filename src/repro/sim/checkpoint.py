"""Crash-safe checkpoint/resume for simulations.

A month-long chaos run that dies at day 29 should not restart from
zero — the meta-level mirror of the NVP backup/restore the node model
itself implements.  At any period boundary the engine can serialize
everything mutable about a run — capacitor voltages, the active
capacitor, NVP power states, the scheduler (with whatever it has
learned), the run's :class:`~repro.sim.recorder.PeriodTable` so far and
running aggregates — into a checkpoint file.  Resuming restores that state and continues the
period loop; the resumed run is **bit-identical** to an uninterrupted
one (guarded by test), because the engine itself is deterministic and
every piece of mutable state is captured exactly.

The immutable run configuration (timeline, task graph, solar trace,
scheduler type) is *not* stored; the caller reconstructs it and the
checkpoint carries a fingerprint so a mismatched resume fails loudly
with :class:`CheckpointError` instead of silently diverging.

Checkpoint files are written atomically (temp file + rename) so a
crash mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .recorder import ENERGY_TERMS

__all__ = [
    "CheckpointConfig",
    "CheckpointError",
    "SimulationInterrupted",
    "run_fingerprint",
    "result_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "CHECKPOINT_VERSION",
]

#: Bump when the payload layout changes; old files are rejected.
CHECKPOINT_VERSION = 2

_CHECKPOINT_GLOB = "period-*.ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, or does not match the run."""


class SimulationInterrupted(RuntimeError):
    """A run stopped early on purpose after writing a checkpoint.

    Raised by the engine when ``stop_after_periods`` is reached —
    the deterministic stand-in for a mid-run crash in tests and CI.
    ``checkpoint_path`` locates the checkpoint to resume from.
    """

    def __init__(self, checkpoint_path: Path, periods_done: int) -> None:
        super().__init__(
            f"simulation stopped after {periods_done} period(s); "
            f"resume from {checkpoint_path}"
        )
        self.checkpoint_path = Path(checkpoint_path)
        self.periods_done = periods_done


@dataclasses.dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often the engine checkpoints.

    Parameters
    ----------
    directory:
        Checkpoint files (``period-NNNNNN.ckpt``) go here; created on
        first write.
    every_periods:
        A checkpoint is written after every ``every_periods`` completed
        periods.
    keep:
        How many most-recent checkpoints to retain (older ones are
        deleted); ``0`` keeps everything.
    """

    directory: Union[str, Path]
    every_periods: int = 8
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every_periods < 1:
            raise ValueError(
                f"every_periods must be >= 1, got {self.every_periods}"
            )
        if self.keep < 0:
            raise ValueError(f"keep must be >= 0, got {self.keep}")

    @property
    def path(self) -> Path:
        return Path(self.directory)


# ----------------------------------------------------------------------
def run_fingerprint(timeline, graph, trace, scheduler_name: str) -> str:
    """Digest of the immutable run configuration.

    Two runs with equal fingerprints iterate the same periods over the
    same trace with the same task set and policy type — the
    precondition for resuming one from the other's checkpoint.
    """
    h = hashlib.sha256()
    h.update(
        repr(
            (
                timeline.num_days,
                timeline.periods_per_day,
                timeline.slots_per_period,
                timeline.slot_seconds,
            )
        ).encode()
    )
    for task in graph.tasks:
        h.update(
            repr(
                (
                    task.name,
                    task.execution_time,
                    task.deadline,
                    task.power,
                    task.nvp,
                )
            ).encode()
        )
    h.update(np.ascontiguousarray(trace.power).tobytes())
    h.update(scheduler_name.encode())
    return h.hexdigest()


def result_fingerprint(result, include_slots: bool = True) -> str:
    """Digest of everything a :class:`SimulationResult` records.

    Bit-identity oracle for resume-equivalence checks: two results
    with equal fingerprints have identical per-period DMRs, energy
    books and executed sets.  Each period hashes the ``repr`` of its
    :class:`~repro.sim.recorder.PeriodRecord` scalars, then its
    executed set and start voltages, read from the row's columns.
    ``include_slots=False`` digests the periods only, so a run captured
    with ``record_slots=True`` can be compared against a reference
    captured without it (the per-slot arrays are derived observations;
    period outcomes do not depend on them).
    """
    h = hashlib.sha256()
    table, row = result.table, result.row
    t_n, c_n = table.t_ns[row], table.c_ns[row]
    # Whole-row blocks; period ``p`` is the ``p``-th fixed-width chunk.
    executed = table.executed[row, :, :t_n].tobytes()
    voltages = table.start_voltages[row, :, :c_n].tobytes()
    c_w = table.start_voltages.itemsize * c_n
    columns = zip(
        table.miss_count[row].tolist(),
        *(table.energy[name][row].tolist() for name in ENERGY_TERMS),
        table.brownout_slots[row].tolist(),
        table.active_index[row].tolist(),
    )
    unflatten = result.timeline.unflatten_period
    for flat_p, (miss, *rest) in enumerate(columns):
        h.update(
            repr((*unflatten(flat_p), miss / t_n, miss, *rest)).encode()
        )
        h.update(executed[flat_p * t_n : (flat_p + 1) * t_n])
        h.update(voltages[flat_p * c_w : (flat_p + 1) * c_w])
    if include_slots and result.slots is not None:
        for name in (
            "solar_power",
            "load_power",
            "run_fraction",
            "active_voltage",
            "active_index",
        ):
            h.update(
                np.ascontiguousarray(getattr(result.slots, name)).tobytes()
            )
    return h.hexdigest()


# ----------------------------------------------------------------------
def checkpoint_path(directory: Union[str, Path], flat_period: int) -> Path:
    """Canonical file name of the checkpoint after ``flat_period``."""
    return Path(directory) / f"period-{flat_period:06d}.ckpt"


def save_checkpoint(path: Union[str, Path], payload: dict) -> Path:
    """Atomically write a checkpoint payload to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read a checkpoint payload; :class:`CheckpointError` on failure."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no checkpoint file at {path}")
    try:
        with path.open("rb") as fh:
            payload = pickle.load(fh)
    except (pickle.UnpicklingError, EOFError, OSError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise CheckpointError(f"{path} is not a simulation checkpoint")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {payload['version']}; this "
            f"build reads version {CHECKPOINT_VERSION}"
        )
    return payload


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """Most recent checkpoint file in ``directory``, or None."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob(_CHECKPOINT_GLOB))
    return candidates[-1] if candidates else None


def prune_checkpoints(
    directory: Union[str, Path],
    keep: int,
    protect: Optional[Path] = None,
) -> None:
    """Delete all but the ``keep`` most recent checkpoints.

    ``protect`` names a file that must survive regardless of its sort
    position — the checkpoint just written may carry a *lower* period
    number than stale files from an earlier, longer run in the same
    directory, and pruning must never delete it.
    """
    if keep <= 0:
        return
    directory = Path(directory)
    candidates = sorted(directory.glob(_CHECKPOINT_GLOB))
    for stale in candidates[:-keep]:
        if protect is not None and stale == Path(protect):
            continue
        try:
            stale.unlink()
        except OSError:
            pass
