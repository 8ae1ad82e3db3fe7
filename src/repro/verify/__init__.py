"""Conformance subsystem: invariants, differential oracles, relations.

Three independent lines of defence against a silently wrong engine:

* :mod:`repro.verify.invariants` — what physics guarantees for *any*
  run (energy conservation, voltage bounds, NVP charge accounting,
  DMR bookkeeping, brownout discipline, slot legality);
* :mod:`repro.verify.oracles` — two implementations, one answer
  (scalar vs vectorized bank, DP plan vs brute force,
  checkpoint-resume vs straight-through, batched vs per-node engine,
  committed reference fingerprints);
* :mod:`repro.verify.metamorphic` — how outputs must move when inputs
  move (more sun never hurts, more capacity never hurts, permuting
  equal-priority tasks changes nothing).

:mod:`repro.verify.strategies` is the shared generator library the
property-based tests draw from, and :func:`run_verification` is the
``repro verify`` entry point (levels ``smoke`` / ``quick`` / ``deep``).
"""

from .invariants import (
    INVARIANT_CHECKS,
    RunContext,
    verify_run,
)
from .metamorphic import METAMORPHIC_RELATIONS, verify_metamorphic
from .oracles import (
    BRUTEFORCE_INSTANCES,
    ScalarReferenceBank,
    brute_force_best_dmr,
    capture_reference_fingerprints,
    default_fingerprint_path,
    load_reference_fingerprints,
    oracle_checkpoint_resume,
    oracle_plan_vs_bruteforce,
    oracle_reference_fingerprints,
    oracle_scalar_vs_vectorized,
    reference_run_specs,
    scalar_reference_node,
    write_reference_fingerprints,
)
from .report import CheckOutcome, VerificationReport, Violation
from .runner import LEVELS, run_verification, verified_simulation

__all__ = [
    "Violation",
    "CheckOutcome",
    "VerificationReport",
    "RunContext",
    "INVARIANT_CHECKS",
    "verify_run",
    "ScalarReferenceBank",
    "scalar_reference_node",
    "oracle_scalar_vs_vectorized",
    "brute_force_best_dmr",
    "oracle_plan_vs_bruteforce",
    "oracle_checkpoint_resume",
    "oracle_reference_fingerprints",
    "BRUTEFORCE_INSTANCES",
    "reference_run_specs",
    "capture_reference_fingerprints",
    "write_reference_fingerprints",
    "load_reference_fingerprints",
    "default_fingerprint_path",
    "METAMORPHIC_RELATIONS",
    "verify_metamorphic",
    "LEVELS",
    "run_verification",
    "verified_simulation",
]
