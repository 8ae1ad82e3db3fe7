#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload this asserts that

1. the traced run prints every per-layer metric, and the untraced run
   every end-to-end metric, each with its unit;
2. the output checks ran — the pinned tiny-size reference among them —
   and passed;
3. a deliberately wrong pinned reference raises ``failed_frac``
   (``failed > 0``, ``ok_frac < 1``, ``correct`` false);
4. on a host with fewer cores than a workload's pool workers, the
   ``reliability.supervisor.*`` metrics are ``n/a`` (JSON ``null``).

It also checks that ``BENCHMARK.json`` declares exactly the workloads
and metrics the code reports, and that every workload with a
``reference`` size (the committed artefacts': ``repro experiment fig8``'s
WAM rows, the CLI's 1024-node fleet) matches its pinned digests for the
default and held-out seeds there (about two minutes).

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


class SelfTestError(AssertionError):
    """One self-test expectation did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _result(workload: str, trace: bool, references=None):
    out = io.StringIO()
    result = bench.run(workload, 0, 1.0, trace, size="tiny", references=references, out=out)
    text = out.getvalue()
    expect(json.loads(text.strip().splitlines()[-1]) == result, "last line is not the result")
    return result, text


def check_not_available(workload: str) -> None:
    """Fewer cores than pool workers: supervisor metrics are n/a, not numbers."""
    from layers import SUPERVISOR_METRICS

    real = bench.nproc
    bench.nproc = lambda: 1
    try:
        result, text = _result(workload, trace=True)
    finally:
        bench.nproc = real
    for name in SUPERVISOR_METRICS:
        expect(result["metrics"][name]["value"] is None, f"{workload}: {name} is a number on 1 cpu")
        expect(f"{name} " in text and "n/a" in text, f"{workload}: {name} not shown as n/a")


def check_workload(workload: str) -> None:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    references = bench.load_references()
    expect(references["tiny"].get(workload, {}).get("0"), f"{workload}: no pinned tiny reference")

    result, text = _result(workload, trace=True)
    expect(result["correct"] and result["failed"] == 0, text)
    expected = {name: unit for name, unit, _ in PER_LAYER}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == expected, f"{workload}: per-layer metrics {sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        expect(name in text and unit in text, f"{workload}: {name} not printed")
    expect("entry points missing" not in text, text)

    result, text = _result(workload, trace=False)
    expect(result["correct"] and result["failed"] == 0, text)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == bench.END_TO_END, f"{workload}: end-to-end metrics {sorted(got)}")
    for name in list(bench.END_TO_END) + ["failed_frac"]:
        expect(f"  {name} " in text, f"{workload}: {name} not printed")
    expect("check " not in text and "checks: " in text, text)
    ran = text.split("checks: ", 1)[1].splitlines()[0]
    for name in ("pinned_reference", "deterministic", "oracle."):
        expect(name in ran, f"{workload}: check {name} did not run: {ran}")

    if WORKLOADS[workload].workers > 1:
        check_not_available(workload)

    wrong = {"tiny": {workload: {"0": "0" * 64}}}
    result, text = _result(workload, trace=False, references=wrong)
    expect(not result["correct"], text)
    expect(result["failed"] > 0, text)
    expect(result["metrics"]["ok_frac"]["value"] < 1.0, text)
    expect("check pinned_reference: FAILED" in text, text)


def check_reference_size(workload: str) -> None:
    """At the committed artefacts' size the workload gives their digests."""
    pinned = bench.load_references()["reference"][workload]
    for seed in sorted(pinned, key=int):
        out = io.StringIO()
        result = bench.run(workload, int(seed), 1.0, False, size="reference", out=out)
        text = out.getvalue()
        expect(result["correct"] and result["failed"] == 0, text)
        expect("pinned_reference" in text.split("checks: ", 1)[1], f"seed {seed}: no pin checked")


def check_declaration() -> None:
    """``BENCHMARK.json`` declares exactly what the code reports."""
    from layers import PER_LAYER
    from workloads import WORKLOADS

    with open(bench.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    expect(
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from perfbench/workloads.py",
    )
    expect(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END,
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per_layer differs from layers.PER_LAYER",
    )


def main() -> int:
    bench.import_program()
    from workloads import WORKLOADS

    failures = 0
    try:
        check_declaration()
    except SelfTestError as exc:
        failures += 1
        print(f"FAIL BENCHMARK.json: {exc}")
    checks = [(workload, functools.partial(check_workload, workload)) for workload in WORKLOADS]
    checks += [
        (f"{workload} at the reference size", functools.partial(check_reference_size, workload))
        for workload in bench.load_references()["reference"]
    ]
    for label, check in checks:
        try:
            check()
        except SelfTestError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
