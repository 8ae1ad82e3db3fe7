#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-batch-256 --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and
reports the per-layer table (see ``perfbench/NOTES.md``).  Times are
in nominal-host seconds: each is scaled by a fixed probe run just
before and just after it (see :class:`HostClock`).  Human-
readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes lives under ``.perfbench-work/`` in the
repository root and is removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from layers import (  # noqa: E402
    PER_LAYER,
    SUPERVISOR_METRICS,
    UNATTRIBUTED_LIMIT,
    layer_metrics,
)

#: End-to-end metrics: name -> unit.  ``ok_frac`` is ``1 - failed_frac``.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_slots_per_s": "node-slots/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Host seconds :func:`host_probe_s` takes on the nominal host.
PROBE_NOMINAL_S = 0.25

#: The modules a user of either entry point imports.
IMPORT_PROBE = "import repro.experiments.fig8_daily, repro.fleet"

#: Environment knobs of the program that would change what is measured.
PROGRAM_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_WORKERS",
    "REPRO_MAX_RETRIES",
    "REPRO_TASK_TIMEOUT",
)


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API off Linux
        return os.cpu_count() or 1


def host_record() -> Dict[str, object]:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def probe_import_s() -> float:
    """Host time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: importing the program failed:\n{done.stderr.decode()}")
    return seconds


def host_probe_s() -> float:
    """Host seconds of a fixed piece of work that is not the program's.

    A Python loop of integer arithmetic and dict stores, then a chain of
    small numpy operations, five times over: the two kinds of work in
    the program's hot paths, about 0.25 s in all.
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(5):
        acc, seen = 0, {}
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
            seen[i & 1023] = acc
        v = np.linspace(0.0, 1.0, 256)
        for _ in range(4000):
            v = np.sqrt(v * 0.5 + 0.25)
    return time.perf_counter() - start


def settle(timeout: float = 10.0) -> None:
    """Wait until the child processes of the last block have exited.

    The program's supervised pool terminates its workers when a map
    ends but does not wait for them, so they are still exiting when the
    call returns; a probe or call started then would time their exit.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


class HostClock:
    """Converts host seconds of timed blocks to nominal-host seconds.

    The shared host's speed drifts by tens of percent over minutes, and
    the program's calls slow down with it.  A probe runs before the
    first block and after every block; a block's host time is
    multiplied by ``PROBE_NOMINAL_S`` over the mean of the probes on
    either side of it, which cancels the drift.
    """

    def __init__(self) -> None:
        self.probes = [host_probe_s()]

    def scale(self, seconds: float) -> float:
        """Nominal-host seconds of the block that just ended."""
        settle()
        self.probes.append(host_probe_s())
        return seconds * PROBE_NOMINAL_S / statistics.fmean(self.probes[-2:])


def _pss_kb(pid: int) -> int:
    """Proportional set size of one process; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    """Live processes below ``pid`` (pool workers and their children)."""
    parent_of: Dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # The command name may hold spaces; the parent pid follows it.
        parent_of[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parent_of.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


class TreeMemory:
    """Peak memory of this process tree while the block runs.

    A thread sums the Pss (proportional set size) of this process and
    every live descendant every ``interval`` seconds and keeps the
    largest sum.  Pss shares each copy-on-write page among the
    processes that map it, so a forked pool worker adds only the pages
    it owns, and the sum is the tree's real footprint.
    """

    def __init__(self, interval: float = 0.1) -> None:
        if not os.path.exists("/proc/self/smaps_rollup"):
            raise SystemExit("error: peak memory needs /proc/<pid>/smaps_rollup (Linux)")
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_loop, daemon=True)

    def sample(self) -> None:
        pid = os.getpid()
        total = sum(_pss_kb(p) for p in [pid] + _descendants(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "TreeMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


@contextlib.contextmanager
def program_env(workdir: Path) -> Iterator[None]:
    """Clear the program's knobs for the run; restore them afterwards."""
    saved = {k: os.environ.pop(k) for k in PROGRAM_ENV if k in os.environ}
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        yield
    finally:
        for key in PROGRAM_ENV:
            os.environ.pop(key, None)
        os.environ.update(saved)


def load_references() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(BENCH_DIR / "references.json") as fh:
        return json.load(fh)["references"]


@dataclasses.dataclass
class Calls:
    """What the timed calls of one run did."""

    walls: Dict[bool, List[float]]  # traced? -> host seconds per call
    scaled: Dict[bool, List[float]]  # traced? -> nominal-host seconds per call
    rates: List[float]  # simulated node-slots per nominal-host second, untraced calls
    checks: List[tuple]  # (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    last: Optional[object] = None  # the last call's Output
    last_passed: bool = False  # whether that call passed its checks
    traced: Optional[tuple] = None  # (Output, wall, scaled wall, span records) of a traced call
    peak_mb: float = 0.0  # peak memory of the process tree in an untraced call

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def call_plan(seconds: float, trace: bool) -> Iterator[bool]:
    """Whether each next call is traced, for about ``seconds`` of calls.

    Untraced calls only, or pairs of one untraced and one traced call
    in alternating order.  Another call (or pair) starts only while the
    time spent so far plus one more of the same length fits in
    ``seconds``; the first always runs.
    """
    orders = ((False, True), (True, False)) if trace else ((False,),)
    start = time.perf_counter()
    for k in itertools.count():
        yield from orders[k % len(orders)]
        spent = time.perf_counter() - start
        if spent * (k + 2) / (k + 1) > seconds:
            return


def timed_call(wl, workload: str, seed: int, traced: bool):
    """One end-to-end call: ``(output, wall seconds, span records, peak MB)``.

    The peak memory is sampled during untraced calls only (0 otherwise).
    """
    from layers import Instrumented, RecordSink

    from repro.obs import Observer
    from repro.obs.trace import activate

    if not traced:
        with TreeMemory() as memory:
            start = time.perf_counter()
            output = wl.call()
            wall = time.perf_counter() - start
        return output, wall, [], memory.peak_mb
    sink = RecordSink()
    observer = Observer(sinks=[sink])
    tracer = observer.start_trace("perfbench", workload, seed)
    with Instrumented() as instrumented, activate(tracer):
        start = time.perf_counter()
        with tracer.span("perfbench", key=workload):
            output = wl.call(observer)
        wall = time.perf_counter() - start
    output.extra["not_wrapped"] = instrumented.missing
    return output, wall, sink.records, 0.0


def run_calls(
    wl, workload: str, seed: int, plan: Iterator[bool], pinned, workdir: Path, clock: HostClock
) -> Calls:
    """Make the planned calls and check each output."""
    calls = Calls(walls={False: [], True: []}, scaled={False: [], True: []}, rates=[], checks=[])
    first_digest = None
    for i, traced in enumerate(plan):
        wl.reset(workdir / f"call{i}")
        calls.attempted += wl.units
        try:
            output, wall, records, peak_mb = timed_call(wl, workload, seed, traced)
        except Exception as exc:  # a failing call is a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            calls.failed += wl.units
            calls.checks.append((f"call[{i}]", False, f"{type(exc).__name__}: {exc}"))
            clock.scale(0.0)
            continue
        scaled = clock.scale(wall)
        first_digest = first_digest or output.digest
        checks = wl.check(output) + [
            ("deterministic", output.digest == first_digest, output.digest[:12]),
        ]
        if pinned is not None:
            checks.append(
                (
                    "pinned_reference",
                    output.digest.startswith(pinned),
                    f"{output.digest[:12]} vs pinned {pinned[:12]}",
                )
            )
        calls.checks.extend(checks)
        passed = all(ok for _, ok, _ in checks)
        calls.failed += output.failed_units if passed else wl.units
        calls.walls[traced].append(wall)
        calls.scaled[traced].append(scaled)
        if traced:
            calls.traced = (output, wall, scaled, records)
        else:
            calls.rates.append(output.slots / scaled)
            calls.peak_mb = max(calls.peak_mb, peak_mb)
        calls.last, calls.last_passed = output, passed
    return calls


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    references: Optional[Dict] = None,
    out: TextIO = sys.stdout,
) -> Dict[str, object]:
    """Run one workload; print the report; return the result object."""
    from workloads import WORKLOADS

    refs = (references if references is not None else load_references()).get(size, {})
    pinned = refs.get(workload, {}).get(str(seed))
    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with program_env(workdir):
            if trace:
                # One tiny call first: lazy imports and first-touch costs
                # then land on neither side of the overhead comparison.
                warm = WORKLOADS[workload](seed, "tiny")
                warm.prepare(workdir / "warmup")
                warm.reset(workdir / "warmup")
                warm.call()
            wl = WORKLOADS[workload](seed, size)
            setups, clock = [], HostClock()
            for i in range(SETUP_REPEATS):
                import_s = probe_import_s()
                start = time.perf_counter()
                wl.prepare(workdir / f"setup{i}")
                setups.append(clock.scale(import_s + time.perf_counter() - start))
            plan = call_plan(seconds, trace)
            calls = run_calls(wl, workload, seed, plan, pinned, workdir, clock)
            if calls.last is not None:
                oracle = wl.oracle(calls.last)
                calls.checks.extend(oracle)
                if calls.last_passed and not all(ok for _, ok, _ in oracle):
                    calls.failed += wl.units - calls.last.failed_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench-work").rmdir()

    host = host_record()
    print(
        f"host: nproc={host['nproc']} python={host['python']} "
        f"numpy={host['numpy']} platform={host['platform']}",
        file=out,
    )
    print(
        f"workload: {workload} seed={seed} size={size}, pinned reference: "
        f"{pinned[:12] if pinned else 'none for this seed'}",
        file=out,
    )
    if calls.last is not None:
        print(f"output digest: {calls.last.digest}", file=out)
    probes = " ".join(f"{p:.3f}" for p in clock.probes)
    print(f"host probes (nominal {PROBE_NOMINAL_S} s): {probes}", file=out)
    for traced, label in ((False, "untraced"), (True, "traced")):
        walls = " ".join(f"{w:.3f}" for w in calls.walls[traced])
        scaled = " ".join(f"{w:.3f}" for w in calls.scaled[traced])
        print(f"{label} calls: {len(calls.walls[traced])}, host s {walls}; nominal s {scaled}", file=out)
    print(f"setup_s per set-up (nominal s): {' '.join(f'{s:.3f}' for s in setups)}", file=out)
    for name, ok, detail in calls.checks:
        if not ok:
            print(f"check {name}: FAILED {detail}", file=out)
    names = ", ".join(dict.fromkeys(name for name, _, _ in calls.checks))
    passed = sum(ok for _, ok, _ in calls.checks)
    print(f"checks: {passed}/{len(calls.checks)} passed ({names})", file=out)
    if not calls.walls[False] or (trace and calls.traced is None):
        raise SystemExit("error: no call of the workload succeeded")

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(calls.scaled[False]),
        "sim_slots_per_s": statistics.median(calls.rates),
        "peak_rss_mb": calls.peak_mb,
        "ok_frac": 1.0 - calls.failed_frac,
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<20} {e2e[name]:>14.6g} {unit}", file=out)
    print(f"  {'failed_frac':<20} {calls.failed_frac:>14.6g} ratio", file=out)
    if trace:
        values = per_layer_values(calls, wl.workers, host["nproc"], clock, out)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": calls.failed == 0 and passed == len(calls.checks),
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return result


def per_layer_values(
    calls: Calls, workers: int, cpus: int, clock: HostClock, out: TextIO
) -> Dict[str, Optional[float]]:
    """The per-layer table of the traced call; prints it.

    Layer seconds are scaled to the nominal host by the traced call's
    own factor; ``host.probe_s`` and ``host.wall_s`` are host seconds.
    """
    output, wall, scaled, records = calls.traced
    values: Dict[str, Optional[float]] = dict(
        layer_metrics(
            records,
            wall_s=wall,
            workers=workers,
            n_nodes=output.extra.get("n_nodes", 0),
            supervisor=output.extra.get("supervisor"),
            failed_nodes=output.extra.get("failed_nodes", 0),
        )
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in values.items():
        if units[name] == "s":
            values[name] = value * scaled / wall
    values["failed_frac"] = calls.failed_frac
    values["obs.trace.overhead_frac"] = (
        statistics.median(calls.scaled[True]) / statistics.median(calls.scaled[False]) - 1.0
    )
    values["host.probe_s"] = statistics.median(clock.probes)
    values["host.wall_s"] = statistics.median(calls.walls[False])
    if cpus < workers:
        for name in SUPERVISOR_METRICS:
            values[name] = None
    for name, unit, _ in PER_LAYER:
        shown = "n/a" if values[name] is None else f"{values[name]:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}", file=out)
    if cpus < workers:
        print(
            f"note: reliability.supervisor.* are n/a: host has {cpus} cpu(s) "
            f"for {workers} pool workers",
            file=out,
        )
    if output.extra["not_wrapped"]:
        print(f"note: entry points missing, not traced: {', '.join(output.extra['not_wrapped'])}", file=out)
    unattributed = values["obs.trace.unattributed_frac"]
    if unattributed > UNATTRIBUTED_LIMIT:
        print(
            f"warning: unattributed time {unattributed:.1%} exceeds {UNATTRIBUTED_LIMIT:.0%}",
            file=out,
        )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its scratch files and stops its pool.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
