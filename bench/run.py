"""Benchmark of the torusgit engine: one workload per process, no extra threads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chamber|hm-tower|cli-point \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the workload runs whole cycles of fresh seeded jobs until its jobs have
taken ``--seconds`` seconds and the metrics are the end-to-end ones.
With ``--trace 1`` exactly one cycle runs under the span tracer of
``spans.py`` and the metrics are the per-layer ones; that amount of work
does not depend on ``--seconds``, so its counts repeat exactly.  Every job
is checked against the oracles of ``oracles.py`` after the timed region.
Progress notes go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3  # set-up is repeated and its median reported
INTERPRETER_REPS = 5

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_cpu_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    return "ms" if name.endswith("ms") else ("bytes" if name.endswith("bytes") else "count")


class Workload:
    """How one workload draws, runs and checks its jobs."""

    def __init__(self, name: str, root: Path) -> None:
        import torusgit.cli
        import workloads as wl

        self.name = name
        self.root = root
        self.cycles: Callable[[int], Iterator[list]] = {
            "chamber": wl.chamber_cycles, "hm-tower": wl.hm_cycles, "cli-point": wl.cli_cycles,
        }[name]
        self.is_cli = name == "cli-point"
        self.wl = wl
        self.cli = torusgit.cli
        self._run = wl.run_chamber if name == "chamber" else wl.run_hm
        self._check = wl.check_chamber if name == "chamber" else wl.check_hm

    def run(self, inp: Any, traced: bool = False):
        if self.is_cli:
            if traced:
                return self.wl.run_cli_inprocess(inp, self.cli)
            return self.wl.run_cli_child(inp, str(self.root))
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, failed = self._run(inp), ""
        except Exception as exc:  # the job failed; count it and carry on
            out, failed = None, f"{type(exc).__name__}: {exc}"
        return self.wl.Outcome(out, failed, time.perf_counter() - w0, time.process_time() - c0)

    def check(self, inp: Any, out: Any) -> str:
        return inp.check(out) if self.is_cli else self._check(inp, out)

    def warmup(self) -> float:
        """One untimed warm-up job; returns its wall time."""
        return self.run(self.wl.warmup_input(self.name)).wall_s


class Tally:
    """Oracle verdicts over finished jobs, taken outside the timed region."""

    def __init__(self, work: Workload) -> None:
        self.work = work
        self.failed = 0
        self.incorrect = 0
        self.notes: list[str] = []

    def add(self, inp: Any, outcome) -> None:
        if outcome.failed:
            self.failed += 1
            self.notes.append(f"failed: {outcome.failed}")
            return
        fault = self.work.check(inp, outcome.output)
        if fault:
            self.incorrect += 1
            self.notes.append(f"incorrect: {fault}")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def measure(work: Workload, seed: int, seconds: int, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        setups.append(work.warmup())
    setup_s = statistics.median(setups) + (0.0 if work.is_cli else import_s)

    cycles = work.cycles(seed)
    tally = Tally(work)
    walls: list[float] = []
    cpus: list[float] = []
    busy = 0.0
    first_cycle_s = None
    while busy < seconds:  # whole cycles only, so every run attempts the same mix
        for inp in next(cycles):
            outcome = work.run(inp)
            busy += outcome.wall_s
            walls.append(outcome.wall_s * 1000.0)
            cpus.append(outcome.cpu_s * 1000.0)
            tally.add(inp, outcome)  # checked at once, so outputs are not kept
        if first_cycle_s is None:
            first_cycle_s = busy
    metrics = {
        "jobs_per_s": len(walls) / busy,
        "job_p50_ms": statistics.median(walls),
        "job_cpu_p50_ms": statistics.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(children=work.is_cli),
    }
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
    _note(work.name, seed, f"{len(walls)} jobs in {busy:.3f} s, first cycle {first_cycle_s:.3f} s, "
                           f"p50 {metrics['job_p50_ms']:.1f} ms, p90 {p90:.1f} ms, "
                           f"setup reps {[round(s, 4) for s in setups]}", tally.notes)
    return _result(tally, len(walls), metrics, END_TO_END_UNITS)


def traced(work: Workload, seed: int) -> dict:
    """One cycle under the tracer.  Runs of chamber and hm-tower then replay
    one cli-point cycle in-process, and every run times two fresh
    interpreters, so that each layer is measured on every workload; the
    replay's calls count neither as attempted nor as failed."""
    from spans import Tracer

    work.warmup()
    cycle = next(work.cycles(seed))
    probe = [] if work.is_cli else next(work.wl.cli_cycles(seed))
    tracer = Tracer()
    tracer.install()
    try:
        done = [(inp, work.run(inp, traced=True)) for inp in cycle]
        replayed = [(call, work.wl.run_cli_inprocess(call, work.cli)) for call in probe]
    finally:
        tracer.uninstall()
    tally = Tally(work)
    for inp, outcome in done:
        tally.add(inp, outcome)
    for call, outcome in replayed:
        fault = "" if outcome.failed else call.check(outcome.output)
        if fault:
            tally.incorrect += 1
            tally.notes.append(f"incorrect: {fault}")
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = _interpreter_ms(work.root, "import torusgit.cli")
    metrics["cli.interpreter_ms"] = _interpreter_ms(work.root, "pass")
    busy = sum(o.wall_s for _, o in done)
    _note(work.name, seed, f"traced cycle: {len(done)} jobs in {busy:.3f} s, "
                           f"{len(replayed)} cli calls replayed, {len(tracer.group)} spans",
          tally.notes)
    units = {name: _per_layer_unit(name) for name in metrics}
    return _result(tally, len(done), metrics, units)


def _interpreter_ms(root: Path, code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(INTERPRETER_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def _note(name: str, seed: int, text: str, notes: list[str]) -> None:
    print(f"[{name} seed={seed}] {text}", file=sys.stderr)
    for n in sorted(set(notes)):
        print(f"[{name} seed={seed}]   {n}", file=sys.stderr)


def _result(tally: Tally, attempted: int, metrics: dict, units: dict) -> dict:
    return {"correct": tally.incorrect == 0, "attempted": attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chamber", "hm-tower", "cli-point"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "torusgit" / "__init__.py").is_file():
        print("bench: src/torusgit not found; run from the root of a torusgit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    t0 = time.perf_counter()
    import torusgit  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    work = Workload(args.workload, root)
    if args.trace:
        result = traced(work, args.seed)
    else:
        result = measure(work, args.seed, args.seconds, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
