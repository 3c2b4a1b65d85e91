#!/usr/bin/env python3
"""flatcert benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload flatness-gb --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

The load is a closed loop with one client: items (CLI calls through
`flatcert.cli.main`) run one after another in this process until
`--seconds` is spent, and every report is checked against its known
answer.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
same items once untraced and twice traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

from hostspeed import SpeedSampler

# the host-speed sampler runs from here on in an untraced run, so that the
# imports below, which are part of the measured set-up, are scaled as well
SAMPLER = SpeedSampler()
SAMPLER.start()
_START = SAMPLER.mark()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("flatness-gb", "xi-curves", "rank-referee")
SETUP_REPEATS = 5  # set-up runs this often; setup_s reports the median
MIN_ITEMS = 3      # a timed loop runs at least this many items
E2E_UNITS = {"setup_s": "s", "verdict_s.p50": "s", "verdicts_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name.endswith(("ratio", "efficiency")):
        return "ratio"
    return "count"


class Runner:
    """Calls items through the CLI and checks every report it writes."""

    def __init__(self, cli_main, workdir: Path):
        from workloads import check_report
        self._main = cli_main
        self._check = check_report
        self._out = workdir / "report.json"
        self.digests: dict[str, str] = {}    # item key -> sha256 of its report
        self.failures: list[str] = []
        self.samples: dict[str, tuple] = {}  # item kind -> (item, code, report)

    def call(self, item, tracer=None) -> tuple[float, float, float]:
        """Run one item, check its report, and return its wall time, its
        time at nominal host speed, and its process CPU time."""
        self._out.unlink(missing_ok=True)
        argv = [*item.argv, "--output", str(self._out)]
        c0 = time.process_time()
        t0 = SAMPLER.mark()
        try:
            if tracer is None:
                code = self._main(argv)
            else:
                with tracer.item(item.key):
                    code = self._main(argv)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
            code = None
        else:
            reason = None
        wall, ref = SAMPLER.since(t0)
        cpu = time.process_time() - c0
        if reason is None:
            reason = self._verify(item, code)
        if reason is not None:
            self.failures.append(f"{item.key} ({' '.join(item.argv)}): {reason}")
        return wall, ref, cpu

    def _verify(self, item, code: int) -> str | None:
        try:
            data = self._out.read_bytes()
            report = json.loads(data)
        except (OSError, ValueError) as exc:
            return f"exit {code} and no readable report ({exc})"
        reason = self._check(item, code, report)
        digest = hashlib.sha256(data).hexdigest()
        if reason is None and self.digests.setdefault(item.key, digest) != digest:
            reason = "report changed on repeat"
        if reason is None:
            self.samples.setdefault(item.kind, (item, code, report))
        return reason


def timed_loop(runner: Runner, items: list, seconds: float, block: int):
    """Run items in order for about `seconds` of wall time.  Items run in
    whole blocks of `block`; another block starts only if it is expected to
    end nearer to `seconds` than stopping now.  Returns the items' wall
    times, their times at nominal speed, and the loop's elapsed wall time
    and time at nominal speed."""
    walls: list[float] = []
    refs: list[float] = []
    start = SAMPLER.mark()
    while True:
        if len(walls) % block == 0 and len(walls) >= MIN_ITEMS:
            elapsed = SAMPLER.since(start)[0]
            if elapsed + block * statistics.median(walls) / 2 > seconds:
                break
        wall, ref, _ = runner.call(items[len(walls) % len(items)])
        walls.append(wall)
        refs.append(ref)
    return walls, refs, *SAMPLER.since(start)


def checker_self_test(runner: Runner) -> tuple[int, list[str]]:
    """Every genuine report the run kept must pass the checker; doctored
    copies of it (and a genuine report of the opposite verdict placed in
    its slot) must not."""
    from workloads import self_test_checker
    opposite = {"flat-pass": "flat-control", "flat-control": "flat-pass"}
    tried, problems = 0, []
    for kind, (item, code, report) in sorted(runner.samples.items()):
        other = runner.samples.get(opposite.get(kind, ""))
        n, found = self_test_checker(item, code, report, other[1:] if other else None)
        tried += n
        problems += found
    return tried, problems


def bench(args, workdir: Path, import_s: tuple[float, float]) -> dict:
    import flatcert.cli
    from tracing import TraceSetupError, Tracer, aggregate, exact_counters, layer_metrics, traced
    from workloads import BLOCK, REQUIRED_SPANS, build_items

    workers = min(2, os.cpu_count() or 1)
    runner = Runner(flatcert.cli.main, workdir)

    problems: list[str] = []  # failures that are not one item's
    setup_times = []  # (wall, at nominal speed) of each set-up
    for _ in range(SETUP_REPEATS):
        t0 = SAMPLER.mark()
        warmup, items = build_items(args.workload, args.seed, workdir / "inputs", workers)
        runner.call(warmup)  # discarded, but its report must repeat exactly
        setup_times.append(SAMPLER.since(t0))
    warm_failures = len(runner.failures)

    if not args.trace:
        walls, refs, elapsed, elapsed_ref = timed_loop(runner, items, args.seconds,
                                                       BLOCK[args.workload])
        attempted = len(walls)
        metrics = {
            "setup_s": import_s[1] + statistics.median(t[1] for t in setup_times),
            "verdict_s.p50": statistics.median(refs),
            "verdicts_per_s": attempted / elapsed_ref,
            "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        }
        notes = {"verdict_s.p50": f"n={attempted}; wall {statistics.median(walls):.4g} s",
                 "verdicts_per_s": f"{attempted} items in {elapsed_ref:.2f} s; "
                                   f"wall {attempted / elapsed:.4g} 1/s in {elapsed:.2f} s",
                 "setup_s": "wall {:.4g} s".format(
                     import_s[0] + statistics.median(t[0] for t in setup_times))}
        host = (f"host speed {SAMPLER.speed():.3f} of nominal "
                f"({SAMPLER.samples} samples; times below are at nominal speed)")
    else:
        SAMPLER.stop()  # its ticks would land in whatever span is open
        # each item runs untraced, then traced twice; interleaving keeps host
        # drift out of the overhead ratio
        tracers = (Tracer(), Tracer())
        untraced: list[float] = []
        traced_walls, traced_cpu = [0.0, 0.0], [0.0, 0.0]
        start = time.perf_counter()
        while len(untraced) < 2 or (time.perf_counter() - start
                                    + 3 * statistics.median(untraced) / 2 <= args.seconds):
            item = items[len(untraced) % len(items)]
            untraced.append(runner.call(item)[0])
            for k, tracer in enumerate(tracers):
                with traced(tracer):
                    wall, _, cpu = runner.call(item, tracer)
                traced_walls[k] += wall
                traced_cpu[k] += cpu
        passes = [(aggregate(t), cpu) for t, cpu in zip(tracers, traced_cpu)]
        attempted = 3 * len(untraced)
        for name in REQUIRED_SPANS[args.workload]:
            if name not in passes[0][0] or passes[0][0][name].calls == 0:
                raise TraceSetupError(f"{name} recorded no calls on {args.workload}")
        first, second = (exact_counters(p[0]) for p in passes)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            problems.append(f"exact counters differ between traced passes: {diff}")
        per_pass = [layer_metrics(aggs, len(untraced), cpu) for aggs, cpu in passes]
        metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
        untraced_s, traced_s = sum(untraced), sum(traced_walls) / 2
        metrics["trace.overhead_ratio"] = untraced_s / traced_s
        notes = {"trace.overhead_ratio": f"{len(untraced)} items: untraced {untraced_s:.2f} s, traced {traced_s:.2f} s per pass"}
        print("exact counters (per pass, identical on both): "
              + json.dumps(first, sort_keys=True))
        host = "host-speed sampler off; times below are wall times"

    tried, checker_problems = checker_self_test(runner)
    problems += checker_problems
    failed_items = len(runner.failures) - warm_failures
    for line in runner.failures + problems:
        print(f"bench: FAILED {line}", file=sys.stderr)

    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"workers={workers} nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg={load}")
    print(host)
    print(f"checker self-test: {tried} doctored reports "
          + ("rejected, genuine reports accepted" if not checker_problems
             else f"-- {len(checker_problems)} problems"))
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {_unit(name)}" + (f" ({note})" if note else ""))
    print(f"failed_ratio {failed_items / attempted:.6g} ratio ({failed_items}/{attempted})")
    return {
        "correct": not runner.failures and not problems,
        "attempted": attempted,
        "failed": failed_items,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own Python process, one after another."""
    SAMPLER.stop()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "flatcert" / "cli.py").is_file():
        print(f"bench: no flatcert sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.pop("FLATCERT_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import flatcert
    if Path(flatcert.__file__).resolve().parent != SRC / "flatcert":
        print(f"bench: imported flatcert from {flatcert.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import flatcert.cli  # imported here so that import_s covers them
    import workloads
    from tracing import TraceSetupError
    import_s = SAMPLER.since(_START)

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = bench(args, workdir, import_s)
    except TraceSetupError as exc:
        print(f"bench: trace setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.stop()  # an armed timer would kill the exiting interpreter
    sys.exit(code)
