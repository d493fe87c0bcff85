"""Run one serve benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer split (see ``perfbench/README.md``).  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  Exit 0 on a correct run, 1 when the oracle
or the protocol checks failed, 2 when the repository's sources are not
there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

#: Every run, set-up and checks included, ends well inside this.
_DEADLINE_S = 170

E2E_UNITS = {
    "batch_ms.p50": "ms",
    "batch_ms.p99": "ms",
    "batches_per_s": "1/s",
    "cpu_ms_per_batch": "ms",
    "setup_s": "s",
    "first_report_s": "s",
    "peak_rss_mb": "MiB",
}


class _Stopped(Exception):
    """The run hit its deadline or was asked to stop."""


def _stop(signum, frame):
    raise _Stopped(signal.Signals(signum).name)


def main(argv: list[str] | None = None) -> int:
    """Parse the arguments, run the workload, print the result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (seconds instead of minutes)"
    )
    args = parser.parse_args(argv)

    if not Path("src/repro/cli.py").is_file():
        print("error: run from a repository checkout (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import bench
    from layers import per_layer
    from workloads import SPECS, TINY

    specs = TINY if args.tiny else SPECS
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(specs)}",
              file=sys.stderr)
        return 2
    spec = specs[args.workload]

    workdir = Path(__file__).resolve().parent / "out" / f"{spec.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # One CPU for the load generator and (inherited) every server: the
    # loop is closed, so they never need two, and the host-speed probe
    # then samples the CPU the server runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Raise instead of dying, so the servers are stopped on the way out.
    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    signal.alarm(_DEADLINE_S)
    try:
        if args.trace:
            half = args.seconds / 2
            plain_dir, traced_dir = workdir / "plain", workdir / "traced"
            plain_dir.mkdir()
            traced_dir.mkdir()
            untraced = bench.run(spec, args.seed, half, plain_dir, traced=False, spawns=1)
            traced = bench.run(spec, args.seed, half, traced_dir, traced=True,
                               spawns=spec.spawns)
            results = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            result = bench.run(spec, args.seed, args.seconds, workdir, traced=False,
                               spawns=spec.spawns)
            results = [result]
            metrics = {
                name: (value, E2E_UNITS[name])
                for name, value in bench.end_to_end(result).items()
            }
    except _Stopped as exc:
        print(f"error: stopped by {exc} (the deadline is {_DEADLINE_S} s)", file=sys.stderr)
        return 3
    except (bench.BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        if args.trace:
            # Keep the traced server's span dumps; the logs are large.
            kept = workdir.parent / f"trace-{spec.name}-{args.seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir()
            for dump in (workdir / "traced").glob("dump*.json"):
                dump.rename(kept / dump.name)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for problem in r.problems:
            print(f"FAILED: {problem}")
    last = results[-1]
    print(f"{spec.name} seed={args.seed}: {len(last.latencies)} measured batches over "
          f"{last.window_s:.2f} s, {len(last.cold)} cold starts, "
          f"host {last.host_speed():.4f}x the reference time ({len(last.probes)} probes), "
          f"failed_frac={failed / attempted:.4f} ({failed}/{attempted})"
          + (" (stopped at the time limit)" if last.cut_short else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
