#!/usr/bin/env python
"""Run alternating parent/change pairs of the serve benchmark and compare them.

Usage (from any directory; each tree is a checkout with ``BENCHMARK.json``)::

    python tools/bench_pairs.py --parent OLD --change NEW \\
        --workload serve-churn --seeds 11-20 --seconds 30 --out pairs.jsonl

For every seed the benchmark command of ``BENCHMARK.json`` runs once in
each tree (``--workload W --seed S --seconds T --trace 0|1``), and which
tree runs first alternates from seed to seed, so drift on a shared host
hits both sides alike.  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``.  Each run's final JSON line is appended to
``--out`` as ``{"workload", "seed", "side", "seconds", "trace", "exit",
"result"}`` as soon as it finishes.  ``--summarize-only`` re-reads an
existing ``--out`` file instead of running anything.

The rows of one workload must hold one run per (seed, side) and one
run setting (``seconds``, ``trace``): a rerun appended to the same file,
or runs of different lengths, would otherwise mix into one summary.
Such rows are reported and nothing is summarized (exit 2).

The summary prints, per metric, each side's median and quartiles and
the number of pairs the change won; a tie counts for neither side.  A
metric's direction and bound come from the change tree's
``BENCHMARK.json`` (read, never written).  Two flags:

* ``claim`` — at least 10 pairs ran, the change won at least 9 of
  every 10 of them, and its median beats the parent's by more than the
  parent's interquartile range;
* ``WORSE`` — the change's median is worse than the parent's by more
  than the metric's bound (a fraction of the parent's median).

Exit 1 when any run was not correct (``correct`` false, ``failed`` > 0,
a non-zero exit or no JSON line), 2 when the rows cannot be paired,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
#: Fewer pairs than this never make a claim, however one-sided.
MIN_CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"1,4,9"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def metric_specs(benchmark: dict) -> dict[str, dict]:
    """``name -> {"better", "bound"?}`` for every metric of a
    ``BENCHMARK.json`` document (end-to-end and per-layer)."""
    specs: dict[str, dict] = {}
    for entry in benchmark.get("end_to_end", []) + benchmark.get("per_layer", []):
        specs[entry["name"]] = entry
    return specs


def run_once(tree: Path, command: list[str], args: list[str]) -> tuple[int, dict | None]:
    """Run the benchmark in ``tree``; its exit code and final JSON line."""
    done = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(done.stderr[-2000:])
        result = None
    return done.returncode, result


def run_pairs(
    parent: Path,
    change: Path,
    workload: str,
    seeds: list[int],
    seconds: float,
    trace: int,
    out: Path,
    command: list[str],
) -> None:
    """Run every seed on both trees, alternating which goes first."""
    trees = {"parent": parent, "change": change}
    with out.open("a", encoding="utf-8") as handle:
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)]
                code, result = run_once(trees[side], command, args)
                row = {"workload": workload, "seed": seed, "side": side,
                       "seconds": seconds, "trace": trace, "exit": code, "result": result}
                handle.write(json.dumps(row) + "\n")
                handle.flush()
                print(f"seed {seed} {side}: exit {code}", file=sys.stderr)


def mixed_rows(rows: list[dict]) -> list[str]:
    """Why ``rows`` cannot be summarized as one set of pairs: a (seed,
    side) that ran more than once, or more than one run setting."""
    problems = []
    seen: set[tuple[int, str]] = set()
    for row in rows:
        key = (row["seed"], row["side"])
        if key in seen:
            problems.append(f"seed {key[0]} {key[1]} ran more than once")
        seen.add(key)
    settings = sorted({(row.get("seconds"), row.get("trace")) for row in rows}, key=repr)
    if len(settings) > 1:
        problems.append("mixed run settings (seconds, trace): "
                        + ", ".join(map(str, settings)))
    return problems


def bad_runs(rows: list[dict]) -> list[dict]:
    """Rows whose run did not finish correct with zero failed operations."""
    return [
        row
        for row in rows
        if row.get("exit") != 0
        or not row.get("result")
        or row["result"].get("correct") is not True
        or row["result"].get("failed", 0) > 0
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(rows: list[dict], specs: dict[str, dict]) -> list[dict]:
    """One summary per metric that both sides reported.

    Pairs are the (parent, change) runs of one seed; only seeds with a
    value on both sides count.  Each summary holds both sides'
    quartiles, ``wins`` (pairs the change won), ``pairs``, and the two
    flags ``claim`` and ``worse``.
    """
    values: dict[str, dict[int, dict[str, float]]] = {}
    for row in rows:
        if not row.get("result"):
            continue
        for name, entry in row["result"].get("metrics", {}).items():
            values.setdefault(name, {}).setdefault(row["seed"], {})[row["side"]] = (
                entry["value"]
            )
    summaries = []
    for name, by_seed in values.items():
        spec = specs.get(name)
        if spec is None:
            continue
        pairs = [(pair["parent"], pair["change"]) for pair in by_seed.values()
                 if "parent" in pair and "change" in pair]
        if not pairs:
            continue
        lower = spec["better"] == "lower"
        wins = sum(1 for old, new in pairs if (new < old if lower else new > old))
        parent = quartiles([old for old, _ in pairs])
        change = quartiles([new for _, new in pairs])
        gain = parent[1] - change[1] if lower else change[1] - parent[1]
        bound = spec.get("bound")
        summaries.append({
            "metric": name,
            "unit": spec.get("unit", ""),
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "wins": wins,
            "pairs": len(pairs),
            "claim": len(pairs) >= MIN_CLAIM_PAIRS
            and wins * 10 >= 9 * len(pairs)
            and gain > parent[2] - parent[0],
            "worse": bound is not None and -gain > bound * abs(parent[1]),
        })
    return summaries


def format_summary(summaries: list[dict]) -> str:
    """The summary table, one line per metric."""
    lines = [f"{'metric':32s} {'parent median [q1-q3]':>30s} "
             f"{'change median [q1-q3]':>30s} {'better':>6s} {'wins':>6s}  flags"]
    for s in summaries:
        sides = [f"{m:.4g} [{q1:.4g}-{q3:.4g}]" for q1, m, q3 in (s["parent"], s["change"])]
        flags = " ".join(flag for flag, on in (("claim", s["claim"]), ("WORSE", s["worse"]))
                         if on)
        lines.append(f"{s['metric']:32s} {sides[0]:>30s} {sides[1]:>30s} "
                     f"{s['better']:>6s} {s['wins']:>2d}/{s['pairs']:<3d}  {flags}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("11-20"))
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSONL file to append to")
    parser.add_argument("--summarize-only", action="store_true",
                        help="summarize an existing --out file without running")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if not args.summarize_only:
        run_pairs(args.parent, args.change, args.workload, args.seeds, args.seconds,
                  args.trace, args.out, benchmark["command"])
    rows = [json.loads(line) for line in args.out.read_text().splitlines() if line.strip()]
    rows = [row for row in rows if row["workload"] == args.workload]
    problems = mixed_rows(rows)
    for problem in problems:
        print(f"CANNOT PAIR: {problem}")
    if problems:
        return 2
    print(format_summary(summarize(rows, metric_specs(benchmark))))
    bad = bad_runs(rows)
    for row in bad:
        print(f"BAD RUN: seed {row['seed']} {row['side']} exit {row.get('exit')}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
