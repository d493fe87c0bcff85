#!/usr/bin/env python
"""Compare and validate ``BENCH_*.json`` payloads across runs.

Every bench and the CI perf gate emit results through
``benchmarks/_emit.py``'s one schema (``{"bench", "format": 1, "meta",
"records"}``).  This tool keeps that schema honest across history:

* ``diff OLD NEW`` — match the two payloads' records (identity = the
  record's non-numeric fields; records sharing one pair up in order),
  print a per-metric delta table for the numeric fields, and flag
  records that appear on only one side.  The numeric ``meta`` fields
  other than provenance (e.g. the streaming bench's
  ``checkpoint_wall_s``) get a delta table of their own.
  Exit 0; comparison is informational — thresholds live in the perf
  gate, not here.
* ``check [--baseline PATH] FILE...`` — validate each payload against
  the emit schema (top-level keys, ``format`` version, the provenance
  fields ``meta`` must carry, records all dictionaries) and, with
  ``--baseline``, the committed ``benchmarks/baseline.json`` contract
  (every section carries ``thresholds``).  Exit 1 on any drift — CI's
  perf job runs this over the freshly written ``BENCH_*.json`` files so
  a silent schema change fails the build instead of corrupting the
  archived history.

Run it exactly as CI does::

    python tools/bench_history.py check --baseline benchmarks/baseline.json \
        BENCH_*.json
    python tools/bench_history.py diff old/BENCH_engine.json BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FORMAT_VERSION = 1

#: Provenance every payload's ``meta`` must stamp (benchmarks/_emit.py).
META_FIELDS = ("python", "platform", "cpu_count", "git_sha", "timestamp")

#: Top-level shape of one payload.
PAYLOAD_KEYS = ("bench", "format", "meta", "records")


def load_payload(path: str | Path) -> dict:
    """Read one BENCH JSON document (raises on unreadable/unparsable)."""
    return json.loads(Path(path).read_text())


def validate_payload(payload: object, source: str) -> list[str]:
    """Schema-check one payload; returns problem lines (empty = clean)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"{source}: payload is {type(payload).__name__}, expected object"]
    for key in PAYLOAD_KEYS:
        if key not in payload:
            problems.append(f"{source}: missing top-level key {key!r}")
    if "format" in payload and payload["format"] != FORMAT_VERSION:
        problems.append(
            f"{source}: format {payload['format']!r}, expected {FORMAT_VERSION}"
        )
    if "bench" in payload and not (
        isinstance(payload["bench"], str) and payload["bench"]
    ):
        problems.append(f"{source}: 'bench' must be a non-empty string")
    meta = payload.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            problems.append(f"{source}: 'meta' must be an object")
        else:
            for field in META_FIELDS:
                if field not in meta:
                    problems.append(f"{source}: meta missing {field!r}")
    records = payload.get("records")
    if records is not None:
        if not isinstance(records, list):
            problems.append(f"{source}: 'records' must be a list")
        else:
            for index, record in enumerate(records):
                if not isinstance(record, dict):
                    problems.append(
                        f"{source}: records[{index}] is "
                        f"{type(record).__name__}, expected object"
                    )
    return problems


def validate_baseline(payload: object, source: str) -> list[str]:
    """Check the committed baseline's contract: sections carry thresholds.

    The baseline is not a BENCH payload — it is the perf gate's input —
    but the gate stamps its thresholds into every emitted ``meta``, so
    a malformed baseline is the other way schema drift sneaks into the
    archive.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"{source}: baseline is {type(payload).__name__}, expected object"]
    if "thresholds" not in payload:
        problems.append(f"{source}: missing top-level 'thresholds'")
    for name, section in payload.items():
        if not isinstance(section, dict) or name == "workload":
            continue
        if name != "thresholds" and "thresholds" not in section:
            problems.append(f"{source}: section {name!r} has no 'thresholds'")
    for name, section in payload.items():
        if isinstance(section, dict):
            thresholds = section if name == "thresholds" else section.get("thresholds")
            if isinstance(thresholds, dict):
                for key, value in thresholds.items():
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        problems.append(
                            f"{source}: threshold {name}.{key} is not numeric"
                        )
    return problems


def record_identity(record: dict) -> tuple:
    """A record's identity: its non-numeric fields, sorted.

    Records are bench-specific, so the split is structural — strings,
    booleans, and nulls name the configuration (backend, workers,
    label); ints and floats are the measurements being compared.
    """
    return tuple(
        sorted(
            (key, value)
            for key, value in record.items()
            if isinstance(value, (str, bool)) or value is None
        )
    )


def record_metrics(record: dict) -> dict[str, float]:
    """A record's numeric fields (the measurements)."""
    return {
        key: float(value)
        for key, value in record.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def records_by_identity(records: list[dict]) -> dict[tuple, dict]:
    """Records keyed by :func:`record_identity`.

    Records that share an identity — a bench whose records carry only
    numbers, such as the streaming bench's per-batch records — pair up
    by order of appearance: from the second on, the n-th one's key
    gains ``("#", n)``.
    """
    keyed: dict[tuple, dict] = {}
    counts: dict[tuple, int] = {}
    for record in records:
        identity = record_identity(record)
        counts[identity] = counts.get(identity, 0) + 1
        if counts[identity] > 1:
            identity += (("#", counts[identity]),)
        keyed[identity] = record
    return keyed


def _identity_label(identity: tuple) -> str:
    return " ".join(f"{key}={value}" for key, value in identity) or "<unlabelled>"


def diff_payloads(old: dict, new: dict) -> list[str]:
    """The human-readable delta report between two payloads."""
    lines: list[str] = []
    if old.get("bench") != new.get("bench"):
        lines.append(
            f"bench name changed: {old.get('bench')!r} -> {new.get('bench')!r}"
        )
    old_by_id = records_by_identity(old.get("records", []))
    new_by_id = records_by_identity(new.get("records", []))
    for identity in sorted(old_by_id.keys() | new_by_id.keys()):
        label = _identity_label(identity)
        if identity not in new_by_id:
            lines.append(f"- only in old: {label}")
            continue
        if identity not in old_by_id:
            lines.append(f"+ only in new: {label}")
            continue
        lines.append(f"  {label}")
        lines += metric_lines(
            record_metrics(old_by_id[identity]), record_metrics(new_by_id[identity])
        )
    before, after = (
        record_metrics(
            {k: v for k, v in (payload.get("meta") or {}).items() if k not in META_FIELDS}
        )
        for payload in (old, new)
    )
    if before or after:
        lines.append("  meta")
        lines += metric_lines(before, after)
    return lines


def metric_lines(before: dict[str, float], after: dict[str, float]) -> list[str]:
    """One delta line per metric of either side."""
    lines = []
    for metric in sorted(before.keys() | after.keys()):
        if metric not in after:
            lines.append(f"    {metric}: dropped (was {before[metric]:g})")
        elif metric not in before:
            lines.append(f"    {metric}: added ({after[metric]:g})")
        else:
            a, b = before[metric], after[metric]
            delta = b - a
            percent = f" ({delta / a:+.1%})" if a else ""
            lines.append(f"    {metric}: {a:g} -> {b:g}{percent}")
    return lines


def cmd_diff(args: argparse.Namespace) -> int:
    old = load_payload(args.old)
    new = load_payload(args.new)
    problems = validate_payload(old, args.old) + validate_payload(new, args.new)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"bench {new.get('bench')}: {args.old} -> {args.new}")
    for line in diff_payloads(old, new):
        print(line)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    problems: list[str] = []
    if args.baseline:
        try:
            problems += validate_baseline(load_payload(args.baseline), args.baseline)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{args.baseline}: unreadable ({exc})")
    for source in args.files:
        try:
            problems += validate_payload(load_payload(source), source)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{source}: unreadable ({exc})")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checked = len(args.files) + (1 if args.baseline else 0)
    print(f"bench-history: {checked} file(s) clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_history", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser("diff", help="per-metric deltas between two payloads")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.set_defaults(func=cmd_diff)

    check = sub.add_parser("check", help="validate payloads against the emit schema")
    check.add_argument(
        "--baseline",
        default=None,
        help="also validate the perf-gate baseline's threshold contract",
    )
    check.add_argument("files", nargs="*", help="BENCH_*.json payloads")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
