"""tools/bench_pairs.py: the paired parent/change summary."""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_pairs  # noqa: E402

SPECS = bench_pairs.metric_specs(json.loads((REPO_ROOT / "BENCHMARK.json").read_text()))


def row(seed, side, correct=True, failed=0, exit_code=0, **metrics):
    return {
        "workload": "w",
        "seed": seed,
        "side": side,
        "exit": exit_code,
        "result": {
            "correct": correct,
            "attempted": 10,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "?"} for name, value in metrics.items()},
        },
    }


def pairs(parent_values, change_values, metric):
    rows = []
    for seed, (old, new) in enumerate(zip(parent_values, change_values), start=11):
        rows.append(row(seed, "parent", **{metric: old}))
        rows.append(row(seed, "change", **{metric: new}))
    return rows


def summary_of(rows, metric):
    (found,) = [s for s in bench_pairs.summarize(rows, SPECS) if s["metric"] == metric]
    return found


def test_parse_seeds():
    assert bench_pairs.parse_seeds("11-14") == [11, 12, 13, 14]
    assert bench_pairs.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def test_clear_gain_is_a_claim():
    parent = [0.20, 0.21, 0.22, 0.23, 0.21, 0.22, 0.20, 0.24, 0.22, 0.21]
    change = [0.12, 0.13, 0.12, 0.14, 0.13, 0.12, 0.13, 0.12, 0.25, 0.13]
    s = summary_of(pairs(parent, change, "setup_s"), "setup_s")
    assert s["pairs"] == 10 and s["wins"] == 9
    assert s["parent"][1] == 0.215 and s["change"][1] == 0.13
    assert s["claim"] and not s["worse"]
    assert "claim" in bench_pairs.format_summary([s])
    nine = summary_of(pairs(parent[:9], change[:8] + [0.12], "setup_s"), "setup_s")
    assert nine["wins"] == 9 and not nine["claim"]  # too few pairs to claim


def test_ties_count_for_neither_side_and_spoil_the_claim():
    parent = [1.0] * 10
    change = [1.0] * 2 + [0.5] * 8
    s = summary_of(pairs(parent, change, "batch_ms.p50"), "batch_ms.p50")
    assert s["wins"] == 8
    assert not s["claim"]


def test_a_gap_inside_the_parent_iqr_is_no_claim():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    change = [value - 0.1 for value in parent]
    s = summary_of(pairs(parent, change, "cpu_ms_per_batch"), "cpu_ms_per_batch")
    assert s["wins"] == 10
    assert not s["claim"]  # 0.1 gap < the parent's IQR of 2.0


def test_higher_is_better_and_worse_than_bound_is_flagged():
    parent = [100.0] * 10
    change = [70.0] * 10  # 30% fewer batches/s; the bound is 25%
    s = summary_of(pairs(parent, change, "batches_per_s"), "batches_per_s")
    assert s["wins"] == 0
    assert s["worse"] and not s["claim"]
    mild = summary_of(pairs(parent, [80.0] * 10, "batches_per_s"), "batches_per_s")
    assert not mild["worse"]  # 20% is inside the bound
    assert "WORSE" in bench_pairs.format_summary([s])


def test_incorrect_or_failed_runs_are_bad():
    rows = [
        row(11, "parent", setup_s=1.0),
        row(11, "change", setup_s=1.0),
        row(12, "parent", correct=False, setup_s=1.0),
        row(12, "change", failed=2, setup_s=1.0),
        row(13, "parent", exit_code=3),
        {"workload": "w", "seed": 13, "side": "change", "exit": 0, "result": None},
    ]
    assert [(r["seed"], r["side"]) for r in bench_pairs.bad_runs(rows)] == [
        (12, "parent"),
        (12, "change"),
        (13, "parent"),
        (13, "change"),
    ]
    # Seeds without a value on both sides do not form a pair.
    assert summary_of(rows, "setup_s")["pairs"] == 2


def test_summarize_only_exits_nonzero_on_a_bad_run(tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    rows = pairs([1.0, 1.0], [0.5, 0.5], "setup_s")
    out.write_text("".join(json.dumps(r) + "\n" for r in rows))
    argv = ["--parent", str(tmp_path), "--change", str(REPO_ROOT), "--workload", "w",
            "--out", str(out), "--summarize-only"]
    assert bench_pairs.main(argv) == 0
    assert "setup_s" in capsys.readouterr().out
    with out.open("a") as handle:
        handle.write(json.dumps(row(13, "change", failed=1, setup_s=0.5)) + "\n")
    assert bench_pairs.main(argv) == 1
    assert "BAD RUN: seed 13 change" in capsys.readouterr().out


def test_reruns_and_mixed_settings_are_not_paired(tmp_path, capsys):
    """A rerun appended to the same file, or runs of another length,
    would silently replace or mix into the pairs: nothing is summarized."""
    assert bench_pairs.mixed_rows(pairs([1.0, 1.0], [0.5, 0.5], "setup_s")) == []
    rerun = pairs([1.0, 1.0], [0.5, 0.5], "setup_s") + [row(12, "change", setup_s=0.1)]
    assert bench_pairs.mixed_rows(rerun) == ["seed 12 change ran more than once"]
    short = [dict(r, seconds=30.0, trace=0) for r in pairs([1.0], [0.5], "setup_s")]
    short += [dict(r, seconds=10.0, trace=0) for r in pairs([1.0], [0.5], "setup_s")[:1]]
    short[-1]["seed"] = 12
    (problem,) = bench_pairs.mixed_rows(short)
    assert problem.startswith("mixed run settings")

    out = tmp_path / "pairs.jsonl"
    out.write_text("".join(json.dumps(r) + "\n" for r in rerun))
    argv = ["--parent", str(tmp_path), "--change", str(REPO_ROOT), "--workload", "w",
            "--out", str(out), "--summarize-only"]
    assert bench_pairs.main(argv) == 2
    printed = capsys.readouterr().out
    assert "CANNOT PAIR: seed 12 change ran more than once" in printed
    assert "setup_s" not in printed


def test_seconds_default_to_the_benchmark_run_length(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args: ran.append(args))
    out = tmp_path / "pairs.jsonl"
    out.write_text("")
    argv = ["--parent", str(tmp_path), "--change", str(REPO_ROOT), "--workload", "w",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    ((_, _, _, _, seconds, _, _, _),) = ran
    assert seconds == benchmark["run_seconds"]


def test_a_tree_holding_bytecode_is_named(tmp_path, monkeypatch, capsys):
    """Byte-code under src/ makes a tree's servers start faster, so a
    run of pairs names each tree that holds any."""
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args: None)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "mod.py").write_text("")
        (tree / "BENCHMARK.json").write_text((REPO_ROOT / "BENCHMARK.json").read_text())
    cache = change / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.pyc").write_bytes(b"")
    out = tmp_path / "pairs.jsonl"
    out.write_text("")
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    err = capsys.readouterr().err
    assert f"the change tree {change} holds 1 .pyc file(s) under src/" in err
    assert "parent tree" not in err
    assert bench_pairs.main(argv + ["--summarize-only"]) == 0
    assert ".pyc" not in capsys.readouterr().err  # nothing runs, nothing to warn about
