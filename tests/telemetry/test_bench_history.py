"""tools/bench_history.py: schema validation and per-metric diffs."""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_history  # noqa: E402

from benchmarks._emit import bench_payload  # noqa: E402


def good_payload(**meta):
    return bench_payload(
        "engine",
        [
            {"backend": "serial", "workers": 1, "wall_s": 0.5, "violations": 3},
            {"backend": "engine", "workers": 4, "wall_s": 0.2, "violations": 3},
        ],
        meta=meta or None,
    )


class TestValidatePayload:
    def test_emit_output_is_clean(self):
        assert bench_history.validate_payload(good_payload(), "x.json") == []

    def test_missing_top_level_key(self):
        payload = good_payload()
        del payload["records"]
        problems = bench_history.validate_payload(payload, "x.json")
        assert any("records" in p for p in problems)

    def test_format_version_drift_fails(self):
        payload = good_payload()
        payload["format"] = 2
        problems = bench_history.validate_payload(payload, "x.json")
        assert any("format" in p for p in problems)

    def test_missing_meta_provenance_fails(self):
        payload = good_payload()
        del payload["meta"]["git_sha"]
        problems = bench_history.validate_payload(payload, "x.json")
        assert any("git_sha" in p for p in problems)

    def test_non_dict_record_fails(self):
        payload = good_payload()
        payload["records"].append([1, 2, 3])
        problems = bench_history.validate_payload(payload, "x.json")
        assert any("records[2]" in p for p in problems)

    def test_non_object_payload_fails(self):
        assert bench_history.validate_payload([], "x.json")


class TestValidateBaseline:
    def test_committed_baseline_is_clean(self):
        baseline = json.loads((REPO_ROOT / "benchmarks" / "baseline.json").read_text())
        assert bench_history.validate_baseline(baseline, "baseline.json") == []

    def test_section_without_thresholds_fails(self):
        baseline = {"thresholds": {"x": 1.0}, "serve": {"workload": {}}}
        problems = bench_history.validate_baseline(baseline, "b.json")
        assert any("serve" in p for p in problems)

    def test_non_numeric_threshold_fails(self):
        baseline = {"thresholds": {"x": "fast"}}
        problems = bench_history.validate_baseline(baseline, "b.json")
        assert any("x is not numeric" in p for p in problems)


class TestDiff:
    def test_matched_records_get_per_metric_deltas(self):
        old = good_payload()
        new = json.loads(json.dumps(old))
        new["records"][1]["wall_s"] = 0.1
        lines = bench_history.diff_payloads(old, new)
        text = "\n".join(lines)
        assert "backend=engine" in text
        assert "wall_s: 0.2 -> 0.1 (-50.0%)" in text
        assert "violations: 3 -> 3 (+0.0%)" in text

    def test_one_sided_records_are_flagged(self):
        old = good_payload()
        new = json.loads(json.dumps(old))
        new["records"].pop()
        new["records"].append(
            {"backend": "fragment", "workers": 4, "wall_s": 0.3}
        )
        text = "\n".join(bench_history.diff_payloads(old, new))
        assert "- only in old:" in text and "backend=engine" in text
        assert "+ only in new:" in text and "backend=fragment" in text

    def test_added_and_dropped_metrics_are_flagged(self):
        old = good_payload()
        new = json.loads(json.dumps(old))
        del new["records"][0]["violations"]
        new["records"][0]["matches"] = 40
        text = "\n".join(bench_history.diff_payloads(old, new))
        assert "violations: dropped (was 3)" in text
        assert "matches: added (40)" in text

    def test_int_config_fields_diff_as_metrics(self):
        # The identity/metric split is structural: strings and booleans
        # name the row, every number is compared.  An int-valued knob
        # like workers therefore shows as a delta on the same row — the
        # records still pair up by their string labels.
        old = good_payload()
        new = json.loads(json.dumps(old))
        new["records"][1]["workers"] = 8
        text = "\n".join(bench_history.diff_payloads(old, new))
        assert "workers: 4 -> 8" in text


    def test_records_sharing_an_identity_pair_in_order(self):
        # The streaming bench's per-batch records are all numbers, so
        # they share one (empty) identity; each batch still gets its row.
        old = bench_payload(
            "streaming", [{"batch": n, "kernel_runs": 5} for n in (1, 2, 3)]
        )
        new = json.loads(json.dumps(old))
        new["records"][1]["kernel_runs"] = 8
        text = "\n".join(bench_history.diff_payloads(old, new))
        assert "batch: 1 -> 1" in text and "batch: 3 -> 3" in text
        assert "kernel_runs: 5 -> 8 (+60.0%)" in text
        assert "only in" not in text


    def test_numeric_meta_fields_diff_without_provenance(self):
        old = bench_payload(
            "streaming", [{"batch": 1}], meta={"checkpoint_bytes": 1000, "graph": "churn"}
        )
        new = json.loads(json.dumps(old))
        new["meta"]["checkpoint_bytes"] = 900
        new["meta"]["cpu_count"] = old["meta"]["cpu_count"] + 1
        text = "\n".join(bench_history.diff_payloads(old, new))
        assert "  meta\n    checkpoint_bytes: 1000 -> 900 (-10.0%)" in text
        assert "cpu_count" not in text and "graph" not in text


class TestCommands:
    def test_check_clean_files(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(good_payload()))
        code = bench_history.main(
            [
                "check",
                "--baseline", str(REPO_ROOT / "benchmarks" / "baseline.json"),
                str(path),
            ]
        )
        assert code == 0
        assert "2 file(s) clean" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        payload = good_payload()
        payload["format"] = 99
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(payload))
        assert bench_history.main(["check", str(path)]) == 1
        assert "format" in capsys.readouterr().err

    def test_check_fails_on_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        assert bench_history.main(["check", str(path)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_diff_command_output(self, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(good_payload()))
        new = good_payload()
        new["records"][0]["wall_s"] = 0.25
        new_path = tmp_path / "new.json"
        new_path.write_text(json.dumps(new))
        assert bench_history.main(["diff", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "bench engine:" in out
        assert "wall_s: 0.5 -> 0.25 (-50.0%)" in out

    def test_diff_refuses_invalid_payloads(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bench": "x"}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(good_payload()))
        assert bench_history.main(["diff", str(bad), str(good)]) == 1
