"""tools/bench_pairs.py: one tiny pair with both sides at this tree, and the
summary it writes."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_pair_of_this_tree_against_itself_matches_its_digests(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    argv = [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--pr", "tiny", "--out", str(out),
            "--workload", "count-dense", "--seed", "7", "--pairs", "1", "--seconds", "0.5",
            "--scale", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["host"]) >= {"python", "numpy", "cpu_count"}
    [entry] = doc["runs"]["count-dense/7"]
    assert entry["digests_match"] is True
    assert set(entry["parent"]["digests"]) == {"count.csv"}
    assert entry["parent"]["digests"] == entry["change"]["digests"]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent"]
    for side in ("parent", "change"):
        assert set(entry[side]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_runs_ratio",
                                    "attempted", "failed", "digests"}
        assert entry[side]["failed"] == 0 and entry[side]["attempted"] > 0
        assert entry["pairs"][0][side]["correct"] is True
        assert entry[side]["ok_runs_ratio"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
        assert entry[side]["wall_s"]["median"] > 0
    assert set(entry["change_won"]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_runs_ratio"}


def test_the_summary_counts_wins_by_each_metric_direction_and_flags_a_digest_change():
    tool = load_tool()

    def run(wall, ok, digest):
        return {"correct": ok == 1.0, "attempted": 4, "failed": int(ok < 1.0), "wall_s": wall,
                "setup_s": 0.2, "peak_rss_mb": 40.0, "ok_runs_ratio": ok,
                "digests": {"count.csv": digest}}

    pairs = [{"first": "parent", "parent": run(1.0, 0.5, "a"), "change": run(0.9, 1.0, "a")},
             {"first": "change", "parent": run(1.0, 1.0, "a"), "change": run(1.1, 1.0, "a")},
             {"first": "parent", "parent": run(3.0, 1.0, "a"), "change": run(2.0, 1.0, "b")}]
    entry = tool.record(pairs, "count-dense", 7)
    assert entry["change_won"] == {"wall_s": 2, "setup_s": 0, "peak_rss_mb": 0,
                                   "ok_runs_ratio": 1}
    assert entry["parent"]["wall_s"] == pytest.approx({"q1": 1.0, "median": 1.0, "q3": 2.0})
    assert entry["change"]["wall_s"] == pytest.approx({"q1": 1.0, "median": 1.1, "q3": 1.55})
    assert entry["digests_match"] is False
    assert (entry["parent"]["attempted"], entry["parent"]["failed"]) == (12, 1)
    assert entry["change"]["failed"] == 0


def test_a_run_that_returns_no_metrics_stops_the_recorder(tmp_path):
    parent = tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    (parent / "perfbench").mkdir()
    (parent / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'correct': False, 'attempted': 1, 'failed': 1, 'metrics': {}}))\n")
    out = tmp_path / "BENCH_none.json"
    argv = [sys.executable, str(SCRIPT), "--parent", str(parent), "--pr", "none", "--out", str(out),
            "--workload", "count-dense", "--seed", "7", "--pairs", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "returned no metrics (1 of 1 operations failed)" in proc.stderr
    assert not out.exists()
