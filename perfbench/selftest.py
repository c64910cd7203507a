"""Self-test of the benchmark; run it from the root of a checkout:

    python3 perfbench/selftest.py

It is named so that pytest does not collect it: it drives the benchmark at
its ``tiny`` scale, which takes about a minute. It checks that

* every workload passes its output checks at two seeds, whose inputs differ;
* every metric named in BENCHMARK.json is printed, with its unit, in the
  mode that reports it;
* a traced iteration restores every wrapped name, so an untraced call made
  after it records no span;
* without the source tree the benchmark exits non-zero and prints no result.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--seconds", "1", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadTest(unittest.TestCase):
    def test_every_workload_two_seeds(self):
        names = [w["name"] for w in SPEC["workloads"]]
        import workloads
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            inputs = []
            for seed in (1, 2):
                with self.subTest(workload=name, seed=seed):
                    proc = bench("--workload", name, "--seed", str(seed),
                                 "--trace", "0", "--scale", "tiny")
                    res = result_of(proc)
                    self.assertTrue(res["correct"], proc.stdout + proc.stderr)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
                    self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
                    inputs.append(re.findall(r"^# input sha256 .*$", proc.stdout, re.M))
            self.assertNotEqual(inputs[0], inputs[1])

    def test_traced_run_reports_every_layer(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=name):
                res = result_of(bench("--workload", name, "--seed", "3",
                                      "--trace", "1", "--scale", "tiny"))
                self.assertTrue(res["correct"])
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)


class TracerTest(unittest.TestCase):
    def test_restore_leaves_no_wrapper(self):
        import aerotrace.cli as cli
        from tracer import LAYERS, Tracer

        tracer = Tracer()
        tracer.install()
        self.assertTrue(hasattr(cli.main, "__wrapped__"))
        self.assertEqual(tracer.restore(), len(LAYERS))
        self.assertFalse(hasattr(cli.main, "__wrapped__"))
        SCRATCH.mkdir(exist_ok=True)
        try:
            cli.main(["analyze", "clean", "--in", str(self._raw_csv()),
                      "--out", str(SCRATCH / "clean.csv")])
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertEqual(tracer.spans, [])

    @staticmethod
    def _raw_csv() -> Path:
        SCRATCH.mkdir(exist_ok=True)
        path = SCRATCH / "raw.csv"
        path.write_text("".join(
            f"2022-07-01T00:{m:02d}:00Z,5,{10 + m % 7},20,27.00,60.00,1008.00\n"
            for m in range(60)))
        return path

    def test_self_time_subtracts_children(self):
        from tracer import Tracer

        tracer = Tracer()
        tracer.timed("outer", lambda: tracer.timed("inner", sum, range(100000)))
        spans = tracer.totals()["spans"]
        outer, inner = spans["outer"], spans["inner"]
        self.assertAlmostEqual(outer["self_s"], outer["total_s"] - inner["total_s"], places=9)


class BareDirectoryTest(unittest.TestCase):
    def test_exits_nonzero_without_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(SCRATCH, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
