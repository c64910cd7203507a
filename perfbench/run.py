"""aerotrace benchmark: run one workload for a while and report its metrics.

    python3 perfbench/run.py --workload count-highway --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Inputs are generated from ``--seed``
in a separate process, then one fresh process per iteration imports
``aerotrace.cli`` and runs the workload through ``aerotrace.cli.main``, so
every iteration pays the set-up a command-line user pays and its peak RSS is
the program's own. Processes are spawned one after another until
``--seconds`` have passed (at least ``MIN_PROCESSES`` of them). The whole
measuring loop is capped at ``--seconds`` plus ``OVERRUN_ALLOWANCE_S``; a run
that stops on the cap says so in its report.

``--trace 0`` reports the end-to-end metrics from untraced processes.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones, with the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything before it is a
readable report. Without ``src/aerotrace`` in the working directory the
benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import layer_metrics, merge  # noqa: E402

WORKER = HERE / "worker.py"
WORK_DIR = ".perfbench_work"
MIN_PROCESSES = 3
OVERRUN_ALLOWANCE_S = 60.0  # how far past --seconds the measuring loop may run
GEN_TIMEOUT_S = 120.0


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AEROTRACE_STORE_ROOT", None)  # would move the node's store out of the checkout
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(work / "tmp"), PYTHONHASHSEED="0")
    return env


def spawn(argv: list[str], env: dict[str, str], timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion; return its JSON line (or None) and stderr."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, f"worker timed out after {timeout:.0f} s\n{exc.stderr or ''}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}\n{proc.stderr}"
    return json.loads(lines[-1]), proc.stderr


def summary(values: list[float]) -> str:
    return (f"median={statistics.median(values):.6g} min={min(values):.6g} "
            f"max={max(values):.6g} n={len(values)}")


def measure(args, work: Path, env: dict[str, str]) -> int:
    inputs = work / "inputs"
    t0 = time.monotonic()
    facts, err = spawn(["gen", "--workload", args.workload, "--seed", str(args.seed),
                        "--scale", args.scale, "--inputs", str(inputs)], env, GEN_TIMEOUT_S)
    if facts is None:
        sys.stderr.write(f"input generation failed: {err}")
        return 1
    print(f"# workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"inputs generated in {time.monotonic() - t0:.2f} s")
    for name, digest in facts["input_sha256"].items():
        print(f"# input sha256 {name} {digest}")

    start = time.monotonic()
    deadline = start + args.seconds
    cap = deadline + OVERRUN_ALLOWANCE_S
    capped = False
    results: list[dict] = []
    process_s: list[float] = []  # wall time of each worker process
    crashed = 0
    while True:
        n = len(results) + crashed
        traced = bool(args.trace) and n % 2 == 1
        # Stop once the next process would end past the deadline by more than half its length.
        done_time = time.monotonic() + statistics.median(process_s or [0.0]) / 2 >= deadline
        if args.trace:
            have = {r["traced"] for r in results}
            if done_time and have == {True, False}:
                break
        elif done_time and n >= MIN_PROCESSES:
            break
        left = cap - time.monotonic()
        if left <= 0:
            capped = True
            break
        if crashed >= MIN_PROCESSES:
            break
        run_dir = work / f"run{n}"
        argv = ["run", "--inputs", str(inputs), "--run-dir", str(run_dir)]
        argv += ["--trace"] * traced + ["--digests"] * (n == 0)
        argv += ["--spawned-at", repr(time.monotonic())]
        spawned = time.monotonic()
        result, err = spawn(argv, env, left)
        process_s.append(time.monotonic() - spawned)
        shutil.rmtree(run_dir, ignore_errors=True)
        if result is None:
            capped = capped or time.monotonic() >= cap
            crashed += 1
            sys.stderr.write(err)
            continue
        if result["failed"]:
            sys.stderr.write(err)
        results.append(result)

    attempted = sum(r["attempted"] for r in results) + crashed
    failed = sum(r["failed"] for r in results) + crashed
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    clean_runs = sum(r["failed"] == 0 for r in results)
    runs = len(results) + crashed
    correct = failed == 0 and bool(plain)  # a failed restore crashes its worker
    if capped:
        print(f"# warning: stopped at the run-wide cap of {args.seconds + OVERRUN_ALLOWANCE_S:.0f} s "
              f"after {runs} process(es); fewer iterations were measured than asked for")
    if not plain or (args.trace and not traced_runs):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 0

    units, unit_name = workloads.work_units(facts)
    walls = [r["wall_s"] for r in plain]
    setups = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in plain]
    wall = statistics.median(walls)
    print(f"wall_s {summary(walls)} s ({units / wall:.1f} {unit_name}/s)")
    if len(plain[0]["command_s"]) > 1:
        per_command = list(zip(*(r["command_s"] for r in plain)))
        for i, values in enumerate(per_command):
            print(f"  command {i} s {summary(list(values))}")
    print(f"setup_s {summary(setups)} s")
    print(f"peak_rss_mb {summary(rss)} MB")
    print(f"failed_ops_ratio {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    print(f"ok_runs_ratio {clean_runs}/{runs} = {clean_runs / runs:.6f}")
    for r in results:
        for problem in r["problems"]:
            print(f"# check failed: {problem}")
    for name, digest in results[0]["digests"].items():
        print(f"# output sha256 {name} {digest}")

    if args.trace:
        traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
        overhead = (traced_wall / wall - 1.0) * 100.0
        print(f"trace: {len(traced_runs)} traced iteration(s), wall_s median "
              f"{traced_wall:.6g} s vs {wall:.6g} s untraced; "
              f"{traced_runs[0]['restored']} wrapped names restored")
        layers = layer_metrics(merge([r["totals"] for r in traced_runs]),
                               len(traced_runs), overhead)
        for name, (value, unit) in layers.items():
            print(f"  {name} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "ok_runs_ratio": {"value": clean_runs / runs, "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="input size; 'tiny' is for the self-test")
    args = p.parse_args()

    root = HERE.parent
    if not (root / "src" / "aerotrace" / "cli.py").is_file():
        sys.stderr.write(f"no aerotrace source under {root / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        return measure(args, work, child_env(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
