"""Record interleaved benchmark pairs of a parent tree and a change tree.

    python3 tools/bench_pairs.py --parent ../parent --pr <n> \
        --workload count-dense --seed 7 11 --pairs 10

Both trees are source checkouts. The parent can be any directory holding the
parent commit's files, for example one made with
``git archive <parent> | tar -x -C ../parent``. The change tree is the
checkout that holds this script.

Before timing, both trees are byte-compiled, and ``PYTHONDONTWRITEBYTECODE``
is removed from the environment, so no run pays for compiling the package.
Then, for each workload and seed, each pair runs the tree's own, unchanged
``python3 perfbench/run.py --trace 0`` once in each tree; even pairs start
with the parent and odd pairs with the change.

Results go to ``BENCH_<pr>.json`` in the change tree, or to ``--out``. An
existing file keeps what it holds, so several invocations build one file,
and a workload and seed run again get a second set after the first. Each
set holds every pair, each run with its ``correct``, ``attempted`` and
``failed``; per side, the median and quartiles of the four end-to-end
metrics, the operations attempted and failed over all its runs, and the
output digests; the number of pairs the change won on each metric; and
whether every digest of both sides matched. The host's Python and numpy
versions and CPU count are recorded once per file. A run that returns no
metrics stops the script. Otherwise it only records: it checks no bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# End-to-end metrics of perfbench/run.py --trace 0, and whether higher is better.
METRICS = {"wall_s": False, "setup_s": False, "peak_rss_mb": False, "ok_runs_ratio": True}
SIDES = ("parent", "change")
DIGEST_PREFIX = "# output sha256 "


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_tree(tree: Path, env: dict[str, str]) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def run_once(tree: Path, args: argparse.Namespace, workload: str, seed: int,
             env: dict[str, str]) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its outcome, its four metrics
    and its digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        sys.exit(f"{tree}: {' '.join(argv[1:])} returned no metrics "
                 f"({result['failed']} of {result['attempted']} operations failed)\n{proc.stderr}")
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    run.update((name, result["metrics"][name]["value"]) for name in METRICS)
    run["digests"] = dict(line[len(DIGEST_PREFIX):].split(" ", 1) for line in lines
                          if line.startswith(DIGEST_PREFIX))
    return run


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def won(parent: float, change: float, higher_is_better: bool) -> bool:
    return change > parent if higher_is_better else change < parent


def record(pairs: list[dict], workload: str, seed: int) -> dict:
    """One set of pairs of a workload and seed, and their summary."""
    entry = {"workload": workload, "seed": seed, "pairs": pairs}
    for side in SIDES:
        entry[side] = {name: quartiles([p[side][name] for p in pairs]) for name in METRICS}
        for key in ("attempted", "failed"):
            entry[side][key] = sum(p[side][key] for p in pairs)
        entry[side]["digests"] = pairs[0][side]["digests"]
    entry["change_won"] = {name: sum(won(p["parent"][name], p["change"][name], higher)
                                     for p in pairs)
                           for name, higher in METRICS.items()}
    first = pairs[0]["parent"]["digests"]
    entry["digests_match"] = bool(first) and all(
        p[side]["digests"] == first for p in pairs for side in SIDES)
    return entry


def host() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    p.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    p.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json in this checkout)")
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seed", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0, help="perfbench/run.py --seconds")
    p.add_argument("--scale", default="full", help="perfbench/run.py --scale")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": Path(__file__).resolve().parent.parent}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            p.error(f"{tree} has no perfbench/run.py")
    out = args.out or trees["change"] / f"BENCH_{args.pr}.json"

    env = bench_env()
    for tree in trees.values():
        compile_tree(tree, env)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(pr=args.pr, host=host())
    runs = doc.setdefault("runs", {})
    for workload in args.workload:
        for seed in args.seed:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], args, workload, seed, env)
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: wall_s "
                      f"{pair['parent']['wall_s']:.4g} -> {pair['change']['wall_s']:.4g}",
                      file=sys.stderr)
            entry = record(pairs, workload, seed)
            entry["command"] = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                                f"--seconds {args.seconds:g} --trace 0 --scale {args.scale}")
            runs.setdefault(f"{workload}/{seed}", []).append(entry)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
