"""One benchmark process.

``worker.py gen``  writes the inputs of one (workload, seed, scale).
``worker.py run``  imports ``aerotrace.cli`` (timed as set-up from the moment
the parent spawned this process), runs one iteration of the workload through
``aerotrace.cli.main`` in-process, checks the outputs, and prints one JSON
line. With ``--trace`` the layers are wrapped for that iteration only and
restored before the checks run.

The imports before ``aerotrace.cli`` are kept to the few that the set-up time
should not be charged for.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import aerotrace.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"aerotrace was imported from {cli.__file__}, not from {SRC}")
    return cli


def run(argv: list[str]) -> int:
    cli = _import_cli()
    cli.build_parser()
    ready_at = time.monotonic()

    import argparse
    import contextlib
    import io
    import json
    import resource
    import traceback

    import workloads
    from tracer import Tracer

    p = argparse.ArgumentParser(prog="worker.py run")
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--digests", action="store_true")
    args = p.parse_args(argv)

    facts = json.loads((args.inputs / "facts.json").read_text())
    args.run_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    rcs: list[int] = []
    walls: list[float] = []
    stdout = io.StringIO()
    if tracer:
        tracer.install()
    try:
        for command in workloads.commands(facts, args.inputs, args.run_dir):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    rc = cli.main(command)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = -1
            walls.append(time.perf_counter() - t0)
            rcs.append(rc)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        restored = tracer.restore() if tracer else 0

    outcome = workloads.check(facts, args.inputs, args.run_dir, rcs, stdout.getvalue())
    result = {
        "traced": bool(tracer), "restored": restored,
        "setup_s": ready_at - args.spawned_at, "wall_s": sum(walls), "command_s": walls,
        "peak_rss_mb": peak_rss_mb, "rcs": rcs,
        "attempted": outcome.attempted, "failed": outcome.failed, "problems": outcome.problems,
        "digests": workloads.output_digests(facts, args.run_dir) if args.digests else {},
        "totals": tracer.totals() if tracer else None,
    }
    print(json.dumps(result))
    return 0


def gen(argv: list[str]) -> int:
    import argparse
    import json

    _import_cli()  # also compiles the package, so the first timed import is warm
    import workloads

    p = argparse.ArgumentParser(prog="worker.py gen")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", choices=workloads.SCALES, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    args = p.parse_args(argv)
    facts = workloads.make_inputs(args.workload, args.seed, args.scale, args.inputs)
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    mode, rest = (sys.argv[1], sys.argv[2:]) if len(sys.argv) > 1 else ("", [])
    if mode not in ("run", "gen"):
        sys.exit("usage: worker.py {run,gen} ...")
    sys.exit(run(rest) if mode == "run" else gen(rest))
