"""The ladder: wall-clock benchmark of real runs and service round trips.

    python benchmarks/ladder/run.py [--seed N] [--workload NAME]... \\
        [--seconds S] [--traced] [--out FILE] [--trace-out FILE]

Runs each workload in its own fresh child process, one after the other,
prints every metric by name with its unit and sample count, verifies
every output, and exits non-zero if any operation failed. A gated run
(the default) measures the end-to-end metrics with tracing off;
``--traced`` (``--trace 1``) is the separate run that splits the time by
layer. After each workload's table comes one JSON line in the form the
benchmark contract asks for (``correct``, ``attempted``, ``failed``,
``metrics``); with a single ``--workload`` it is the last line printed.

See README.md beside this file for the workloads and what moves what.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, METRICS, PER_LAYER, ROOT, RUN_SECONDS, WORKLOAD_NAMES

#: set-ups per gated run; ``setup_s`` is their median (all but one are
#: children that stop right after setting up)
SETUP_REPEATS = 3
SRC = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1, help="derives every graph seed")
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                   help="run only this workload (repeatable; default: all)")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measure each workload for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = the traced, per-layer run")
    p.add_argument("--traced", dest="trace", action="store_const", const=1)
    p.add_argument("--out", help="append this run to a result file (JSON)")
    p.add_argument("--trace-out", help="write the spans of a traced run here")
    # child side (set by this script only)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# child: one workload, one process
# ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import numpy

    from workloads import WORKLOADS, Ladder, engine_used, run_ladder, run_service

    wl = WORKLOADS[args.workload[0]]
    is_ladder = isinstance(wl, Ladder)
    if args.trace and not args.setup_only:
        import tracing

        trace = tracing.trace_ladder if is_ladder else tracing.trace_service
        result = trace(wl, args.seed, args.seconds, args.t0)
    else:
        run = run_ladder if is_ladder else run_service
        result = run(wl, args.seed, args.seconds, args.t0, setup_only=args.setup_only)
    result["env"] = {"numpy": numpy.__version__, "engine_used": engine_used()}
    # numpy scalars (counter sums) are not JSON; .item() makes them plain
    print(json.dumps(result, default=lambda o: o.item()))
    return 0


# ----------------------------------------------------------------------
# parent: spawn, collect, report
# ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` switch."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(name: str, args: argparse.Namespace, *, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ladder: workload {name!r} died with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> dict:
    # a traced run reports no set-up time, so it sets up once
    setups = [
        spawn(name, args, setup_only=True)["setup_s"]
        for _ in range(0 if args.trace else SETUP_REPEATS - 1)
    ]
    result = spawn(name, args, setup_only=False)
    setups.append(result["metrics"]["setup_s"][0])
    result["metrics"]["setup_s"] = (statistics.median(setups), len(setups))
    result["metrics"] = {
        metric: {"value": value, "unit": METRICS[metric]["unit"], "n": n}
        for metric, (value, n) in result["metrics"].items()
    }
    return result


def git_commit() -> str:
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *argv], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # an exported checkout has no .git


def driver_line(result: dict, traced: bool) -> str:
    """The contract's result line: every metric of the mode, by name.

    A traced run prints every per-layer metric; one that does not exist
    on this workload reads 0 there (the table above omits it instead).
    """
    wanted = PER_LAYER if traced else END_TO_END
    measured = result["metrics"]
    missing = [name for name in END_TO_END if not traced and name not in measured]
    if missing:
        raise SystemExit(f"ladder: end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": measured[name]["value"] if name in measured else 0,
               "unit": meta["unit"]}
        for name, meta in wanted.items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report(name: str, result: dict, args: argparse.Namespace) -> None:
    env = result["env"]
    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  traced={args.trace}  "
          f"engine={env['engine_used']}  numpy={env['numpy']} ==")
    for title, names in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        rows = [(m, result["metrics"][m]) for m in names if m in result["metrics"]]
        if rows:
            print(title)
        for metric, m in rows:
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"failed {result['failed']} of {result['attempted']} operations")
    print(driver_line(result, bool(args.trace)), flush=True)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ladder: no repro package under {SRC}", file=sys.stderr)
        return 2

    run = {
        "header": {
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "workloads": {},
    }
    print("ladder: " + "  ".join(f"{k}={v}" for k, v in run["header"].items()))
    spans = {}
    for name in args.workload or WORKLOAD_NAMES:
        result = run_workload(name, args)
        run["header"].update(result["env"])
        spans[name] = result.pop("spans", [])
        report(name, result, args)
        run["workloads"][name] = result

    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"schema": "ladder-runs/1", "runs": []}
        doc["runs"].append(run)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps({"header": run["header"], "spans": spans}) + "\n")
    return 1 if any(r["failed"] for r in run["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
