"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``datasets`` — list the Table II dataset registry;
- ``experiments`` — list every reproducible figure/table/ablation;
- ``run <exp_id> [--full]`` — run one experiment and print its output;
- ``report [path] [--full]`` — regenerate EXPERIMENTS.md;
- ``match <dataset> [-p N] [-m MODEL] [--machine NAME]`` — one matching
  run with a results summary;
- ``chaos [dataset] [--plans N] [--seed S]`` — deterministically sample
  fault plans (crashes, message/RMA faults, NIC degradation), run each
  backend under them with survivor-subgraph verification and
  determinism checks, and shrink any failure to a minimal reproducing
  ``repro match`` invocation;
- ``profile [dataset] [-p N] [-b BACKEND] [--out DIR]`` — one span-
  profiled run: per-rank phase breakdown, critical-path analysis, and
  (with ``--out``) the full artifact bundle including a Perfetto-
  loadable Chrome trace (see docs/profiling.md);
- ``serve [--port N] [--store DIR] [--workers N]`` — the
  matching-as-a-service job server: content-addressed result cache,
  request batching, artifact store (docs/service.md);
- ``submit <dataset> [-p N] [-m MODEL] [--url URL]`` — submit one job to
  a running server and print the (possibly cached) result.

The ``match`` / ``profile`` / ``chaos`` commands accept
``--config FILE.toml``: a named run profile whose values fill in any
flag the command line left at its default (explicit CLI flags always
win). See ``examples/profiles/`` and docs/api.md.

Every subcommand is a thin client of the library facade
:mod:`repro.api`; the server executes through the same facade, so CLI,
experiments, and HTTP produce bit-identical results.
"""

from __future__ import annotations

import argparse
import sys


def _resolve(lookup, name: str):
    """Registry lookup of a user-typed name: an unknown one ends the
    command with the registry's one-line message and exit status 2.
    Only the lookup is guarded — a ``KeyError`` from the command body is
    a bug and keeps its traceback."""
    try:
        return lookup(name)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_datasets(args) -> int:
    from repro.harness.spec import all_specs
    from repro.util.tables import TextTable, format_si

    t = TextTable(["name", "category", "paper id", "|V|", "|E|", "default p"])
    for spec in all_specs():
        g = spec.instantiate()
        t.add_row(
            [
                spec.name,
                spec.category,
                spec.paper_identifier,
                format_si(g.num_vertices),
                format_si(g.num_edges),
                ",".join(map(str, spec.default_procs)),
            ]
        )
    print(t.render())
    return 0


def _cmd_experiments(args) -> int:
    from repro.harness.experiments.base import all_experiment_ids

    for eid in all_experiment_ids():
        print(eid)
    return 0


def _cmd_run(args) -> int:
    from repro.harness.experiments.base import get_experiment

    out = _resolve(get_experiment, args.exp_id)(not args.full)
    print(out.text)
    if out.findings:
        print("Findings:")
        for f in out.findings:
            print(f"* {f}")
    return 0


def _cmd_report(args) -> int:
    from repro.harness.report import generate_experiments_md

    generate_experiments_md(args.path, fast=not args.full)
    print(f"wrote {args.path}")
    return 0


def _cmd_bundle(args) -> int:
    """Run every experiment and write machine-readable artifacts (CSV,
    rendered text) into a directory — the full figure/table data bundle."""
    from pathlib import Path

    from repro.harness.experiments.base import all_experiment_ids, run_experiment

    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    ids = args.only.split(",") if args.only else all_experiment_ids()
    for eid in ids:
        out = run_experiment(eid, fast=not args.full)
        (outdir / f"{eid}.txt").write_text(
            out.text + "\nFindings:\n" + "\n".join(f"* {f}" for f in out.findings) + "\n"
        )
        for key, value in out.data.items():
            if isinstance(value, str) and ("," in value and "\n" in value):
                (outdir / f"{eid}_{key.replace('_csv', '')}.csv").write_text(value)
        print(f"wrote {eid}")
    return 0


def _load_toml(path: str) -> dict:
    # One TOML decode path for the whole system: the service wire schema
    # module owns it (shared with request bodies and `repro submit`).
    from repro.service.schema import SchemaError, load_toml_file

    try:
        return load_toml_file(path)
    except OSError as e:
        raise SystemExit(f"cannot read config file {path}: {e}") from None
    except SchemaError as e:
        raise SystemExit(f"{path}: {e}") from None


def _apply_config_file(args, parser) -> None:
    """Merge a ``--config FILE.toml`` profile into parsed arguments.

    Precedence: explicit CLI flags > file values > parser defaults. A
    flag is "explicit" when its parsed value differs from the parser
    default (for repeatable flags like ``--crash``: when any were
    passed), so profiles can set anything without clobbering what the
    user typed. Top-level keys apply to every command; a ``[match]`` /
    ``[profile]`` / ``[chaos]`` table applies to that command only and
    overrides top-level keys.
    """
    data = _load_toml(args.config)
    flat = {k: v for k, v in data.items() if not isinstance(v, dict)}
    section = data.get(args.command, {})
    if not isinstance(section, dict):
        raise SystemExit(f"[{args.command}] in {args.config} must be a table")
    flat.update(section)
    actions = {a.dest: a for a in parser._actions}
    for key, value in flat.items():
        dest = key.replace("-", "_")
        where = f"{args.config}: {key} = {value!r}"
        if dest not in actions or dest in ("config", "fn", "command"):
            # argparse's own status for an unrecognized flag
            print(f"{where}: unknown key for command {args.command!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        current = getattr(args, dest)
        default = parser.get_default(dest)
        if isinstance(current, list):
            # Repeatable flags (--crash/--degrade): the parser default
            # list is mutated in place by append actions, so "explicit"
            # means non-empty, and file values only fill an empty list.
            items = value if isinstance(value, list) else [value]
            items = [_file_value(actions[dest], v, where) for v in items]
            if not current:
                setattr(args, dest, items)
            continue
        value = _file_value(actions[dest], value, where)
        if current == default:
            setattr(args, dest, value)


def _file_value(action, value, where: str):
    """A config-file ``value`` held to its flag's ``type=`` / ``choices=``.

    TOML values arrive typed, so they must already be what the flag
    parses to: an integer flag takes an integer (``"4"`` is a string), a
    switch a boolean, any other flag a string, which then goes through
    the flag's own conversion. A mismatch ends the command with one
    stderr line naming the file and key, and exit status 2 — argparse's
    own status for a bad flag.
    """
    if action.nargs == 0:
        kind, name = bool, "true or false"
    else:
        kind, name = {
            int: (int, "an integer"), float: ((int, float), "a number"),
        }.get(action.type, (str, "a string"))
    try:
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
            raise TypeError(f"expected {name}")
        if action.type is not None:
            value = action.type(value)
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"invalid choice (choose from {', '.join(action.choices)})")
    except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
        print(f"{where}: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    return value


def _parse_crashes(specs: list[str]) -> dict[int, float]:
    """Parse repeated ``--crash RANK:TIME`` options."""
    crashes: dict[int, float] = {}
    for s in specs:
        try:
            rank_s, time_s = s.split(":", 1)
            crashes[int(rank_s)] = float(time_s)
        except ValueError:
            raise SystemExit(f"bad --crash spec {s!r}; expected RANK:TIME") from None
    return crashes


def _parse_degradations(specs: list[str]):
    """Parse repeated ``--degrade RANK:T0:T1:FACTOR`` options."""
    from repro.mpisim.faults import NicDegradation

    out = []
    for s in specs:
        try:
            rank_s, t0_s, t1_s, f_s = s.split(":")
            out.append(
                NicDegradation(
                    rank=int(rank_s), t_start=float(t0_s),
                    t_end=float(t1_s), factor=float(f_s),
                )
            )
        except ValueError as e:
            raise SystemExit(
                f"bad --degrade spec {s!r}; expected RANK:T0:T1:FACTOR ({e})"
            ) from None
    return tuple(out)


def _parse_partitions(specs: list[str]):
    """Parse repeated ``--partition T0:T1:G0|G1|...`` options, where each
    group is a comma-separated rank list (e.g. ``1e-4:3e-4:0,1|2,3``)."""
    from repro.mpisim.faults import PartitionWindow

    out = []
    for s in specs:
        try:
            t0_s, t1_s, groups_s = s.split(":", 2)
            groups = tuple(
                tuple(int(r) for r in grp.split(","))
                for grp in groups_s.split("|")
            )
            out.append(
                PartitionWindow(
                    t_start=float(t0_s), t_end=float(t1_s), groups=groups
                )
            )
        except ValueError as e:
            raise SystemExit(
                f"bad --partition spec {s!r}; expected T0:T1:G0|G1 with "
                f"comma-separated rank groups ({e})"
            ) from None
    return tuple(out)


def _cmd_match(args) -> int:
    from repro.harness.spec import get_spec
    from repro.matching import MatchingOptions, RunConfig, run_matching
    from repro.mpisim.checkpoint import (
        CheckpointConfig,
        CheckpointStore,
        load_checkpoint,
    )
    from repro.mpisim.errors import RecoveryFailed, SimKilled
    from repro.mpisim.faults import ChurnPlan, FaultPlan
    from repro.mpisim.machine import get_machine
    from repro.util.tables import format_seconds

    faults = None
    crashes = _parse_crashes(args.crash)
    degradations = _parse_degradations(args.degrade)
    partitions = _parse_partitions(args.partition)
    churn_plan = None
    if args.churn_mtbf:
        if not args.churn_horizon:
            raise SystemExit(
                "--churn-mtbf needs --churn-horizon (virtual time past "
                "which no more churn events fire)"
            )
        churn_plan = ChurnPlan(
            mtbf=args.churn_mtbf, horizon=args.churn_horizon,
            seed=args.fault_seed,
        )
        if not args.spares:
            raise SystemExit(
                "churn streams crashes through the whole run and needs "
                "rollback-recovery: pass --spares N (and --replicas K)"
            )
    if args.spares and not args.checkpoint_interval:
        if churn_plan is not None:
            # A pasted `repro chaos --churn` repro line carries no
            # interval; default to a cadence dense enough to outpace the
            # requested MTBF.
            args.checkpoint_interval = args.churn_mtbf / 8.0
        else:
            raise SystemExit(
                "--spares turns on rollback-recovery, which needs "
                "coordinated cuts to roll back to: pass --checkpoint-interval"
            )
    if (
        args.drop_rate or args.dup_rate or args.delay_rate
        or args.rma_drop_rate or args.rma_corrupt_rate
        or crashes or degradations or partitions or churn_plan is not None
    ):
        bad = [r for r in crashes if not 0 <= r < args.nprocs]
        if bad:
            raise SystemExit(f"--crash ranks {bad} outside 0..{args.nprocs - 1}")
        try:
            faults = FaultPlan(
                seed=args.fault_seed,
                drop_rate=args.drop_rate,
                dup_rate=args.dup_rate,
                delay_rate=args.delay_rate,
                degradations=degradations,
                partitions=partitions,
                crashes=crashes,
                detect_latency=args.detect_latency,
                rma_drop_rate=args.rma_drop_rate,
                rma_corrupt_rate=args.rma_corrupt_rate,
                churn_plan=churn_plan,
            )
        except ValueError as e:
            raise SystemExit(str(e)) from None

    checkpoint = None
    if args.checkpoint_interval:
        checkpoint = CheckpointConfig(
            interval=args.checkpoint_interval,
            store=CheckpointStore(),
            dir=args.checkpoint_dir or None,
        )
    restore = None
    if args.resume:
        try:
            restore = load_checkpoint(args.resume)
        except (OSError, ValueError) as e:
            raise SystemExit(f"cannot resume from {args.resume}: {e}") from None
        if restore.nprocs != args.nprocs:
            raise SystemExit(
                f"{args.resume} snapshots {restore.nprocs} ranks; "
                f"rerun with -p {restore.nprocs}"
            )
        print(
            f"resuming from {args.resume} "
            f"(epoch {restore.epoch}, vtime {restore.vtime:.6e})"
        )

    g = _resolve(get_spec, args.dataset).instantiate()
    options = MatchingOptions(
        agg_flush_bytes=args.agg_flush_bytes or None,
        agg_flush_count=args.agg_flush_count or None,
    )
    try:
        res = run_matching(
            g,
            nprocs=args.nprocs,
            model=args.model,
            config=RunConfig(
                machine=get_machine(args.machine),
                options=options,
                faults=faults,
                max_ops=args.max_ops,
                checkpoint=checkpoint,
                kill_at=args.kill_at,
                restore=restore,
                spares=args.spares,
                replicas=args.replicas,
            ),
        )
    except ValueError as e:
        # A configuration run_matching rejects before it starts, e.g. a
        # fault plan the model cannot honour.
        raise SystemExit(str(e)) from None
    except RecoveryFailed as e:
        print(f"recovery failed: {e.reason} (rank {e.rank} died at "
              f"t={e.t:.6e})")
        print(e.report)
        return 1
    except SimKilled as e:
        print(f"run killed at virtual time {e.t:.6e} (--kill-at)")
        if checkpoint is not None:
            n = len(checkpoint.store)
            print(f"checkpoints taken before the kill: {n}")
            if n and checkpoint.dir is not None:
                last = checkpoint.store.latest()
                print(
                    f"resume with: --resume {checkpoint.dir}/"
                    f"{checkpoint.prefix}-epoch{last.epoch}.ckpt"
                )
        return 0
    print(f"graph: {args.dataset} |V|={g.num_vertices} |E|={g.num_edges}")
    print(f"model: {res.model} on {res.nprocs} simulated ranks")
    print(f"simulated time: {format_seconds(res.makespan)}")
    print(f"matching: {res.num_matched_edges} edges, weight {res.weight:.6g}")
    print(f"messages: {res.total_messages()}  iterations: {res.iterations}")
    print(f"peak memory: {res.counters.avg_peak_memory() / 2**20:.2f} MB/rank avg")
    agg = {k: v for k, v in res.counters.aggregation_totals().items() if v}
    if agg:
        print(f"aggregation: {agg}")
    if faults is not None:
        if res.crashed_ranks:
            print(f"crashed ranks: {','.join(map(str, res.crashed_ranks))}")
        ft = {k: v for k, v in res.fault_totals().items() if v}
        print(f"fault counters: {ft or 'none'}")
    if checkpoint is not None:
        where = f" in {checkpoint.dir}" if checkpoint.dir is not None else ""
        # Under recovery the engine replicates cuts into its own store;
        # the caller-visible one stays empty, so read the report's count.
        held = (
            res.recovery["cuts_held"] if res.recovery is not None
            else len(checkpoint.store)
        )
        print(f"checkpoints: {held} coordinated cuts{where}")
    if res.recovery is not None:
        r = res.recovery
        print(
            f"recovery: {r['recoveries']} rollbacks, "
            f"{r['spares_used']} spares used ({r['spares_left']} left), "
            f"rollback vtime {r['rollback_vtime']:.3e}, "
            f"cuts lost {r['cuts_lost']}, "
            f"mean latency {r['mean_recovery_latency']:.3e}, "
            f"replica traffic {r['replica_msgs']} msgs / "
            f"{r['replica_bytes']} bytes"
        )
    return 0


def _cmd_profile(args) -> int:
    from repro import api
    from repro.harness.spec import get_spec
    from repro.mpisim.machine import get_machine
    from repro.util.tables import format_seconds

    g = _resolve(get_spec, args.dataset).instantiate()
    pr = api.profile(
        g,
        args.nprocs,
        args.backend,
        machine=get_machine(args.machine),
        out=args.out or None,
    )
    res = pr.result
    print(f"graph: {args.dataset} |V|={g.num_vertices} |E|={g.num_edges}")
    print(f"model: {res.model} on {res.nprocs} simulated ranks")
    print(f"simulated time: {format_seconds(res.makespan)}")
    print()
    print(pr.phase_table)
    print()
    print(pr.critical_path)
    if args.out:
        print()
        print(f"wrote {len(pr.artifacts)} artifacts to {args.out}/:")
        for f in pr.artifacts:
            print(f"  {f}")
    return 0


def _cmd_chaos(args) -> int:
    from repro import api
    from repro.harness.spec import get_spec

    if args.restart and args.churn:
        raise SystemExit("--restart and --churn are separate chaos modes")
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    g = _resolve(get_spec, args.dataset).instantiate()
    mode = "restart" if args.restart else "churn" if args.churn else "faults"
    try:
        report = api.chaos(
            g,
            args.nprocs,
            backends=backends,
            plans=args.plans,
            seed=args.seed,
            mode=mode,
            max_ops=args.max_ops,
            spares=args.spares,
            replicas=args.replicas,
            mtbf=args.mtbf,
            dataset=args.dataset,
            do_shrink=not args.no_shrink,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except ValueError as e:
        raise SystemExit(str(e)) from None
    print(report.render())
    if args.csv:
        csv_text = report.to_csv()
        if args.csv == "-":
            print(csv_text, end="")
        else:
            with open(args.csv, "w") as f:
                f.write(csv_text)
            print(f"wrote {args.csv}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, serve

    service = serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            store_dir=args.store,
            workers=args.workers,
            mp_context=args.mp_context,
            linger=args.linger,
        )
    )
    print(f"matching-as-a-service on {service.url}")
    print(f"store: {args.store}  workers: {args.workers}  "
          f"code version: {service.code_version}")
    print("endpoints: POST /v1/jobs, GET /v1/jobs/<id>, GET /v1/results/<key>,")
    print("           GET /v1/artifacts/<key>/<name>, GET /v1/stats, "
          "GET /v1/healthz, POST /v1/shutdown")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        service.shutdown()
    return 0


def _cmd_submit(args) -> int:
    from repro.client import ServiceClient, ServiceError
    from repro.service.schema import (
        GraphRef,
        JobRequest,
        SchemaError,
        WireConfig,
        load_toml_file,
    )
    from repro.util.tables import format_seconds

    try:
        if args.request:
            request = JobRequest.from_dict(load_toml_file(args.request))
        else:
            if not args.dataset:
                raise SystemExit("submit needs a DATASET (or --request FILE.toml)")
            request = JobRequest(
                graph=GraphRef(args.dataset, seed=args.seed),
                nprocs=args.nprocs,
                model=args.model,
                config=WireConfig(
                    machine=args.machine,
                    profile=args.profile,
                ),
            )
            request.validate()
    except (OSError, SchemaError) as e:
        raise SystemExit(str(e)) from None

    try:
        with ServiceClient(args.url, timeout=args.timeout) as client:
            env = client.submit(request, wait=not args.no_wait)
    except ServiceError as e:
        raise SystemExit(str(e)) from None
    except OSError as e:
        raise SystemExit(f"cannot reach service at {args.url}: {e}") from None
    if args.json:
        import json as _json

        print(_json.dumps(env, indent=1, sort_keys=True))
        return 0 if env.get("state") in ("done", "queued", "running") else 1
    print(f"job {env['job_id']}: {env['state']} (cache {env['cache']})")
    print(f"key: {env['key']}")
    result = env.get("result")
    if result is None:
        print("still running; poll with: GET /v1/jobs/" + env["job_id"])
        return 0
    if result["status"] != "ok":
        print(f"error: {result['error']}")
        return 1
    rec = result["record"]
    print(f"graph: {rec['graph']}  model: {rec['model']}  p: {rec['nprocs']}")
    print(f"simulated time: {format_seconds(rec['makespan'])}")
    print(f"matching weight: {rec['weight']:.6g}  "
          f"iterations: {rec['iterations']}  messages: {rec['messages']}")
    if result["artifacts"]:
        print(f"artifacts ({len(result['artifacts'])}): "
              + ", ".join(result["artifacts"]))
        print(f"fetch: GET /v1/artifacts/{env['key']}/<name>")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="IPDPS'19 MPI graph-matching reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry").set_defaults(
        fn=_cmd_datasets
    )
    sub.add_parser("experiments", help="list experiment ids").set_defaults(
        fn=_cmd_experiments
    )

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id")
    p_run.add_argument("--full", action="store_true", help="full-size configuration")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_rep.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    p_rep.add_argument("--full", action="store_true")
    p_rep.set_defaults(fn=_cmd_report)

    p_bundle = sub.add_parser(
        "bundle", help="write all experiment artifacts (text + CSV) to a directory"
    )
    p_bundle.add_argument("dir", nargs="?", default="artifacts")
    p_bundle.add_argument("--only", default="", help="comma-separated experiment ids")
    p_bundle.add_argument("--full", action="store_true")
    p_bundle.set_defaults(fn=_cmd_bundle)

    p_match = sub.add_parser("match", help="run one matching configuration")
    p_match.add_argument("dataset")
    p_match.add_argument("-p", "--nprocs", type=int, default=16)
    p_match.add_argument(
        "-m", "--model", default="ncl",
        choices=["nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"],
    )
    p_match.add_argument("--machine", default="cori-aries")
    p_match.add_argument(
        "--config", default="", metavar="FILE.toml",
        help="run profile; fills in flags left at their defaults",
    )
    p_match.add_argument(
        "--agg-flush-bytes", type=int, default=8192,
        help="nsr-agg lane auto-flush byte threshold (0 disables)",
    )
    p_match.add_argument(
        "--agg-flush-count", type=int, default=0,
        help="nsr-agg lane auto-flush message count (0 disables)",
    )
    p_match.add_argument(
        "--drop-rate", type=float, default=0.0, help="message drop probability"
    )
    p_match.add_argument(
        "--dup-rate", type=float, default=0.0, help="message duplication probability"
    )
    p_match.add_argument(
        "--delay-rate", type=float, default=0.0, help="message extra-delay probability"
    )
    p_match.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault plan"
    )
    p_match.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="RANK:TIME",
        help="crash RANK at virtual TIME seconds (repeatable)",
    )
    p_match.add_argument(
        "--detect-latency",
        type=float,
        default=1e-5,
        help="seconds after a crash before survivors are notified",
    )
    p_match.add_argument(
        "--rma-drop-rate",
        type=float,
        default=0.0,
        help="one-sided put silent-loss probability (rma model only)",
    )
    p_match.add_argument(
        "--rma-corrupt-rate",
        type=float,
        default=0.0,
        help="one-sided put bit-flip probability (rma model only)",
    )
    p_match.add_argument(
        "--degrade",
        action="append",
        default=[],
        metavar="RANK:T0:T1:FACTOR",
        help="slow RANK's NIC by FACTOR during [T0, T1) (repeatable)",
    )
    p_match.add_argument(
        "--max-ops",
        type=int,
        default=None,
        help="abort the simulation after this many scheduler operations",
    )
    p_match.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="T0:T1:G0|G1",
        help="network partition over virtual [T0, T1): rank groups like "
        "0,1|2,3 cannot reach each other until the heal (repeatable)",
    )
    p_match.add_argument(
        "--churn-mtbf",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="stream Poisson crash churn through the run: per-rank mean "
        "time between failures in virtual seconds (needs --churn-horizon "
        "and --spares; seeded by --fault-seed)",
    )
    p_match.add_argument(
        "--churn-horizon",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="virtual time past which no more churn events fire",
    )
    p_match.add_argument(
        "--spares",
        type=int,
        default=0,
        help="warm-standby rank budget: > 0 turns on automatic "
        "rollback-recovery (each healed crash consumes one spare; needs "
        "--checkpoint-interval, defaulted to mtbf/8 for churn runs)",
    )
    p_match.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="buddy-replication degree k for the diskless replicated "
        "checkpoint store (used with --spares)",
    )
    p_match.add_argument(
        "--checkpoint-interval",
        type=float,
        default=0.0,
        help="take coordinated checkpoints every this many virtual seconds",
    )
    p_match.add_argument(
        "--checkpoint-dir",
        default="",
        help="also persist each checkpoint as a .ckpt file here",
    )
    p_match.add_argument(
        "--kill-at",
        type=float,
        default=None,
        help="kill the run at this virtual time (restart testing)",
    )
    p_match.add_argument(
        "--resume",
        default="",
        metavar="FILE.ckpt",
        help="resume from a saved checkpoint instead of starting fresh "
        "(pass the same dataset/-p/-m/fault flags as the original run)",
    )
    p_match.set_defaults(fn=_cmd_match, _parser=p_match)

    p_prof = sub.add_parser(
        "profile", help="span-profiled run: phase breakdown, critical path, trace"
    )
    p_prof.add_argument("dataset", nargs="?", default="rgg-8k")
    p_prof.add_argument("-p", "--nprocs", type=int, default=8)
    p_prof.add_argument(
        "-b", "--backend", default="ncl",
        choices=["nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"],
    )
    p_prof.add_argument("--machine", default="cori-aries")
    p_prof.add_argument(
        "--config", default="", metavar="FILE.toml",
        help="run profile; fills in flags left at their defaults",
    )
    p_prof.add_argument(
        "--out", default="", help="directory for the artifact bundle "
        "(Chrome trace JSON, phase CSVs, comm matrices, critical path)"
    )
    p_prof.set_defaults(fn=_cmd_profile, _parser=p_prof)

    p_chaos = sub.add_parser(
        "chaos", help="sample seeded fault plans, verify, shrink failures"
    )
    p_chaos.add_argument("dataset", nargs="?", default="rgg-8k")
    p_chaos.add_argument("-p", "--nprocs", type=int, default=8)
    p_chaos.add_argument("--plans", type=int, default=30, help="fault plans to sample")
    p_chaos.add_argument("--seed", type=int, default=1, help="sampling seed")
    p_chaos.add_argument(
        "--backends",
        default="nsr,rma,ncl",
        help="comma-separated backends to round-robin over",
    )
    p_chaos.add_argument(
        "--max-ops",
        type=int,
        default=2_000_000,
        help="per-run scheduler-op budget (classified as a hang when exceeded)",
    )
    p_chaos.add_argument(
        "--no-shrink", action="store_true", help="report failures without shrinking"
    )
    p_chaos.add_argument(
        "--restart",
        action="store_true",
        help="checkpoint/restart mode: kill each run at sampled points, "
        "resume from the latest checkpoint, and require bit-identical "
        "completion (reports rollback/retry/spurious-detection costs)",
    )
    p_chaos.add_argument(
        "--churn",
        action="store_true",
        help="crash-churn mode: stream Poisson crashes through whole runs "
        "under automatic rollback-recovery; surviving runs must match the "
        "fault-free mate/weight bit-identically, given-up runs must fail "
        "deterministically with a classified report (reports spares used, "
        "cuts lost to buddy death, mean recovery latency)",
    )
    p_chaos.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="FACTOR",
        help="churn mode: pin the per-rank MTBF to FACTOR x the backend's "
        "fault-free makespan instead of sampling the factor from [0.6, 3)",
    )
    p_chaos.add_argument(
        "--spares",
        type=int,
        default=16,
        help="churn mode: warm-standby rank budget per run",
    )
    p_chaos.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="churn mode: buddy-replication degree for checkpoint slices",
    )
    p_chaos.add_argument(
        "--csv",
        default="",
        metavar="FILE",
        help="also write the per-plan verdicts + recovery-cost columns "
        "as CSV ('-' for stdout)",
    )
    p_chaos.add_argument(
        "--config", default="", metavar="FILE.toml",
        help="run profile; fills in flags left at their defaults",
    )
    p_chaos.set_defaults(fn=_cmd_chaos, _parser=p_chaos)

    p_serve = sub.add_parser(
        "serve", help="run the matching-as-a-service job server (docs/service.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8123, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--store", default="service-store",
        help="content-addressed result/artifact store directory",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (0 = run jobs inline, single-process)",
    )
    p_serve.add_argument(
        "--mp-context", default="spawn", choices=["spawn", "fork"],
        help="multiprocessing start method for the worker pool",
    )
    p_serve.add_argument(
        "--linger", type=float, default=0.05,
        help="seconds to collect overlapping requests into one batch",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running `repro serve` instance"
    )
    p_submit.add_argument("dataset", nargs="?", default="")
    p_submit.add_argument("-p", "--nprocs", type=int, default=16)
    p_submit.add_argument(
        "-m", "--model", default="ncl",
        choices=["nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"],
    )
    p_submit.add_argument("--machine", default="cori-aries")
    p_submit.add_argument("--seed", type=int, default=None,
                          help="graph generator seed (default: registry seed)")
    p_submit.add_argument(
        "--profile", action="store_true",
        help="span-profiled run; artifacts land in the service store",
    )
    p_submit.add_argument(
        "--request", default="", metavar="FILE.toml",
        help="submit this TOML JobRequest instead of building one from flags",
    )
    p_submit.add_argument("--url", default="http://127.0.0.1:8123")
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting for the result",
    )
    p_submit.add_argument("--timeout", type=float, default=630.0)
    p_submit.add_argument(
        "--json", action="store_true", help="print the raw response envelope"
    )
    p_submit.set_defaults(fn=_cmd_submit)

    args = parser.parse_args(argv)
    if getattr(args, "config", ""):
        _apply_config_file(args, args._parser)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro datasets | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
