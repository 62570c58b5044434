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

Every command's flags are built from the knob table in
:mod:`repro.knobs`. ``match`` / ``profile`` / ``chaos`` accept
``--config FILE.toml``: a named run profile whose values replace the
table defaults, while a flag typed on the command line always wins. See
``examples/profiles/`` and docs/api.md.

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


def _fail(message: str):
    """End the command with one stderr line and argparse's exit status 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _config_values(args) -> dict:
    """The knob values the ``--config FILE.toml`` profile sets for
    ``args.command``: top-level keys, then its ``[command]`` table.

    A top-level key naming another command's knob is skipped; a key that
    names no knob of the command, or a bad value, ends the command.
    """
    from repro.knobs import NAMES, knobs

    data = _load_toml(args.config)
    section = data.get(args.command, {})
    if not isinstance(section, dict):
        raise SystemExit(f"[{args.command}] in {args.config} must be a table")
    own = knobs(args.command)
    values = {}
    for top, table in ((True, data), (False, section)):
        for key, value in table.items():
            name = key.replace("-", "_")
            if top and (isinstance(value, dict) or name in NAMES - own.keys()):
                continue  # a [command] table, or another command's knob
            where = f"{args.config}: {key} = {value!r}"
            if name not in own or name == "config":
                _fail(f"{where}: unknown key for command {args.command!r}")
            try:
                values[name] = own[name].check(value)
            except ValueError as e:
                _fail(f"{where}: {e}")
    return values


def _check_knobs(args) -> None:
    """Hold every knob value of ``args`` to its row of the table."""
    from repro.knobs import knobs

    for knob in knobs(args.command).values():
        try:
            knob.check(getattr(args, knob.name))
        except ValueError as e:
            flag = "/".join(knob.flags) or knob.name
            _fail(f"{args._parser.prog}: error: argument {flag}: {e}")


def _specs(args, name: str, build) -> list:
    """``build(*fields)`` for each item of the repeatable knob ``name``,
    split into the colon-separated fields its metavar shows."""
    from repro.knobs import knobs

    knob = knobs("match")[name]
    out = []
    for spec in getattr(args, name):
        try:
            out.append(build(*spec.split(":", knob.metavar.count(":"))))
        except (TypeError, ValueError):  # a field missing or malformed
            raise SystemExit(
                f"bad {knob.flags[0]} spec {spec!r}; expected {knob.metavar}"
            ) from None
    return out


def _match_config(args):
    """The :class:`~repro.matching.config.RunConfig` ``repro match`` runs
    for its parsed ``args``."""
    from dataclasses import fields

    from repro.knobs import knobs, run_config
    from repro.mpisim.checkpoint import CheckpointConfig, load_checkpoint
    from repro.mpisim.faults import (
        ChurnPlan,
        FaultPlan,
        NicDegradation,
        PartitionWindow,
    )

    crashes = dict(_specs(args, "crash", lambda r, t: (int(r), float(t))))
    degradations = _specs(args, "degrade", lambda r, t0, t1, factor: NicDegradation(
        int(r), float(t0), float(t1), float(factor)))
    # groups are comma-separated rank lists: 1e-4:3e-4:0,1|2,3
    partitions = _specs(args, "partition", lambda t0, t1, groups: PartitionWindow(
        float(t0), float(t1),
        tuple(tuple(map(int, grp.split(","))) for grp in groups.split("|"))))
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
    interval = args.checkpoint_interval
    if args.spares and not interval:
        if churn_plan is not None:
            # A hand-typed churn line may carry no interval; default to a
            # cadence dense enough to outpace the requested MTBF.
            interval = args.churn_mtbf / 8.0
        else:
            raise SystemExit(
                "--spares turns on rollback-recovery, which needs "
                "coordinated cuts to roll back to: pass --checkpoint-interval"
            )
    bad = [r for r in crashes if not 0 <= r < args.nprocs]
    if bad:
        raise SystemExit(f"--crash ranks {bad} outside 0..{args.nprocs - 1}")
    try:
        faults = FaultPlan(
            seed=args.fault_seed, crashes=crashes, churn_plan=churn_plan,
            degradations=tuple(degradations), partitions=tuple(partitions),
            # the rates and detect_latency: knobs named as the plan's fields
            **{f.name: getattr(args, f.name) for f in fields(FaultPlan)
               if f.name in knobs("match")},
        )
    except ValueError as e:
        raise SystemExit(str(e)) from None

    checkpoint = None
    if interval:
        checkpoint = CheckpointConfig(interval, dir=args.checkpoint_dir or None)
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
    return run_config(
        vars(args), faults=None if faults.is_null() else faults,
        checkpoint=checkpoint,
        kill_at=args.kill_at, restore=restore,
        spares=args.spares, replicas=args.replicas,
    )


def _cmd_match(args) -> int:
    from repro.harness.spec import get_spec
    from repro.matching import run_matching
    from repro.mpisim.errors import RecoveryFailed, SimKilled
    from repro.util.tables import format_seconds

    config = _match_config(args)
    faults, checkpoint, restore = config.faults, config.checkpoint, config.restore
    if restore is not None:
        print(
            f"resuming from {args.resume} "
            f"(epoch {restore.epoch}, vtime {restore.vtime:.6e})"
        )
    g = _resolve(get_spec, args.dataset).instantiate()
    try:
        res = run_matching(g, nprocs=args.nprocs, model=args.model, config=config)
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
                    f"checkpoint-epoch{last.epoch}.ckpt"
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
    from repro.knobs import run_config
    from repro.util.tables import format_seconds

    g = _resolve(get_spec, args.dataset).instantiate()
    pr = api.profile(
        g, args.nprocs, args.model, config=run_config(vars(args)),
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
            g, args.nprocs, backends=backends, mode=mode,
            do_shrink=not args.no_shrink,
            progress=lambda line: print(line, file=sys.stderr),
            # the knobs api.chaos takes under their own names
            **{name: getattr(args, name) for name in (
                "plans", "seed", "max_ops", "spares", "replicas", "mtbf", "dataset")},
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


def _submit_request(args):
    """The :class:`~repro.service.schema.JobRequest` ``repro submit`` sends."""
    from repro.knobs import WIRE, knobs
    from repro.service.schema import (
        GraphRef,
        JobRequest,
        SchemaError,
        WireConfig,
        load_toml_file,
    )

    if not args.request:
        if not args.dataset:
            raise SystemExit("submit needs a DATASET (or --request FILE.toml)")
        return JobRequest(
            graph=GraphRef(args.dataset, seed=args.seed),
            nprocs=args.nprocs,
            model=args.model,
            config=WireConfig(**{k: v for k, v in vars(args).items()
                                 if k in knobs(WIRE)}),
        )
    try:
        return JobRequest.from_dict(load_toml_file(args.request))
    except (OSError, SchemaError) as e:
        raise SystemExit(str(e)) from None


def _cmd_submit(args) -> int:
    from repro.client import ServiceClient, ServiceError
    from repro.util.tables import format_seconds

    request = _submit_request(args)
    try:
        client = ServiceClient(args.url, timeout=args.timeout)
    except ValueError as e:  # not an http:// URL
        raise SystemExit(str(e)) from None
    try:
        with client:
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


def _add_knobs(parser, command: str, fn) -> None:
    """Give ``parser`` one argument per knob ``command`` takes."""
    from repro.knobs import knobs

    for knob in knobs(command).values():
        default = knob.defaults[command]
        kw = {"default": default, "help": knob.help}
        if not knob.flags:  # the dataset, required where it has no default
            parser.add_argument(knob.name, nargs=None if default is None else "?", **kw)
            continue
        if knob.kind is bool:
            kw["action"] = "store_true"
        elif knob.repeat:
            kw.update(action="append", metavar=knob.metavar)
        else:
            # Choices known only on first use (the machine presets) are
            # checked after parsing: building a parser imports no simulator.
            kw.update(type=None if knob.kind is str else knob.kind,
                      metavar=knob.metavar,
                      choices=knob.choices if isinstance(knob.choices, tuple) else None)
        parser.add_argument(*knob.flags, dest=knob.name, **kw)
    parser.set_defaults(fn=fn, _parser=parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IPDPS'19 MPI graph-matching reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn, help_ in (
        ("datasets", _cmd_datasets, "list the dataset registry"),
        ("experiments", _cmd_experiments, "list experiment ids"),
        ("run", _cmd_run, "run one experiment"),
        ("report", _cmd_report, "regenerate EXPERIMENTS.md"),
        ("bundle", _cmd_bundle,
         "write all experiment artifacts (text + CSV) to a directory"),
        ("match", _cmd_match, "run one matching configuration"),
        ("profile", _cmd_profile,
         "span-profiled run: phase breakdown, critical path, trace"),
        ("chaos", _cmd_chaos, "sample seeded fault plans, verify, shrink failures"),
        ("serve", _cmd_serve,
         "run the matching-as-a-service job server (docs/service.md)"),
        ("submit", _cmd_submit,
         "submit one job to a running `repro serve` instance"),
    ):
        _add_knobs(sub.add_parser(command, help=help_), command, fn)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line: each knob takes its table default, then its
    ``--config`` profile value, then its typed flag, and is then checked."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", ""):
        args._parser.set_defaults(**_config_values(args))
        args = parser.parse_args(argv)
    _check_knobs(args)
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro datasets | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
