"""Chaos harness: deterministic sampling, failure classification, and
plan shrinking (validated against an intentionally buggy toy runner)."""

import pytest

from repro.harness.chaos import (
    matching_runner,
    plan_size,
    render_cli,
    restart_matching_runner,
    run_chaos,
    sample_plan,
    shrink_plan,
)
from repro.matching import RunConfig
from repro.mpisim.faults import FaultPlan, NicDegradation, PartitionWindow


class TestSampling:
    def test_same_seed_same_plans(self):
        a = [sample_plan(5, i, 8, "nsr", 1e-3) for i in range(10)]
        b = [sample_plan(5, i, 8, "nsr", 1e-3) for i in range(10)]
        assert a == b

    def test_different_seed_differs(self):
        a = [sample_plan(5, i, 8, "nsr", 1e-3) for i in range(10)]
        b = [sample_plan(6, i, 8, "nsr", 1e-3) for i in range(10)]
        assert a != b

    def test_backend_gating(self):
        for i in range(30):
            ncl = sample_plan(5, i, 8, "ncl", 1e-3)
            assert not ncl.has_message_faults() and not ncl.has_rma_faults()
            nsr = sample_plan(5, i, 8, "nsr", 1e-3)
            assert not nsr.has_rma_faults()
            rma = sample_plan(5, i, 8, "rma", 1e-3)
            assert not rma.has_message_faults()

    def test_crash_times_scale_with_makespan(self):
        for i in range(30):
            p = sample_plan(5, i, 8, "ncl", 2e-4)
            for t in p.crashes.values():
                assert 0 < t < 2e-4

    def test_plans_are_valid(self):
        # FaultPlan.__post_init__ validates; sampling must never trip it.
        for i in range(50):
            sample_plan(11, i, 6, "rma", 1e-3)
            sample_plan(11, i, 6, "nsr-agg", 1e-3)

    def test_partitions_only_on_sendrecv_backends(self):
        # Only nsr/nsr-agg carry a transport that masks a healed cut.
        seen = 0
        for i in range(40):
            assert not sample_plan(5, i, 8, "ncl", 1e-3).has_partitions()
            assert not sample_plan(5, i, 8, "rma", 1e-3).has_partitions()
            p = sample_plan(5, i, 8, "nsr", 1e-3)
            seen += p.has_partitions()
            for w in p.partitions:
                assert 0 < w.t_start < w.t_end < 1e-3
        assert seen > 0, "seeded space should include partition plans"


class TestShrinking:
    def _hang_if_rank2_dies(self, backend, plan):
        """Toy buggy program: hangs whenever rank 2 is in the crash set."""
        if 2 in plan.crashes:
            return "hang", "stuck in barrier"
        return "ok", ""

    def test_shrinks_to_minimal_crash(self):
        plan = FaultPlan(
            seed=1,
            drop_rate=0.031,
            delay_rate=0.12,
            crashes={0: 1e-4, 2: 2e-4, 3: 3e-4},
            degradations=(NicDegradation(rank=1, t_start=0.0,
                                         t_end=1e-4, factor=2.0),),
        )
        status, _ = self._hang_if_rank2_dies("nsr", plan)
        assert status == "hang"
        shrunk, attempts = shrink_plan(
            self._hang_if_rank2_dies, "nsr", plan, "hang"
        )
        # Minimal repro: exactly the crash that triggers the bug, with
        # every irrelevant fault source removed.
        assert set(shrunk.crashes) == {2}
        assert shrunk.drop_rate == 0.0 and shrunk.delay_rate == 0.0
        assert shrunk.degradations == ()
        assert plan_size(shrunk) < plan_size(plan)
        assert attempts > 0

    def test_shrink_preserves_failure_class(self):
        def classify(backend, plan):
            if 2 in plan.crashes and 3 in plan.crashes:
                return "invalid", "needs both"
            if 2 in plan.crashes:
                return "hang", "different failure"
            return "ok", ""

        plan = FaultPlan(seed=1, crashes={1: 1e-4, 2: 2e-4, 3: 3e-4})
        shrunk, _ = shrink_plan(classify, "ncl", plan, "invalid")
        # Dropping rank 3 flips the class to "hang" — must be rejected.
        assert set(shrunk.crashes) == {2, 3}

    def test_unshrinkable_plan_is_fixpoint(self):
        plan = FaultPlan(seed=1, crashes={2: 1e-4})
        shrunk, _ = shrink_plan(self._hang_if_rank2_dies, "nsr", plan, "hang")
        assert shrunk == plan

    def test_rate_only_failure_shrinks_rates(self):
        def flaky(backend, plan):
            return ("crash", "boom") if plan.drop_rate > 0.01 else ("ok", "")

        plan = FaultPlan(seed=1, drop_rate=0.08, dup_rate=0.04, delay_rate=0.1)
        shrunk, _ = shrink_plan(flaky, "nsr", plan, "crash")
        assert shrunk.dup_rate == 0.0 and shrunk.delay_rate == 0.0
        assert 0.01 < shrunk.drop_rate <= 0.02  # halved to just above threshold

    def test_size_order_is_strict_on_all_moves(self):
        plan = FaultPlan(
            seed=1, drop_rate=0.1, crashes={1: 1e-4, 2: 2e-4},
            degradations=(NicDegradation(rank=0, t_start=0.0,
                                         t_end=1e-4, factor=3.0),),
            partitions=(PartitionWindow(t_start=1e-5, t_end=9e-5,
                                        groups=((0, 1), (2, 3))),),
        )
        from repro.harness.chaos import _shrink_candidates

        for cand in _shrink_candidates(plan):
            assert plan_size(cand) < plan_size(plan)

    def test_partition_failure_shrinks_to_minimal_cut(self):
        def classify(backend, plan):
            # Toy bug: trips whenever some window separates ranks 0 and 1.
            for w in plan.partitions:
                if w.separates(0, 1):
                    return "hang", "0-1 cut"
            return "ok", ""

        plan = FaultPlan(
            seed=1, drop_rate=0.06, crashes={3: 2e-4},
            partitions=(
                PartitionWindow(t_start=1e-5, t_end=4e-4,
                                groups=((0, 2), (1, 3))),
                PartitionWindow(t_start=5e-4, t_end=6e-4,
                                groups=((2,), (3,))),
            ),
        )
        shrunk, _ = shrink_plan(classify, "nsr", plan, "hang")
        # Everything irrelevant to the 0-1 cut is gone: the second
        # window, the crash, the rates, and the extra group members.
        assert len(shrunk.partitions) == 1
        (w,) = shrunk.partitions
        assert w.groups == ((0,), (1,))
        assert w.separates(0, 1)
        assert shrunk.crashes == {}
        assert shrunk.drop_rate == 0.0
        assert plan_size(shrunk) < plan_size(plan)


class TestRunChaos:
    def _toy(self, backend, plan):
        if 2 in plan.crashes:
            return "hang", "toy bug"
        return "ok", ""

    def test_report_deterministic(self):
        a = run_chaos(self._toy, seed=9, plans=12, nprocs=6, dataset="x")
        b = run_chaos(self._toy, seed=9, plans=12, nprocs=6, dataset="x")
        assert a.render() == b.render()

    def test_failures_shrunk_and_rendered(self):
        rep = run_chaos(self._toy, seed=9, plans=20, nprocs=6, dataset="toy")
        assert rep.failures, "seeded space should include a rank-2 crash"
        for o in rep.failures:
            assert o.status == "hang"
            target = o.shrunk if o.shrunk is not None else o.plan
            assert 2 in target.crashes
            line = render_cli("toy", 6, o.backend, RunConfig(faults=target))
            assert line.startswith("python -m repro match toy")
            assert "--crash 2:" in line
        # Round-trips through the actual CLI parser.
        text = rep.render()
        assert "shrunk to" in text or "plan:" in text

    def test_no_shrink_flag(self):
        rep = run_chaos(
            self._toy, seed=9, plans=20, nprocs=6, dataset="x", do_shrink=False
        )
        assert all(o.shrunk is None for o in rep.outcomes)


def _rerun(line: str):
    """The fault plan `repro match`'s own parser reads from ``line``."""
    from repro.__main__ import _match_config, parse_args

    return _match_config(parse_args(line.split()[3:])).faults


class TestRenderCli:
    def test_cli_line_parses_back_to_same_plan(self):
        plan = FaultPlan(
            seed=77, drop_rate=0.05, crashes={1: 1.25e-4, 3: 3e-4},
            detect_latency=2e-6,
            degradations=(NicDegradation(rank=2, t_start=1e-5,
                                         t_end=9e-5, factor=2.5),),
        )
        line = render_cli("rgg-8k", 8, "nsr", RunConfig(faults=plan))
        assert _rerun(line) == plan
        assert f"--fault-seed {plan.seed}" in line
        assert "--drop-rate 0.05" in line

    def test_partition_flag_round_trips(self):
        plan = FaultPlan(
            seed=3,
            partitions=(PartitionWindow(t_start=2e-4, t_end=4.5e-4,
                                        groups=((0, 1), (2, 3))),),
        )
        line = render_cli("rmat-s10", 4, "nsr-agg", RunConfig(faults=plan))
        assert _rerun(line).partitions == plan.partitions


class TestMatchingRunner:
    def test_ok_and_hang_classification(self):
        from repro.graph.generators import rgg_graph

        g = rgg_graph(256, target_avg_degree=6.0, seed=1)
        runner = matching_runner(g, 2, max_ops=2_000_000)
        status, _ = runner("ncl", FaultPlan(seed=1))
        assert status == "ok"
        # A two-op budget cannot finish: classified as a hang.
        tight = matching_runner(g, 2, max_ops=2)
        status, detail = tight("ncl", FaultPlan(seed=1, crashes={1: 1.0}))
        assert status == "hang"
        assert detail


class TestRestartRunner:
    def test_kill_resume_cycles_report_recovery_costs(self):
        from repro.graph.generators import rmat_graph
        from repro.matching import run_matching

        g = rmat_graph(6, seed=2)
        t_scales = {
            m: run_matching(g, 2, m).makespan for m in ("ncl", "nsr-agg")
        }
        runner = restart_matching_runner(g, 2, t_scales)

        status, detail, recovery = runner("ncl", FaultPlan(seed=4))
        assert (status, detail) == ("ok", "")
        assert recovery["kills"] > 0
        assert recovery["rollback_vtime"] > 0.0
        assert recovery["spurious_detections"] == 0

        # A lossy plan on the aggregated transport still restarts
        # bit-identically, with the transport's retries surfaced.
        status, _, recovery = runner(
            "nsr-agg", FaultPlan(seed=5, drop_rate=0.05)
        )
        assert status == "ok"
        assert recovery["retries"] > 0
        assert recovery["spurious_detections"] == 0


class TestChurnSampling:
    def test_churn_plans_deterministic(self):
        a = [sample_plan(5, i, 8, "nsr", 1e-3, churn=True) for i in range(8)]
        b = [sample_plan(5, i, 8, "nsr", 1e-3, churn=True) for i in range(8)]
        assert a == b

    def test_churn_plans_are_pure_churn(self):
        for i in range(20):
            p = sample_plan(5, i, 8, "nsr", 1e-3, churn=True)
            cp = p.churn_plan
            assert cp is not None
            assert p.has_churn() and not p.has_crashes()
            assert not p.has_message_faults() and not p.has_partitions()
            assert not p.has_degradations()
            # MTBF anchored to the backend's fault-free makespan.
            assert 0.6e-3 <= cp.mtbf < 3.0e-3
            assert cp.horizon == 4.0e-3
            assert cp.seed == p.seed  # --fault-seed reproduces the stream

    def test_mtbf_override_pins_the_multiplier(self):
        for i in range(8):
            p = sample_plan(5, i, 8, "ncl", 2e-4, churn=True, churn_mtbf=1.5)
            assert p.churn_plan.mtbf == 1.5 * 2e-4
            # Event times still vary with the per-plan seed.
        seeds = {
            sample_plan(5, i, 8, "ncl", 2e-4, churn=True, churn_mtbf=1.5).seed
            for i in range(8)
        }
        assert len(seeds) > 1


class TestChurnShrinking:
    def test_churn_moves_shrink_strictly(self):
        from repro.harness.chaos import _shrink_candidates

        plan = FaultPlan.churn(mtbf=1e-4, horizon=1e-3, seed=3)
        cands = list(_shrink_candidates(plan))
        assert any(c.churn_plan is None for c in cands)
        assert any(
            c.churn_plan is not None and c.churn_plan.mtbf == 2e-4
            for c in cands
        )
        assert any(
            c.churn_plan is not None and c.churn_plan.horizon == 5e-4
            for c in cands
        )
        for c in cands:
            assert plan_size(c) < plan_size(plan)

    def test_churn_failure_shrinks_to_thinned_stream(self):
        def classify(backend, plan):
            cp = plan.churn_plan
            if cp is not None and cp.horizon / cp.mtbf > 4.0:
                return "hang", "too much churn"
            return "ok", ""

        plan = FaultPlan.churn(mtbf=1e-4, horizon=3.2e-3, seed=3)
        shrunk, _ = shrink_plan(classify, "nsr", plan, "hang")
        cp = shrunk.churn_plan
        assert cp is not None
        assert 4.0 < cp.horizon / cp.mtbf <= 8.0  # just above the threshold
        assert plan_size(shrunk) < plan_size(plan)


class TestUnrecoverableVerdict:
    def _toy(self, backend, plan):
        rec = {
            "kills": 1, "rollback_vtime": 2e-4, "spares_used": 1,
            "cuts_lost": 0, "mean_recovery_latency": 3e-5,
            "spurious_detections": 0,
        }
        cp = plan.churn_plan
        if cp is not None and cp.mtbf < 1.2e-3:
            return "unrecoverable", "no-cut-taken", rec
        return "ok", "", rec

    def test_accepted_not_failed_not_shrunk(self):
        rep = run_chaos(
            self._toy, seed=9, plans=12, nprocs=6, dataset="toy", churn=True
        )
        unrec = [o for o in rep.outcomes if o.status == "unrecoverable"]
        assert unrec, "seeded space should include a fast-churn plan"
        assert rep.failures == []  # unrecoverable + ok are both accepted
        for o in unrec:
            assert o.shrunk is None and o.shrink_attempts == 0
            assert o.detail == "no-cut-taken"

    def test_render_counts_unrecoverable_separately(self):
        rep = run_chaos(
            self._toy, seed=9, plans=12, nprocs=6, dataset="toy", churn=True
        )
        text = rep.render()
        n = sum(1 for o in rep.outcomes if o.status == "unrecoverable")
        assert f"{n} unrecoverable, 0 failing" in text
        assert "churn=(mtbf=" in text
        assert "spares=1 cuts_lost=0" in text
        assert "spurious=0" in text


class TestCsvExport:
    def _toy(self, backend, plan):
        rec = {
            "kills": 2, "rollback_vtime": 1.5e-4, "spares_used": 2,
            "cuts_lost": 1, "mean_recovery_latency": 2.5e-5,
            "spurious_detections": 0,
        }
        return "ok", "", rec

    def test_csv_round_trips(self):
        import csv as csvmod
        import io as iomod

        from repro.harness.chaos import ChaosReport

        rep = run_chaos(
            self._toy, seed=9, plans=6, nprocs=4, dataset="toy", churn=True,
            churn_mtbf=1.0,
        )
        text = rep.to_csv()
        rows = list(csvmod.reader(iomod.StringIO(text)))
        assert tuple(rows[0]) == ChaosReport.CSV_FIELDS
        assert len(rows) == 1 + len(rep.outcomes)
        by_name = [dict(zip(rows[0], r)) for r in rows[1:]]
        for row, o in zip(by_name, rep.outcomes):
            assert int(row["index"]) == o.index
            assert row["backend"] == o.backend
            assert row["status"] == o.status
            cp = o.plan.churn_plan
            assert float(row["churn_mtbf"]) == pytest.approx(cp.mtbf)
            assert float(row["churn_horizon"]) == pytest.approx(cp.horizon)
            assert int(row["spares_used"]) == 2
            assert int(row["cuts_lost"]) == 1
            assert float(row["mean_recovery_latency"]) == 2.5e-5
            assert int(row["spurious_detections"]) == 0
            # Restart-only columns stay blank in churn mode.
            assert row["from_scratch"] == "" and row["retries"] == ""

    def test_plain_mode_leaves_recovery_columns_blank(self):
        rep = run_chaos(
            lambda b, p: ("ok", ""), seed=9, plans=4, nprocs=4, dataset="toy"
        )
        import csv as csvmod
        import io as iomod

        rows = list(csvmod.reader(iomod.StringIO(rep.to_csv())))
        for row in rows[1:]:
            named = dict(zip(rows[0], row))
            for key in ("kills", "spares_used", "from_scratch",
                        "spurious_detections"):
                assert named[key] == ""


class TestRenderCliChurn:
    def test_churn_flags_rendered(self):
        plan = FaultPlan.churn(
            mtbf=2.5e-4, horizon=1e-3, seed=41, detect_latency=3e-6
        )
        line = render_cli("rgg-8k", 8, "nsr", RunConfig(faults=plan))
        assert "--churn-mtbf 0.00025" in line
        assert "--churn-horizon 0.001" in line
        assert "--detect-latency 3e-06" in line
        assert "--fault-seed 41" in line
        # the recovery settings come from the config, never a fixed guess
        assert "--spares" not in line and "--replicas" not in line
        line = render_cli("rgg-8k", 8, "nsr",
                          RunConfig(faults=plan, spares=8, replicas=1))
        assert "--spares 8 --replicas 1" in line

    def test_line_parses_back_to_the_run_config_of_the_runner(self):
        """A churn repro line rerun through `repro match`'s own parser
        gives the RunConfig the runner ran: spares, replicas, checkpoint
        interval, max_ops and the plan's floats to the last bit."""
        from dataclasses import replace

        from repro.__main__ import _match_config, parse_args
        from repro.graph.generators import rmat_graph
        from repro.harness.chaos import churn_matching_runner
        from repro.matching import MatchingOptions
        from repro.mpisim.machine import cori_aries

        g = rmat_graph(6, seed=2)
        runner = churn_matching_runner(g, 2, {"ncl": 1.2345678901234e-4},
                                       max_ops=777_777, spares=8, replicas=1)
        plan = FaultPlan.churn(mtbf=3.141592653589793e-4, horizon=1.1e-3,
                               seed=5, detect_latency=2.718281828e-6)
        ran = runner.config("ncl", plan)
        line = render_cli("rmat-s10", 2, "ncl", ran)
        args = parse_args(line.split()[3:])
        got = _match_config(args)
        assert (args.nprocs, args.model) == (2, "ncl")
        assert got.checkpoint.interval == ran.checkpoint.interval
        # the runner leaves machine and options at their defaults, which
        # the CLI spells out
        assert got.machine == cori_aries() and got.options == MatchingOptions()
        assert replace(got, checkpoint=None, machine=None, options=None) == \
            replace(ran, checkpoint=None)
        assert (got.spares, got.replicas, got.max_ops) == (8, 1, 777_777)


class TestChurnMatchingRunner:
    def test_classification_paths(self):
        from repro.graph.generators import rmat_graph
        from repro.harness.chaos import churn_matching_runner
        from repro.matching import run_matching

        g = rmat_graph(6, seed=2)
        t_scales = {"ncl": run_matching(g, 2, "ncl").makespan}
        runner = churn_matching_runner(g, 2, t_scales, spares=8, replicas=1)

        # Null plan: completes clean, zero recovery costs.
        status, detail, rec = runner("ncl", FaultPlan(seed=1))
        assert (status, detail) == ("ok", "")
        assert rec["kills"] == 0 and rec["spares_used"] == 0
        assert rec["spurious_detections"] == 0

        # An absurdly fast churn stream beats the first cut: recovery
        # gives up the same way twice -> accepted unrecoverable verdict.
        ts = t_scales["ncl"]
        fast = FaultPlan.churn(mtbf=ts / 200.0, horizon=ts, seed=1)
        status, detail, rec = runner("ncl", fast)
        assert status == "unrecoverable"
        assert detail in ("no-cut-taken", "no-complete-cut",
                          "spares-exhausted")


class TestChaosBackends:
    def test_backends_are_the_crash_surviving_ones(self):
        """``api.chaos`` takes its backend list from the driver: every
        sampled plan may crash a rank, so it accepts exactly the backends
        that survive one (incl among them) and refuses mbp up front."""
        from repro.api import chaos
        from repro.graph.generators import rmat_graph
        from repro.matching.driver import CRASH_SURVIVING_BACKENDS

        g = rmat_graph(6, seed=2)
        with pytest.raises(ValueError, match="got 'mbp'") as exc:
            chaos(g, 4, backends=("mbp",), plans=1)
        assert "/".join(CRASH_SURVIVING_BACKENDS) in str(exc.value)
        rep = chaos(g, 4, backends=("incl",), plans=4, seed=1,
                    do_shrink=False)
        assert len(rep.outcomes) == 4
        assert any(o.plan.crashes for o in rep.outcomes)
        assert rep.failures == []
