"""Workload ``batch``: an ``ml-train`` job sweep through the batch control
plane with one forked worker.

Each round submits a sweep of jobs (every tenth one with faults armed and
recovery on) with ``submit_batch`` and runs it with ``batch_execute`` and a
single worker process; the chaos hook SIGKILLs the busy worker after every
``KILL_EVERY`` results, so killed jobs are re-queued and replay-verified.
Every job builds a fresh marketplace, so key generation, market building,
the jobs journal and the per-boundary checkpoint digests dominate, and each
job's chain stays tiny.

Checks, computed apart from the sweep: a seeded sample of jobs that
includes every fault-armed and every re-queued job is replayed bare in this
process; each replay's result digest must equal the sweep's, settled jobs
must pay out exactly the reward pool and failed jobs refund all of it.  A
job that ends ``failed`` with a full refund is a correct outcome; a job
that ends ``error``, is lost, or disagrees with its replay is a failed
operation.

Chain figures for the sweep come from the span sidecars the program writes
for every job (``chain.mine_block`` spans); view times come from reading
the replayed jobs' workload contracts.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Optional

import numpy as np

from perfbench.common import (
    CONTRACT_VIEWS,
    OUT_DIR,
    HostPace,
    Outcome,
    clock,
    peak_rss_mb,
    run_rounds,
    traced,
)
from perfbench.stats import median
from perfbench.tracing import LayerTracer
from repro import telemetry
from repro.control import (
    BoundaryRecorder,
    JobContext,
    JobsDB,
    JobSpec,
    batch_execute,
    build_ml_market,
    result_digest_of,
    run_job,
    submit_batch,
)
from repro.control import batch as batch_module
from repro.core import FaultPlan, run_with_faults

JOBS_PER_ROUND = 20
KILL_EVERY = 10
FAULT_EVERY = 10
FAULT_RATE = 0.4
#: Jobs replayed per round besides the fault-armed and re-queued ones.
EXTRA_REPLAYS = 2
SETTLED = ("settled", "settled_degraded")


def make_specs(seed: int, round_index: int, jobs: int) -> list[JobSpec]:
    """The round's sweep.  Job ids (and so fault plans, which derive from
    the id) are fixed per position; the data seeds come from ``seed``."""
    return [
        JobSpec(job_id=f"r{round_index}-j{index:03d}",
                seed=seed * 100_000 + round_index * 1_000 + index,
                fault_rate=FAULT_RATE if index % FAULT_EVERY == 3 else 0.0)
        for index in range(jobs)
    ]


def replay(spec: JobSpec) -> dict:
    """Run one job bare in this process, as the ``ml-train`` handler does
    (no journal), and read its settled chain."""
    telemetry.reset()
    market, consumer, workload, executors, providers = build_ml_market(spec)
    plan = FaultPlan.for_job(spec.job_id, spec.fault_rate, executors,
                             providers)
    outcome = run_with_faults(market, consumer, workload, plan,
                              recover=spec.recover,
                              on_phase_boundary=BoundaryRecorder(
                                  spec, JobContext()))
    views = []
    balance = None
    if outcome.workload_address:
        for method in CONTRACT_VIEWS:
            before = clock()
            consumer.wallet.view(outcome.workload_address, method)
            views.append((before, clock()))
        balance = market.chain.state.balance_of(outcome.workload_address)
    return {"digest": result_digest_of(outcome), "outcome": outcome,
            "pool": workload.reward_pool, "views": views,
            "contract_balance": balance}


def check_job(spec: JobSpec, result, replayed: dict) -> list[str]:
    errors = []
    outcome = replayed["outcome"]
    if result.result_digest != replayed["digest"]:
        errors.append("digest differs from the bare replay")
    if outcome.outcome in SETTLED:
        paid = sum(outcome.payouts.values())
        if paid != replayed["pool"]:
            errors.append(f"paid {paid} of a {replayed['pool']} pool")
    elif outcome.workload_address and (
            outcome.refunded != replayed["pool"]
            or replayed["contract_balance"] != 0):
        errors.append(f"refunded {outcome.refunded} of a "
                      f"{replayed['pool']} pool")
    return errors


def round_timings(root: str, results: dict) -> tuple[list, list, int]:
    """From the program's own records of one sweep: each settled job's
    (end time, wall s), each block commit's (end time, wall s), and the
    transactions committed by the winning attempts.

    Times are perf_counter seconds (the journal stamps wall-clock time)."""
    offset = clock() - time.time()
    db = JobsDB.open(root)
    try:
        winners = {job_id: result.attempt
                   for job_id, result in results.items()}
        jobs = [(record["ts"] + offset, record["result"]["wall_s"])
                for record in db.journal_records()
                if record.get("status") == "done" and "result" in record
                and winners.get(record["job_id"]) == record.get("attempt")]
        commits = []
        committed = 0
        for record in db.span_records():
            if record.get("name") != "chain.mine_block":
                continue
            commits.append((record["ts"] + offset, record["wall_ms"] / 1e3))
            if winners.get(record.get("job_id")) == record.get("attempt"):
                committed += record["attributes"].get("transactions", 0)
    finally:
        db.close()
    return jobs, commits, committed


def _traced_worker_job(tracer: LayerTracer, directory: str):
    """``run_job`` as the forked worker calls it, with the worker's layer
    records flushed to ``directory`` after every job."""
    original = batch_module.run_job

    def run_traced_job(spec, ctx=None):
        tracer.adopt_fork()
        # The worker drops the exporters it inherited; count spans again.
        telemetry.tracer().add_exporter(tracer.count_span)
        try:
            return original(spec, ctx)
        finally:
            tracer.flush_to(directory)
    return run_traced_job


def check_round(seed: int, index: int, specs: list[JobSpec], report,
                outcome: Outcome, pace: HostPace,
                views: list[tuple[float, float]]) -> list[JobSpec]:
    """Account every job of one sweep and replay the sample; returns the
    jobs that completed correctly."""
    rng = np.random.default_rng([seed, index, 2])
    others = [s.job_id for s in specs
              if s.fault_rate == 0 and s.job_id in report.results
              and report.results[s.job_id].attempt == 1]
    sample = {s.job_id for s in specs if s.fault_rate > 0}
    sample |= {job_id for job_id, result in report.results.items()
               if result.attempt > 1}
    sample |= set(rng.choice(others, min(EXTRA_REPLAYS, len(others)),
                             replace=False))
    correct = []
    for spec in specs:
        outcome.attempted += 1
        result = report.results.get(spec.job_id)
        if result is None:
            outcome.fail(f"{spec.job_id}: lost")
            continue
        if result.outcome not in SETTLED + ("failed",):
            outcome.fail(f"{spec.job_id}: {result.outcome} {result.error}")
            continue
        if spec.job_id in sample:
            pace.sample()
            replayed = replay(spec)
            views.extend(replayed["views"])
            errors = check_job(spec, result, replayed)
            if errors:
                outcome.fail(f"{spec.job_id}: " + "; ".join(errors))
                continue
        correct.append(spec)
    return correct


def run(seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
        jobs: int = JOBS_PER_ROUND) -> Outcome:
    outcome = Outcome()
    pace = HostPace()
    work = os.path.join(OUT_DIR, f"batch-{os.getpid()}")
    # The workers' layer records and spans, kept after the run.
    worker_dir = os.path.join(OUT_DIR, f"workers-batch-seed{seed}")
    shutil.rmtree(worker_dir, ignore_errors=True)
    extra = (() if tracer is None else
             ((batch_module, "run_job",
               _traced_worker_job(tracer, worker_dir)),))
    setups: list[tuple[float, float]] = []
    #: Per sweep: (start, end, [(job end, job wall s), ...]).
    sweeps: list[tuple[float, float, list[tuple[float, float]]]] = []
    commit_times: list[tuple[float, float]] = []
    views: list[tuple[float, float]] = []
    gas: list[int] = []
    committed = 0

    def one_round(index: int) -> None:
        nonlocal committed
        specs = make_specs(seed, index, jobs)
        root = os.path.join(work, f"round{index}")
        pace.sample()
        with traced(tracer, outcome, pace, extra):
            started = clock()
            submit_batch(root, specs)
            # Warm-up: one job in this process builds a market before the
            # worker forks.
            run_job(JobSpec(job_id=f"warm-r{index}",
                            seed=seed * 100_000 + 999))
            setups.append((started, clock()))
            pace.sample()
            if tracer is not None:
                tracer.operation = f"round{index}"
            began = clock()
            # The coordinator reports progress after it hands the worker
            # its next job, so sampling there never delays the worker.
            report = batch_execute(
                root, workers=1,
                kill_after=tuple(range(KILL_EVERY, jobs, KILL_EVERY)),
                progress=lambda done, total: pace.sample())
            ended = clock()
        outcome.counts["control.requeues"] = (
            outcome.counts.get("control.requeues", 0) + report.requeues)
        outcome.counts["control.worker_deaths"] = (
            outcome.counts.get("control.worker_deaths", 0)
            + report.worker_deaths)
        jobs_done, commits, txs = round_timings(root, report.results)
        shutil.rmtree(root, ignore_errors=True)
        sweeps.append((began, ended, jobs_done))
        commit_times.extend(commits)
        committed += txs
        for spec in check_round(seed, index, specs, report, outcome, pace,
                                views):
            gas.append(report.results[spec.job_id].gas_used)

    try:
        outcome.rounds = run_rounds(seconds, one_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.absorb(worker_dir)
    if not gas:
        outcome.problems.append("no job completed")
        return outcome

    def summary(scale) -> dict[str, float]:
        # Job run time is host-bound and scales; the rest of a sweep is
        # mostly the coordinator's poll interval, which does not.
        timed = sum(end - start + sum(wall * (scale(done - wall, done) - 1)
                                      for done, wall in jobs)
                    for start, end, jobs in sweeps)
        return {
            "setup_s": median([(end - start) * scale(start, end)
                               for start, end in setups]),
            "peak_rss_mb": peak_rss_mb(include_children=True),
            "sessions_per_s": len(gas) / timed,
            "session_p50_s": median([wall * scale(end - wall, end)
                                     for *_, jobs in sweeps
                                     for end, wall in jobs]),
            "gas_per_session": sum(gas) / len(gas),
            "chain_tx_per_s": committed / timed,
            "block_commit_p50_ms": 1e3 * median(
                [wall * scale(end - wall, end)
                 for end, wall in commit_times]),
            "view_p50_ms": 1e3 * median(
                [(end - start) * scale(start, end) for start, end in views]),
        }

    outcome.raw = summary(lambda start, end: 1.0)
    outcome.end_to_end = summary(pace.factor)
    outcome.pace = pace.factor(sweeps[0][0], sweeps[-1][1], margin=0.0)
    return outcome
