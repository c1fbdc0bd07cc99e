"""Workload ``session``: consecutive full Fig. 2 sessions on one marketplace.

Each round builds a fresh marketplace in the E1 shape (8 providers, 2
executors, one consumer with a private validation set) and runs a seeded
mix of ML-training sessions (120 steps, 2 confirmations) and aggregate
sessions back to back, one client in a closed loop.  After each session the
consumer reads its workload contract's views (``common.CONTRACT_VIEWS``).

Checks, computed apart from the program: the consumer's validation
accuracy recomputed with numpy from the returned parameters equals the
reported score and clears a floor; each aggregate statistic equals numpy
over the providers' raw data; payouts sum to the reward pool; the audit is
clean; the contract reads ``complete``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from perfbench.common import (
    CONTRACT_VIEWS,
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
from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.core.aggregates import AggregateKind, AggregateSpec
from repro.ml.datasets import make_iot_activity, split_dirichlet, train_test_split
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation

PROVIDERS = 8
EXECUTORS = 2
SAMPLES_PER_PROVIDER = 200
STEPS = 120
CONFIRMATIONS = 2
#: Sessions per round: ML-training and aggregate, in a seeded order.
ML_SESSIONS = 8
AGGREGATE_SESSIONS = 4
#: The consumer's recomputed validation accuracy must reach this.
ACCURACY_FLOOR = 0.5
#: Round index of the process warm-up (outside every timed round).
WARM_UP_ROUND = 999
#: Histogram bins for aggregate sessions (feature values are standardized).
HISTOGRAM_EDGES = (-3.0, -1.0, 0.0, 1.0, 3.0)


def build_market(seed: int, round_index: int):
    """The round's marketplace, its consumer and the providers' datasets."""
    rng = np.random.default_rng([seed, round_index])
    data = make_iot_activity(SAMPLES_PER_PROVIDER * PROVIDERS, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, PROVIDERS, alpha=1.0, rng=rng,
                            min_samples=15)
    market = Marketplace(seed=seed * 1000 + round_index)
    for index, part in enumerate(parts):
        market.add_provider(f"user{index}", part,
                            SemanticAnnotation("heart_rate", {"rate_hz": 1.0}))
    consumer = market.add_consumer("lab", validation=validation)
    for index in range(EXECUTORS):
        market.add_executor(f"exec{index}")
    return market, consumer, parts


def plan_sessions(seed: int, round_index: int,
                  ml: int = ML_SESSIONS,
                  aggregate: int = AGGREGATE_SESSIONS) -> list[dict]:
    """The round's sessions: kind order, training seeds, aggregate queries
    and reward pools, all drawn from the seed."""
    rng = np.random.default_rng([seed, round_index, 1])
    kinds = ["ml"] * ml + ["aggregate"] * aggregate
    rng.shuffle(kinds)
    plans = []
    for index, kind in enumerate(kinds):
        plan = {"kind": kind, "id": f"r{round_index}-s{index}",
                "reward": 10_000 * int(rng.integers(50, 200))}
        if kind == "ml":
            plan["training_seed"] = int(rng.integers(0, 2**31))
        else:
            plan["statistic"] = ("mean", "sum", "count", "histogram")[
                int(rng.integers(0, 4))]
            plan["field"] = int(rng.integers(0, 6))
        plans.append(plan)
    return plans


def run_session(market, consumer, plan: dict):
    """One session through the marketplace; returns (report, address)."""
    requirement = ConceptRequirement("physiological")
    if plan["kind"] == "ml":
        spec = WorkloadSpec(
            workload_id=plan["id"], requirement=requirement,
            model=ModelSpec(family="softmax", num_features=6, num_classes=5),
            training=TrainingSpec(steps=STEPS, learning_rate=0.3,
                                  batch_size=32, seed=plan["training_seed"]),
            reward_pool=plan["reward"], min_providers=4, min_samples=200,
            required_confirmations=CONFIRMATIONS,
        )
        report = market.run_workload(consumer, spec)
        return report, report.workload_address
    agg_spec = AggregateSpec(
        AggregateKind(plan["statistic"]), field_index=plan["field"],
        bin_edges=HISTOGRAM_EDGES if plan["statistic"] == "histogram" else ())
    result, audit, address = market.run_aggregate_workload(
        consumer, plan["id"], requirement, agg_spec,
        reward_pool=plan["reward"], min_providers=4, min_samples=200,
        required_confirmations=CONFIRMATIONS)
    return (result, audit), address


def expected_statistic(plan: dict, parts) -> object:
    """The aggregate recomputed with numpy over the providers' raw data."""
    values = np.concatenate([part.features[:, plan["field"]]
                             for part in parts])
    statistic = plan["statistic"]
    if statistic == "mean":
        return float(values.mean())
    if statistic == "sum":
        return float(values.sum())
    if statistic == "count":
        return float(len(values))
    counts, _ = np.histogram(values, bins=np.asarray(HISTOGRAM_EDGES))
    return [float(count) for count in counts]


def validation_accuracy(params: np.ndarray, validation,
                        features: int = 6, classes: int = 5) -> float:
    """Softmax-regression accuracy from the flat parameter vector."""
    params = np.asarray(params, dtype=float)
    weights = params[:features * classes].reshape(features, classes)
    bias = params[features * classes:]
    predicted = np.argmax(validation.features @ weights + bias, axis=1)
    return float(np.mean(predicted == np.asarray(validation.targets)))


def check_session(plan: dict, report, state: str, consumer,
                  parts) -> list[str]:
    """Everything wrong with one finished session (empty when correct)."""
    errors = []
    if state != "complete":
        errors.append(f"contract state {state!r}")
    if plan["kind"] == "ml":
        audit, paid = report.audit, report.total_paid
        accuracy = validation_accuracy(report.final_params,
                                       consumer.validation)
        if report.consumer_score is None or abs(
                accuracy - report.consumer_score) > 1e-12:
            errors.append(f"reported accuracy {report.consumer_score} != "
                          f"recomputed {accuracy}")
        if accuracy < ACCURACY_FLOOR:
            errors.append(f"accuracy {accuracy:.3f} below the floor")
    else:
        result, audit = report
        paid = audit.total_paid
        expected = expected_statistic(plan, parts)
        got = result.statistic
        if isinstance(expected, list):
            ok = list(got) == expected
        else:
            ok = bool(np.isclose(got, expected, rtol=1e-9, atol=1e-9))
        if not ok:
            errors.append(f"{plan['statistic']} {got} != numpy {expected}")
    if paid != plan["reward"]:
        errors.append(f"paid {paid} of a {plan['reward']} reward pool")
    if not audit.clean:
        errors.append(f"audit violations {audit.violations}")
    return errors


def _commit_times(since: float) -> list[float]:
    """Wall times of the ``chain.mine_block`` spans the program recorded
    since ``since``, from its own tracer."""
    times = []
    for span in reversed(telemetry.tracer().finished):
        if span.end_wall < since:
            break
        if span.name == "chain.mine_block" and span.start_wall >= since:
            times.append(span.wall_duration)
    return times


def run(seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
        ml: int = ML_SESSIONS, aggregate: int = AGGREGATE_SESSIONS
        ) -> Outcome:
    outcome = Outcome()
    pace = HostPace()
    #: (start, end) of each round's set-up.
    setups: list[tuple[float, float]] = []
    #: Per settled session: (start, end) window, session s, view times,
    #: commit times of its blocks.
    timings: list[tuple[tuple[float, float], float, list[float],
                        list[float]]] = []
    gas: list[int] = []
    txs = 0

    def one_round(index: int) -> None:
        nonlocal txs
        finished = []
        # Each round is a fresh deployment; like the batch supervisor's
        # per-job reset, this keeps the process-wide metrics registry under
        # its label-cardinality guard, which per-session labels otherwise
        # exhaust after a few hundred sessions in one process.
        telemetry.reset()
        pace.sample()
        with traced(tracer, outcome, pace):
            started = clock()
            if index == 0:
                # Process warm-up on a throwaway market: lazy imports.
                warm_market, warm_consumer, _ = build_market(seed,
                                                             WARM_UP_ROUND)
                for plan in plan_sessions(seed, WARM_UP_ROUND, ml=1,
                                          aggregate=1):
                    run_session(warm_market, warm_consumer, plan)
            market, consumer, parts = build_market(seed, index)
            plans = plan_sessions(seed, index, ml=ml, aggregate=aggregate)
            setups.append((started, clock()))
            for plan in plans:
                pace.sample()
                if tracer is not None:
                    tracer.operation = plan["id"]
                outcome.attempted += 1
                gas_before = market.chain.total_gas_used
                height = market.chain.height
                begin = clock()
                try:
                    report, address = run_session(market, consumer, plan)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    outcome.fail(f"{plan['id']}: {type(exc).__name__}: "
                                 f"{exc}")
                    continue
                middle = clock()
                reads, values = [], {}
                for method in CONTRACT_VIEWS:
                    before = clock()
                    values[method] = consumer.wallet.view(address, method)
                    reads.append(clock() - before)
                end = clock()
                finished.append((plan, report, values["state"],
                                 ((begin, end), middle - begin, reads,
                                  _commit_times(begin)),
                                 market.chain.total_gas_used - gas_before,
                                 market.chain.blocks[height + 1:]))
            pace.sample()
            if tracer is not None:
                tracer.seal_instances()
        for plan, report, state, timing, used, blocks in finished:
            errors = check_session(plan, report, state, consumer, parts)
            if errors:
                outcome.fail(f"{plan['id']}: " + "; ".join(errors))
                continue
            timings.append(timing)
            gas.append(used)
            txs += sum(len(block.transactions) for block in blocks)

    outcome.rounds = run_rounds(seconds, one_round)
    if not timings:
        outcome.problems.append("no session settled")
        return outcome

    def summary(scale) -> dict[str, float]:
        factors = [scale(*window) for window, *_ in timings]
        timed = sum((window[1] - window[0]) * f
                    for (window, *_), f in zip(timings, factors))
        return {
            "setup_s": median([(end - start) * scale(start, end)
                               for start, end in setups]),
            "peak_rss_mb": peak_rss_mb(),
            "sessions_per_s": len(timings) / timed,
            "session_p50_s": median([t[1] * f
                                     for t, f in zip(timings, factors)]),
            "gas_per_session": sum(gas) / len(gas),
            "chain_tx_per_s": txs / timed,
            "block_commit_p50_ms": 1e3 * median(
                [c * f for t, f in zip(timings, factors) for c in t[3]]),
            "view_p50_ms": 1e3 * median([v * f
                                         for t, f in zip(timings, factors)
                                         for v in t[2]]),
        }

    outcome.raw = summary(lambda start, end: 1.0)
    outcome.end_to_end = summary(pace.factor)
    outcome.pace = pace.factor(timings[0][0][0], timings[-1][0][1],
                               margin=0.0)
    return outcome
