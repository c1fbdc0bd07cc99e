"""Workload ``chain``: staggered governance sessions on a long-lived chain.

Each round builds a fresh chain exactly as ``Marketplace`` does (3
proof-of-authority validators, the governance contracts, no other chain
options) and streams governance sessions at E12 scale into it: every
session has its own consumer and executor, 32 providers drawn from a pool
of 64, and 36 transactions (1 deploy, 1 executor registration, 32
participations, 1 start, 1 result).  A new session starts every block and
every open session advances one phase per block, so a block carries up to
five sessions' phases.  After each block the client reads the ``state`` of
every open session (the read side, next to the writes).  One client, closed
loop: it submits, mines, reads, repeats.

Chain cost grows with chain state, so every round replays the same amount
of seeded work on a fresh chain; a run repeats whole rounds.

Checks, computed apart from the program by :class:`LedgerModel`: every
provider's balance (session value x its bps / 10000, summed over sessions),
every account's balance and nonce, and the total of all balances equal to
the genesis credits with fees included.  Every session reads ``complete``
and ``verify_chain()`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from perfbench.common import (
    HostPace,
    Outcome,
    clock,
    peak_rss_mb,
    run_rounds,
    traced,
)
from perfbench.stats import median
from perfbench.tracing import LayerTracer
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.chain.vm import VM
from repro.governance import register_governance_contracts

SESSIONS_PER_ROUND = 24
PROVIDERS_PER_SESSION = 32
PROVIDER_POOL = 64
VALIDATORS = 3
GENESIS_CREDIT = 10**12
BPS = 10_000
#: Phases a session walks, one per block.
PHASES = ("deploy", "register", "participate", "start", "result")
#: Tight per-phase gas limits (measured use plus headroom), as in E23.
GAS = {"deploy": 200_000, "register": 50_000, "participate": 60_000,
       "start": 50_000, "result": 400_000}
MEASUREMENT = "a1" * 16
SPEC_HASH = "f0" * 16
READER = "0x" + "01" * 20
#: Round index of the process warm-up (outside every timed round).
WARM_UP_ROUND = 999


@dataclass
class GovernanceSession:
    consumer: Wallet
    executor: Wallet
    providers: list[str]
    #: Escrowed reward, a multiple of 10000 so bps payouts are exact.
    value: int
    weights_bps: dict[str, int]
    address: str = ""
    started: float = 0.0
    completed: float = 0.0


@dataclass
class Submitted:
    tx_hash: bytes
    sender: str
    value: int
    #: Contract receiving the value (the deployed workload), if any.
    escrow_to: str = ""


@dataclass
class LedgerModel:
    """A plain-dict ledger of what the submitted transactions must do.

    Fees come from each receipt's gas used; everything else — escrow,
    payouts by bps weight, nonces, conservation — is computed here.
    """

    balances: dict[str, int] = field(default_factory=dict)
    nonces: dict[str, int] = field(default_factory=dict)
    genesis_total: int = 0

    def _add(self, address: str, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) + amount

    def credit(self, address: str, amount: int) -> None:
        self._add(address, amount)
        self.genesis_total += amount

    def transaction(self, sender: str, fee: int, validator: str,
                    value: int = 0, escrow_to: str = "") -> None:
        self.nonces[sender] = self.nonces.get(sender, 0) + 1
        self._add(sender, -fee - value)
        self._add(validator, fee)
        if value:
            self._add(escrow_to, value)

    def payout(self, contract: str, value: int,
               weights_bps: dict[str, int]) -> None:
        for provider, weight in weights_bps.items():
            if value * weight % BPS:
                raise ValueError("payout is not a whole number of units")
            self._add(provider, value * weight // BPS)
            self._add(contract, -value * weight // BPS)

    def compare(self, chain: Blockchain) -> list[str]:
        """Every disagreement between this model and the chain's state."""
        problems = []
        actual = {a: b for a, b in chain.state.balances.items() if b}
        expected = {a: b for a, b in self.balances.items() if b}
        for address in sorted(set(actual) | set(expected)):
            if actual.get(address, 0) != expected.get(address, 0):
                problems.append(f"balance of {address}: chain "
                                f"{actual.get(address, 0)}, model "
                                f"{expected.get(address, 0)}")
        for address, nonce in sorted(self.nonces.items()):
            if chain.state.nonce_of(address) != nonce:
                problems.append(f"nonce of {address}: chain "
                                f"{chain.state.nonce_of(address)}, model "
                                f"{nonce}")
        total = sum(chain.state.balances.values())
        if total != self.genesis_total:
            problems.append(f"balances total {total}, genesis credits "
                            f"{self.genesis_total}")
        return problems


def new_chain(rng: np.random.Generator) -> Blockchain:
    """A chain built with exactly the arguments ``Marketplace`` uses."""
    registry = default_registry()
    register_governance_contracts(registry)
    consensus = ProofOfAuthority.with_generated_validators(VALIDATORS, rng)
    return Blockchain(consensus, registry=registry)


def build_round(seed: int, round_index: int, sessions: int
                ) -> tuple[Blockchain, list[GovernanceSession], LedgerModel]:
    """Chain, wallets, keys and genesis credits for one round."""
    rng = np.random.default_rng([seed, round_index])
    chain = new_chain(rng)
    model = LedgerModel()
    pool = ["0x" + rng.bytes(20).hex() for _ in range(PROVIDER_POOL)]
    plan = []
    for index in range(sessions):
        consumer = Wallet.generate(chain, rng, f"consumer{index}")
        executor = Wallet.generate(chain, rng, f"executor{index}")
        for wallet in (consumer, executor):
            chain.state.credit(wallet.address, GENESIS_CREDIT)
            model.credit(wallet.address, GENESIS_CREDIT)
        chosen = sorted(rng.choice(PROVIDER_POOL, PROVIDERS_PER_SESSION,
                                   replace=False).tolist())
        providers = [pool[i] for i in chosen]
        shares = 1 + rng.multinomial(
            BPS - PROVIDERS_PER_SESSION,
            [1.0 / PROVIDERS_PER_SESSION] * PROVIDERS_PER_SESSION)
        plan.append(GovernanceSession(
            consumer=consumer, executor=executor, providers=providers,
            value=BPS * int(rng.integers(10, 1000)),
            weights_bps={p: int(s) for p, s in zip(providers, shares)},
            address=VM.contract_address_for(consumer.address, 0),
        ))
    return chain, plan, model


def submit_phase(session: GovernanceSession, phase: str, index: int
                 ) -> list[Submitted]:
    """Queue one session's transactions for one phase."""
    if phase == "deploy":
        session.started = clock()
        tx = session.consumer.deploy(
            "workload", value=session.value, gas_limit=GAS[phase],
            spec_hash=SPEC_HASH, code_measurement=MEASUREMENT,
            min_providers=PROVIDERS_PER_SESSION,
            min_samples=PROVIDERS_PER_SESSION, infra_share_bps=0,
            required_confirmations=1)
        return [Submitted(tx, session.consumer.address, session.value,
                          session.address)]
    executor = session.executor
    if phase == "register":
        hashes = [executor.call(session.address, "register_executor",
                                gas_limit=GAS[phase],
                                claimed_measurement=MEASUREMENT)]
    elif phase == "participate":
        hashes = [executor.call(
            session.address, "submit_participation", gas_limit=GAS[phase],
            provider=provider, certificate_hash=f"cert-{index}-{i}",
            data_root=f"root-{index}-{i}", item_count=1)
            for i, provider in enumerate(session.providers)]
    elif phase == "start":
        hashes = [executor.call(session.address, "start_execution",
                                gas_limit=GAS[phase])]
    else:
        hashes = [executor.call(
            session.address, "submit_result", gas_limit=GAS[phase],
            result_hash=f"result-{index}",
            provider_weights_bps=session.weights_bps)]
    return [Submitted(tx, executor.address, 0) for tx in hashes]


@dataclass
class BlockStep:
    """One block's submit-mine-read step of the stream."""

    start: float
    end: float
    commit_s: float
    view_s: list[float]


@dataclass
class RoundResult:
    submitted: list[Submitted]
    steps: list[BlockStep]


def stream(chain: Blockchain, plan: list[GovernanceSession],
           pace: Optional[HostPace] = None) -> RoundResult:
    """Start a session every block and advance every open one per block.

    ``pace`` samples host speed between block steps."""
    submitted: list[Submitted] = []
    steps: list[BlockStep] = []
    for block in range(len(plan) + len(PHASES) - 1):
        if pace is not None:
            pace.sample()
        start = clock()
        for index, session in enumerate(plan):
            step = block - index
            if 0 <= step < len(PHASES):
                submitted.extend(submit_phase(session, PHASES[step], index))
        before = clock()
        chain.mine_block()
        commit_s = clock() - before
        view_s = []
        for session in plan[:block + 1]:
            if session.completed:
                continue
            before = clock()
            state = chain.view(READER, session.address, "state")
            now = clock()
            view_s.append(now - before)
            if state == "complete":
                session.completed = now
        steps.append(BlockStep(start, clock(), commit_s, view_s))
    return RoundResult(submitted, steps)


def check_round(chain: Blockchain, plan: list[GovernanceSession],
                model: LedgerModel, result: RoundResult,
                outcome: Outcome) -> None:
    """Count failed transactions and sessions; compare the ledger model."""
    included = {tx.tx_hash: (tx, block.header.validator)
                for block in chain.blocks for tx in block.transactions}
    for sub in result.submitted:
        receipt = chain.receipt_for(sub.tx_hash)
        tx, validator = included[sub.tx_hash]
        model.transaction(sub.sender, receipt.gas_used * tx.gas_price,
                          validator, sub.value if receipt.status else 0,
                          sub.escrow_to)
        if not receipt.status:
            outcome.fail(f"transaction {sub.tx_hash.hex()[:12]} failed: "
                         f"{receipt.error}")
    for index, session in enumerate(plan):
        if not session.completed:
            outcome.fail(f"session {index} never read complete")
            continue
        model.payout(session.address, session.value, session.weights_bps)
    outcome.problems.extend(model.compare(chain))
    try:
        chain.verify_chain()
    except Exception as exc:  # noqa: BLE001 - reported as a problem
        outcome.problems.append(f"verify_chain: {exc}")


def run(seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
        sessions: int = SESSIONS_PER_ROUND) -> Outcome:
    outcome = Outcome()
    pace = HostPace()
    setups: list[tuple[float, float]] = []
    steps: list[BlockStep] = []
    #: (start, completion) of every session that read complete.
    done: list[tuple[float, float]] = []
    committed = 0
    gas = 0

    def one_round(index: int) -> None:
        nonlocal committed, gas
        pace.sample()
        with traced(tracer, outcome, pace):
            started = clock()
            if index == 0:
                # Process warm-up on a throwaway chain: lazy imports, tables.
                warm_chain, warm_plan, _ = build_round(seed, WARM_UP_ROUND, 3)
                stream(warm_chain, warm_plan)
            chain, plan, model = build_round(seed, index, sessions)
            setups.append((started, clock()))
            if tracer is not None:
                tracer.operation = f"round{index}"
            result = stream(chain, plan, pace)
            pace.sample()
            if tracer is not None:
                tracer.seal_instances()
        outcome.attempted += len(result.submitted) + len(plan)
        check_round(chain, plan, model, result, outcome)
        steps.extend(result.steps)
        done.extend((s.started, s.completed) for s in plan if s.completed)
        committed += len(result.submitted)
        gas += chain.total_gas_used

    rounds = outcome.rounds = run_rounds(seconds, one_round)

    def summary(scale) -> dict[str, float]:
        factors = [scale(step.start, step.end) for step in steps]
        timed = sum((step.end - step.start) * f
                    for step, f in zip(steps, factors))
        return {
            "setup_s": median([(end - start) * scale(start, end)
                               for start, end in setups]),
            "peak_rss_mb": peak_rss_mb(),
            "sessions_per_s": len(done) / timed,
            "session_p50_s": median([(end - start) * scale(start, end)
                                     for start, end in done]),
            "gas_per_session": gas / (rounds * sessions),
            "chain_tx_per_s": committed / timed,
            "block_commit_p50_ms": 1e3 * median(
                [step.commit_s * f for step, f in zip(steps, factors)]),
            "view_p50_ms": 1e3 * median(
                [v * f for step, f in zip(steps, factors)
                 for v in step.view_s]),
        }

    if not done:
        outcome.problems.append("no session completed")
        return outcome
    outcome.raw = summary(lambda start, end: 1.0)
    outcome.end_to_end = summary(pace.factor)
    outcome.pace = pace.factor(steps[0].start, steps[-1].end, margin=0.0)
    return outcome
