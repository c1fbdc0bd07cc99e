"""The chain workload's ledger model on a hand-built two-session chain."""

from perfbench import chain as chain_workload
from perfbench.common import Outcome


def _two_sessions():
    chain, plan, model = chain_workload.build_round(seed=5, round_index=0,
                                                    sessions=2)
    result = chain_workload.stream(chain, plan)
    return chain, plan, model, result


def test_model_agrees_with_a_correct_chain():
    chain, plan, model, result = _two_sessions()
    outcome = Outcome()
    chain_workload.check_round(chain, plan, model, result, outcome)
    assert outcome.failures == [] and outcome.problems == []
    assert len(result.submitted) == 2 * 36
    # Providers hold exactly value x bps / 10000, summed over sessions.
    expected: dict[str, int] = {}
    for session in plan:
        for provider, weight in session.weights_bps.items():
            expected[provider] = (expected.get(provider, 0)
                                  + session.value * weight // 10_000)
    for provider, amount in expected.items():
        assert model.balances[provider] == amount
        assert chain.state.balance_of(provider) == amount
    # Every consumer sent one transaction, every executor 35.
    for session in plan:
        assert model.nonces[session.consumer.address] == 1
        assert model.nonces[session.executor.address] == 35
    assert model.genesis_total == 4 * chain_workload.GENESIS_CREDIT


def test_model_catches_a_wrong_balance():
    chain, plan, model, result = _two_sessions()
    provider = plan[0].providers[0]
    # Move one unit between two accounts: the total still balances, the
    # per-account comparison does not.
    chain.state.balances[provider] -= 1
    chain.state.balances[plan[1].consumer.address] += 1
    outcome = Outcome()
    chain_workload.check_round(chain, plan, model, result, outcome)
    assert len(outcome.problems) == 2
    assert any(provider in problem for problem in outcome.problems)


def test_model_catches_minted_value_and_nonce_drift():
    chain, plan, model, result = _two_sessions()
    chain.state.credit(plan[0].providers[0], 1)
    chain.state.nonces[plan[0].executor.address] += 1
    outcome = Outcome()
    chain_workload.check_round(chain, plan, model, result, outcome)
    assert any("total" in problem for problem in outcome.problems)
    assert any("nonce" in problem for problem in outcome.problems)
