"""The probe catalogue: which entry point of which layer is timed, and the
per-layer metrics the traced run reports.

Each probe key is ``<layer>.<entry point>``; the metric names are the key
plus ``.calls`` (count), ``.s`` (self time) or ``.bytes``.  Functions that
other modules import by name are probed in every namespace they are looked
up from, so no call escapes its wrapper.
"""

from __future__ import annotations

from perfbench.tracing import Probe

LIFECYCLE_PHASES = (
    ("deploy", "DeployPhase"),
    ("match", "MatchPhase"),
    ("register_executors", "RegisterExecutorsPhase"),
    ("attest_and_submit", "AttestAndSubmitPhase"),
    ("start_execution", "StartExecutionPhase"),
    ("execute", "ExecutePhase"),
    ("aggregate", "AggregatePhase"),
    ("settle", "SettlePhase"),
    ("audit", "AuditPhase"),
)

#: Modules that look ``encrypt``/``decrypt`` up by name.
_SYMMETRIC_USERS = ("repro.crypto.symmetric", "repro.storage.local",
                    "repro.storage.cloud", "repro.tee.enclave")


def _payload_len(args, kwargs, result) -> int:
    return len(args[1])          # (self, data, owner)


def _json_len(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _encrypt_len(args, kwargs, result) -> int:
    return len(args[1])          # (key, plaintext, rng)


def _decrypt_len(args, kwargs, result) -> int:
    return len(args[1].ciphertext)   # (key, envelope)


def _lru_misses(function) -> int:
    return function.cache_info().misses


PROBES: list[Probe] = [
    # repro.chain
    Probe("chain.state_snapshot", "repro.chain.state:WorldState.snapshot"),
    Probe("chain.state_snapshot", "repro.chain.state:WorldState.restore"),
    Probe("chain.apply_tx", "repro.chain.vm:VM.apply_transaction"),
    Probe("chain.mine_block", "repro.chain.blockchain:Blockchain.mine_block",
          per_instance=True),
    Probe("chain.static_view", "repro.chain.vm:VM.static_view"),
    Probe("chain.mempool_select", "repro.chain.mempool:Mempool.select"),
    Probe("chain.state_root", "repro.chain.state:WorldState.state_root"),
    Probe("chain.audit", "repro.chain.audit:ChainAuditor.pre_block"),
    Probe("chain.audit", "repro.chain.audit:ChainAuditor.post_block"),
    Probe("chain.observe", "repro.chain.observe:ChainObserver.record_block"),
    Probe("chain.submit", "repro.chain.blockchain:Blockchain.submit"),
    # repro.crypto
    Probe("crypto.sign", "repro.crypto.ecdsa:PrivateKey.sign"),
    Probe("crypto.verify", "repro.crypto.ecdsa:PublicKey.verify"),
    Probe("crypto.batch_verify", "repro.crypto.ecdsa:batch_verify"),
    Probe("crypto.batch_verify", "repro.chain.blockchain:batch_verify"),
    # Key generation is the public-key derivation; its LRU cache answers
    # repeat lookups, which are not key generations.
    Probe("crypto.keygen", "repro.crypto.ecdsa:_derive_public_key",
          misses=_lru_misses),
    *[Probe("crypto.symmetric", f"{module}:encrypt", nbytes=_encrypt_len)
      for module in _SYMMETRIC_USERS],
    *[Probe("crypto.symmetric", f"{module}:decrypt", nbytes=_decrypt_len)
      for module in _SYMMETRIC_USERS],
    # repro.utils.serialization (canonical_json_bytes calls canonical_json
    # through the module namespace, so one probe covers both).
    Probe("serialization.canonical_json",
          "repro.utils.serialization:canonical_json", nbytes=_json_len),
    # repro.tee
    Probe("tee.measurement", "repro.tee.enclave:EnclaveCode.measurement"),
    Probe("tee.attestation",
          "repro.tee.attestation:AttestationService.produce_quote"),
    Probe("tee.attestation", "repro.tee.attestation:AttestationService.verify"),
    Probe("tee.enclave_run", "repro.tee.enclave:Enclave.run"),
    # repro.storage
    Probe("storage.put", "repro.storage.base:StorageBackend.put",
          nbytes=_payload_len),
    Probe("storage.get", "repro.storage.base:StorageBackend.get"),
    # repro.core
    *[Probe(f"lifecycle.{name}", f"repro.core.lifecycle:{cls}.run")
      for name, cls in LIFECYCLE_PHASES],
    Probe("marketplace.add_provider",
          "repro.core.marketplace:Marketplace.add_provider"),
    # repro.control
    Probe("control.journal_append", "repro.control.jobs_db:JournalShard.append"),
    Probe("control.checkpoint",
          "repro.control.supervisor:BoundaryRecorder.__call__"),
    # repro.telemetry: events on the marketplace bus (finished spans are
    # counted by an exporter the tracer adds to the program's tracer).
    Probe("telemetry.events", "repro.core.events:EventBus.emit", timed=False),
]

#: (metric name, unit) reported by every traced run, in report order.
PER_LAYER_METRICS: list[tuple[str, str]] = [
    ("traced.wall_s", "s"),
    ("other.s", "s"),
    ("chain.state_snapshot.calls", "count"), ("chain.state_snapshot.s", "s"),
    ("chain.apply_tx.calls", "count"), ("chain.apply_tx.s", "s"),
    ("chain.mine_block.calls", "count"), ("chain.mine_block.s", "s"),
    ("chain.mine_block.late_over_early", "x"),
    ("chain.static_view.calls", "count"), ("chain.static_view.s", "s"),
    ("chain.mempool_select.s", "s"),
    ("chain.state_root.s", "s"),
    ("chain.audit.s", "s"),
    ("chain.observe.s", "s"),
    ("chain.submit.calls", "count"), ("chain.submit.s", "s"),
    ("crypto.sign.calls", "count"), ("crypto.sign.s", "s"),
    ("crypto.verify.calls", "count"), ("crypto.verify.s", "s"),
    ("crypto.batch_verify.s", "s"),
    ("crypto.keygen.calls", "count"), ("crypto.keygen.s", "s"),
    ("crypto.symmetric.bytes", "bytes"), ("crypto.symmetric.s", "s"),
    ("serialization.canonical_json.calls", "count"),
    ("serialization.canonical_json.s", "s"),
    ("serialization.canonical_json.bytes", "bytes"),
    ("tee.measurement.calls", "count"), ("tee.measurement.s", "s"),
    ("tee.attestation.s", "s"),
    ("tee.enclave_run.s", "s"),
    ("storage.put.calls", "count"), ("storage.put.bytes", "bytes"),
    ("storage.put.s", "s"),
    ("storage.get.s", "s"),
    *[(f"lifecycle.{name}.s", "s") for name, _ in LIFECYCLE_PHASES],
    ("marketplace.add_provider.calls", "count"),
    ("marketplace.add_provider.s", "s"),
    ("control.journal_append.calls", "count"),
    ("control.journal_append.s", "s"),
    ("control.checkpoint.calls", "count"), ("control.checkpoint.s", "s"),
    ("control.requeues", "count"),
    ("control.worker_deaths", "count"),
    ("telemetry.spans", "count"),
    ("telemetry.events", "count"),
]


def layer_metrics(tracer, wall_s: float,
                  counts: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric from a finished traced run.

    ``wall_s`` is the traced wall time; ``counts`` adds counts the workload
    read from the program's reports (requeues, worker deaths).
    """
    from perfbench.stats import median, quarter_ratio

    values: dict[str, float] = {"traced.wall_s": wall_s,
                                "other.s": wall_s - tracer.attributed_s()}
    ratios = [quarter_ratio(durations)
              for durations in tracer.per_instance.get(
                  "chain.mine_block", {}).values()
              if len(durations) >= 8]
    values["chain.mine_block.late_over_early"] = (median(ratios) if ratios
                                                  else 0.0)
    merged = dict(tracer.counts)
    for key, amount in counts.items():
        merged[key] = merged.get(key, 0) + amount
    for name, _unit in PER_LAYER_METRICS:
        if name in values:
            continue
        key, _, suffix = name.rpartition(".")
        if suffix == "calls":
            values[name] = tracer.calls.get(key, 0)
        elif suffix == "s":
            values[name] = tracer.self_s.get(key, 0.0)
        elif suffix == "bytes":
            values[name] = tracer.bytes.get(key, 0)
        else:
            values[name] = merged.get(name, 0)
    return values
