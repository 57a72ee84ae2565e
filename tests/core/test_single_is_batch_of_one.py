"""A single deduplicated call is a batch of one.

``execute_result(x)`` and ``execute_many_results([x])`` must be
indistinguishable apart from ``runtime.batches``: the same
:class:`DedupResult`, the same per-call simulated time, the same clock
charges per category, the same enclave transitions and channel records,
and the same runtime, router and store counters.  Each side runs the
same script on its own, identically built deployment, over one store or
a 4-shard RF-2 cluster, with the L1 cache, synchronous PUTs, an engine,
a killed primary, or every owner killed.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro
from repro import RuntimeConfig, TrustedLibrary, TrustedLibraryRegistry
from repro.sgx.cost_model import SimClock


def double_bytes(data: bytes) -> bytes:
    return data + data


DESC = repro.FunctionDescription("testlib", "1.0", "bytes double(bytes)")


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


@pytest.fixture(autouse=True)
def fixed_compute_charge(monkeypatch):
    """The real compute charge is measured host wall time, which differs
    between the two sides; charge a fixed cost instead."""
    def charge_compute(self, wall_seconds, native_factor=1.0):
        self.charge_seconds(50e-6, "compute")

    monkeypatch.setattr(SimClock, "charge_compute", charge_compute)


@dataclass(frozen=True)
class Case:
    name: str
    shards: int = 0
    l1: bool = False
    async_put: bool = True
    engine: bool = False
    fault: str = ""  # "", "kill-primary" or "kill-all"
    degrade: bool = False


CASES = [
    Case("store"),
    Case("store-l1", l1=True),
    Case("store-sync", async_put=False),
    Case("store-engine-l1-sync", engine=True, l1=True, async_put=False),
    Case("cluster", shards=4),
    Case("cluster-l1-sync", shards=4, l1=True, async_put=False),
    Case("cluster-engine", shards=4, engine=True),
    Case("cluster-engine-l1-sync", shards=4, engine=True, l1=True, async_put=False),
    Case("kill-primary", shards=4, fault="kill-primary"),
    Case("kill-primary-engine-sync", shards=4, engine=True, async_put=False,
         fault="kill-primary"),
    Case("kill-all-degrade-sync", shards=4, async_put=False, fault="kill-all",
         degrade=True),
    Case("kill-all-fail-fast-sync", shards=4, async_put=False, fault="kill-all"),
    Case("kill-all-degrade-async", shards=4, fault="kill-all", degrade=True),
    Case("kill-all-fail-fast-engine-sync", shards=4, engine=True,
         async_put=False, fault="kill-all"),
]


def build(case: Case):
    session = repro.connect(
        shards=case.shards,
        replication_factor=2,
        libraries=make_libs(),
        seed=b"single-is-batch-of-one",
        runtime_config=RuntimeConfig(
            app_id="app",
            async_put=case.async_put,
            l1_cache_entries=16 if case.l1 else 0,
            degrade_on_store_failure=case.degrade,
        ),
        tracing=False,
    )
    if case.engine:
        session.enable_pipeline(depth=4)
    return session


def single(session, value):
    return session.runtime.execute_result(DESC, value)


def batch_of_one(session, value):
    (result,) = session.runtime.execute_many_results(DESC, [value])
    return result


def _compared(key: str) -> bool:
    return (
        key.startswith(("runtime.", "router.", "store."))
        and "wall" not in key
        and key != "runtime.batches"
    )


def observe(session, result=None) -> dict:
    runtime = session.runtime
    l1 = runtime.l1_cache
    seen = {
        "breakdown": session.clock.breakdown(),
        "transitions": (runtime.enclave.ecall_count, runtime.enclave.ocall_count),
        "records_sent": runtime.client.records_sent,
        "l1": (l1.stats.hits, l1.stats.misses) if l1 is not None else None,
        "snapshot": {k: v for k, v in session.snapshot().items() if _compared(k)},
    }
    if result is not None:
        record = runtime.stats.records[-1]
        seen["result"] = (
            result.value, result.hit, result.l1_hit, result.source,
            result.degraded, result.tag,
        )
        seen["record"] = (record.sim_seconds, record.batch_size)
    return seen


def run_script(case: Case, call) -> list[dict]:
    """Misses, a repeat, hits after a flush, then the case's fault."""
    session = build(case)
    seen = []

    def step(value):
        result = call(session, value)
        seen.append(observe(session, result))
        return result

    def flush():
        session.flush_puts()
        seen.append(observe(session))

    first = step(b"x")
    step(b"x")
    flush()
    step(b"y")
    flush()
    step(b"x")
    if case.fault == "kill-primary":
        session.kill_shard(session.cluster.ring.primary(first.tag))
    elif case.fault == "kill-all":
        for shard_id in session.cluster.shard_ids:
            session.kill_shard(shard_id)
    step(b"x")
    step(b"y")
    step(b"z")
    flush()
    return seen


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_single_call_equals_batch_of_one(case):
    expected = run_script(case, batch_of_one)
    got = run_script(case, single)
    assert len(got) == len(expected)
    for index, (a, b) in enumerate(zip(got, expected)):
        for key in b:
            assert a[key] == b[key], f"step {index}: {key} differs"


def test_no_live_owner_put_is_failed_not_rejected_and_never_raises():
    """Every owner dead, synchronous PUT, fail-fast: the in-band ``no
    live owner`` verdict counts as failed on either entry point."""
    for call in (single, batch_of_one):
        session = build(Case("dead", shards=4, async_put=False))
        for shard_id in session.cluster.shard_ids:
            session.kill_shard(shard_id)
        result = call(session, b"orphan")
        assert result.value == b"orphanorphan" and result.source == "computed"
        stats = session.runtime.stats
        assert (stats.puts_sent, stats.puts_failed, stats.puts_rejected) == (1, 1, 0)
        assert session.runtime.acked_put_tags == set()


@pytest.mark.parametrize("n", [1, 4])
def test_each_distinct_miss_is_one_l1_lookup(n):
    session = build(Case("l1", l1=True))
    inputs = [b"miss-%d" % i for i in range(n)]
    if n == 1:
        results = [single(session, inputs[0])]
    else:
        results = session.runtime.execute_many_results(DESC, inputs)
    assert [r.source for r in results] == ["computed"] * n
    l1 = session.runtime.l1_cache
    assert (l1.stats.hits, l1.stats.misses) == (0, n)


def test_repeated_miss_in_a_batch_is_served_by_the_l1():
    """Without single-flight coalescing, a later miss whose tag an
    earlier miss computed is looked up again and served by the L1."""
    session = build(Case("l1", l1=True))
    results = session.runtime.execute_many_results(DESC, [b"a", b"b", b"a"])
    assert [r.source for r in results] == ["computed", "computed", "l1"]
    l1 = session.runtime.l1_cache
    assert (l1.stats.hits, l1.stats.misses) == (1, 3)
