"""Path parity: every public request method is a composition of one core.

The same request lists go through ``call`` per item, ``call_batch``,
``submit``/``wait``, the grouped ``submit_*``/``wait_*`` pairs and the
one-way ``send_oneway[_batch]`` + ``drain_responses``, on the cluster
router and on a single-store RpcClient.  Waited-on paths must agree on
every per-item response and every routing counter; one-way paths must
agree with each other on counters and with the waited-on paths on every
PUT verdict.  Each path runs on a fresh, identically built deployment.
"""

from __future__ import annotations

import pytest

from repro import Deployment
from repro.net.circuit import BreakerConfig
from repro.net.messages import BatchPutResponse, GetRequest

from .conftest import make_cluster, make_get, make_put, puts_spanning_all_shards, raw_router

CASES = ("healthy", "killed-before-submit", "killed-after-submit", "breaker-open")


def build(case):
    """A 4-shard RF-2 cluster holding hits, misses and one entry that only
    its replica holds (so its GET read-repairs the primary)."""
    d = make_cluster(seed=b"path-parity")
    router = raw_router(d)
    stored = puts_spanning_all_shards(d, per_shard=2, prefix=b"parity")
    victim = d.cluster.ring.primary(stored[0].tag)
    for put in stored[:-2]:
        assert router.call(put).accepted
    repair = stored[-2]
    primary = d.cluster.ring.primary(repair.tag)
    d.cluster.kill_shard(primary)
    assert router.call(repair).accepted  # lands on the replica only
    d.cluster.revive_shard(primary)
    router.drain_responses()
    if case == "breaker-open":
        router.enable_breakers(BreakerConfig(
            failure_threshold=1, reset_timeout_s=None, reset_after_skips=10**6,
        ))
        d.cluster.kill_shard(victim)
        router.call(make_get(stored[0]))  # one failure opens the breaker
        d.cluster.revive_shard(victim)
    elif case == "killed-before-submit":
        d.cluster.kill_shard(victim)
    gets = [make_get(p) for p in stored]  # the last one never stored: a miss
    fresh = puts_spanning_all_shards(d, per_shard=2, prefix=b"parity-new")
    between = (
        (lambda: d.cluster.kill_shard(victim))
        if case == "killed-after-submit" else (lambda: None)
    )
    return router, gets, fresh, between


def run_call(router, gets, puts, between):
    between()
    return [router.call(g) for g in gets], [router.call(p) for p in puts]


def run_call_batch(router, gets, puts, between):
    between()
    return router.call_batch(gets), router.call_batch(puts)


def run_submit_wait(router, gets, puts, between):
    handles = [router.submit(r) for r in gets + puts]
    between()
    responses = [router.wait(h) for h in handles]
    return responses[:len(gets)], responses[len(gets):]


def run_grouped(router, gets, puts, between):
    def grouped(requests, plan, submit, wait):
        groups = plan(requests)
        handles = [submit([requests[i] for i in group]) for group in groups]
        return groups, handles, wait

    pending = [
        grouped(gets, router.plan_gets, router.submit_gets, router.wait_gets),
        grouped(puts, router.plan_puts, router.submit_puts, router.wait_puts),
    ]
    between()
    out = []
    for (groups, handles, wait), requests in zip(pending, (gets, puts)):
        responses = [None] * len(requests)
        for group, handle in zip(groups, handles):
            for i, response in zip(group, wait(handle, len(group))):
                responses[i] = response
        out.append(responses)
    return tuple(out)


def run_oneway(router, puts, between):
    ids = [router.send_oneway(p) for p in puts]
    between()
    by_id = {r.request_id: r for r in router.drain_responses()}
    return [by_id[i] for i in ids]


def run_oneway_batch(router, puts, between):
    router_id = router.send_oneway_batch(puts)
    between()
    (reply,) = router.drain_responses()
    assert isinstance(reply, BatchPutResponse) and reply.request_id == router_id
    return list(reply.items)


WAITED = (run_call, run_call_batch, run_submit_wait, run_grouped)
GAPPED = (run_submit_wait, run_grouped)  # a kill can land between the halves


@pytest.mark.parametrize("case", CASES)
def test_waited_on_paths_agree(case):
    paths = GAPPED if case == "killed-after-submit" else WAITED
    outcomes = []
    for path in paths:
        router, gets, puts, between = build(case)
        got, put = path(router, gets, puts, between)
        router.drain_responses()  # settle read-repair acks
        outcomes.append((path.__name__, got, put, router.stats.snapshot()))
    name0, gets0, puts0, stats0 = outcomes[0]
    assert any(r.found for r in gets0) and not all(r.found for r in gets0)
    assert all(r.accepted for r in puts0)
    for name, got, put, stats in outcomes[1:]:
        assert got == gets0, f"{name} GETs differ from {name0}"
        assert put == puts0, f"{name} PUTs differ from {name0}"
        assert stats == stats0, f"{name} counters differ from {name0}"
    if case != "healthy":
        assert stats0["router.get_timeouts"] > 0
    if case == "breaker-open":
        assert stats0["router.circuit_skips"] > 0


@pytest.mark.parametrize("case", CASES)
def test_oneway_paths_agree_with_waited_on_verdicts(case):
    router, _, puts, between = build(case)
    _, expected = run_call_batch(router, [], puts, between)
    outcomes = []
    for path in (run_oneway, run_oneway_batch):
        router, _, puts, between = build(case)
        verdicts = path(router, puts, between)
        outcomes.append((path.__name__, verdicts, router.stats.snapshot()))
    (_, verdicts0, stats0), (name, verdicts, stats) = outcomes
    assert verdicts0 == expected
    assert verdicts == expected, f"{name} verdicts differ from the waited-on ones"
    assert stats == stats0


def test_call_batch_with_nothing_to_send_is_local(cluster4):
    router = raw_router(cluster4)
    assert router.call_batch([]) == []


class TestSingleStoreParity:
    """The same lists through every RpcClient method, on one store."""

    @staticmethod
    def build():
        d = Deployment(seed=b"rpc-parity")
        enclave = d.platform.create_enclave("raw-client", b"raw-client-code")
        client = d.store.connect("parity-addr", app_enclave=enclave)
        stored = [make_put(i, prefix=b"rpc-parity") for i in range(4)]
        assert all(r.accepted for r in client.call_batch(stored))
        gets = [make_get(p) for p in stored] + [
            GetRequest(tag=make_put(99, prefix=b"rpc-miss").tag, app_id="raw-client")
        ]
        puts = [make_put(i, prefix=b"rpc-parity-new") for i in range(3)]
        return client, gets, puts

    def test_every_method_gives_the_same_answers(self):
        def call(c, gets, puts):
            return [c.call(g) for g in gets], [c.call(p) for p in puts]

        def call_batch(c, gets, puts):
            return c.call_batch(gets), c.call_batch(puts)

        def submit_wait(c, gets, puts):
            handles = [c.submit(r) for r in gets + puts]
            out = [c.wait(h) for h in handles]
            return out[:len(gets)], out[len(gets):]

        def grouped(c, gets, puts):
            g, p = c.submit_gets(gets), c.submit_puts(puts)
            return c.wait_gets(g, len(gets)), c.wait_puts(p, len(puts))

        results = []
        for path in (call, call_batch, submit_wait, grouped):
            client, gets, puts = self.build()
            results.append(path(client, gets, puts))
        for got in results[1:]:
            assert got == results[0]
        assert [r.found for r in results[0][0]] == [True] * 4 + [False]

        client, _, puts = self.build()
        ids = [client.send_oneway(p) for p in puts]
        by_id = {r.request_id: r for r in client.drain_responses()}
        assert [by_id[i] for i in ids] == results[0][1]
        client, _, puts = self.build()
        batch_id = client.send_oneway_batch(puts)
        (reply,) = client.drain_responses()
        assert reply.request_id == batch_id
        assert list(reply.items) == results[0][1]
