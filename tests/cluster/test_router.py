"""Client-side routing: replication, failover, read-repair, batches."""

import pytest

from repro import RuntimeConfig, connect
from repro.cluster.router import NO_LIVE_OWNER
from repro.errors import ProtocolError, TransportError
from repro.net.messages import BatchPutResponse, GetResponse, PutResponse
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import StoreConfig

from tests.cluster.conftest import (
    make_cluster,
    make_get,
    make_put,
    puts_spanning_all_shards,
    raw_router,
)


class TestRoutingBasics:
    def test_put_lands_on_all_owners(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(0)
        response = router.call(put)
        assert response.accepted
        owners = cluster4.cluster.owners_of(put.tag)
        assert len(owners) == 2
        assert cluster4.cluster.holders_of(put.tag) == sorted(owners)

    def test_get_served_by_primary(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(1)
        router.call(put)
        response = router.call(make_get(put))
        assert response.found
        assert response.sealed_result == put.sealed_result
        assert router.stats.failovers == 0

    def test_unknown_tag_is_clean_miss(self, cluster4):
        router = raw_router(cluster4)
        response = router.call(make_get(make_put(2)))
        assert not response.found
        assert response.reason == ""  # a real miss, not unavailability

    def test_non_store_message_rejected(self, cluster4):
        router = raw_router(cluster4)
        with pytest.raises(ProtocolError):
            router.call(PutResponse(accepted=True))


class TestFailover:
    def test_get_fails_over_to_replica(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(3)
        router.call(put)
        primary = cluster4.cluster.owners_of(put.tag)[0]
        cluster4.cluster.kill_shard(primary)
        response = router.call(make_get(put))
        assert response.found
        assert response.sealed_result == put.sealed_result
        assert router.stats.failovers == 1
        assert router.stats.get_timeouts == 1

    def test_all_owners_dead_is_unavailable_not_miss(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(4)
        router.call(put)
        for shard in cluster4.cluster.owners_of(put.tag):
            cluster4.cluster.kill_shard(shard)
        response = router.call(make_get(put))
        assert not response.found
        assert response.reason == NO_LIVE_OWNER
        assert router.stats.unavailable == 1

    def test_put_with_all_owners_dead_times_out(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(5)
        for shard in cluster4.cluster.owners_of(put.tag):
            cluster4.cluster.kill_shard(shard)
        with pytest.raises(TransportError):
            router.call(put)

    def test_put_during_outage_lands_on_live_replica(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(6)
        primary, replica = cluster4.cluster.owners_of(put.tag)
        cluster4.cluster.kill_shard(primary)
        response = router.call(put)
        assert response.accepted
        assert cluster4.cluster.holders_of(put.tag) == [replica]

    def test_revived_shard_keeps_pre_crash_state(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(7)
        router.call(put)
        primary = cluster4.cluster.owners_of(put.tag)[0]
        cluster4.cluster.kill_shard(primary)
        assert not cluster4.cluster.shard_alive(primary)
        cluster4.cluster.revive_shard(primary)
        assert cluster4.cluster.shard_alive(primary)
        response = router.call(make_get(put))
        assert response.found
        assert router.stats.failovers == 0  # primary answered again


class TestReadRepair:
    def fill_during_outage(self, deployment, router):
        """PUT one entry while its primary is down; return (put, primary)."""
        put = make_put(0, prefix=b"repair")
        primary = deployment.cluster.owners_of(put.tag)[0]
        deployment.cluster.kill_shard(primary)
        router.call(put)  # lands on the live replica only
        deployment.cluster.revive_shard(primary)
        return put, primary

    def test_replica_hit_repairs_the_primary(self, cluster4):
        router = raw_router(cluster4)
        put, primary = self.fill_during_outage(cluster4, router)
        assert primary not in cluster4.cluster.holders_of(put.tag)
        response = router.call(make_get(put))
        assert response.found
        assert router.stats.read_repairs == 1
        # The repair is a one-way PUT: after the ack drains, the primary
        # holds the entry and serves it directly.
        drained = router.drain_responses()
        assert drained == []  # repair acks are router-internal
        assert router.stats.repair_acks == 1
        assert primary in cluster4.cluster.holders_of(put.tag)
        stats_before = router.stats.read_repairs
        assert router.call(make_get(put)).found
        assert router.stats.read_repairs == stats_before

    def test_repair_ack_never_reaches_the_runtime(self, cluster4):
        router = raw_router(cluster4)
        put, _ = self.fill_during_outage(cluster4, router)
        router.call(make_get(put))
        # Even mixed with a real one-way PUT, only that PUT's ack emerges.
        other = make_put(999, prefix=b"other")
        router_id = router.send_oneway(other)
        out = router.drain_responses()
        assert [r.request_id for r in out] == [router_id]


class TestOnewayCorrelation:
    def test_single_ack_forwarded_once(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(8)
        router_id = router.send_oneway(put)
        out = router.drain_responses()
        assert len(out) == 1
        assert out[0].request_id == router_id
        assert out[0].accepted
        # The replica's ack was absorbed, not surfaced.
        assert router.stats.replica_put_acks == 1
        assert router.drain_responses() == []

    def test_oneway_to_dead_owners_stays_unacknowledged(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(9)
        for shard in cluster4.cluster.owners_of(put.tag):
            cluster4.cluster.kill_shard(shard)
        router.send_oneway(put)
        assert router.drain_responses() == []  # never acked, never faked

    def test_batch_acks_merge_in_item_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        router_id = router.send_oneway_batch(puts)
        out = router.drain_responses()
        assert len(out) == 1
        batch = out[0]
        assert isinstance(batch, BatchPutResponse)
        assert batch.request_id == router_id
        assert len(batch.items) == len(puts)
        assert all(item.accepted for item in batch.items)


class TestBatchedCalls:
    def test_batch_get_round_trip_in_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        for put in puts:
            router.call(put)
        responses = router.call_batch([make_get(p) for p in puts])
        assert len(responses) == len(puts)
        for put, response in zip(puts, responses):
            assert response.found
            assert response.sealed_result == put.sealed_result

    def test_batch_put_round_trip_in_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        responses = router.call_batch(puts)
        assert len(responses) == len(puts)
        assert all(r.accepted for r in responses)
        for put in puts:
            owners = cluster4.cluster.owners_of(put.tag)
            assert cluster4.cluster.holders_of(put.tag) == sorted(owners)

    def test_mixed_batch_rejected(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(10)
        with pytest.raises(ProtocolError):
            router.call_batch([put, make_get(put)])

    def test_batch_get_fails_over_whole_subbatch(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        for put in puts:
            router.call(put)
        victim = cluster4.cluster.shard_ids[0]
        cluster4.cluster.kill_shard(victim)
        responses = router.call_batch([make_get(p) for p in puts])
        assert all(r.found for r in responses)
        assert router.stats.failovers >= 1


class TestBatchGetPartialShardTimeout:
    """Regression: a BATCH_GET spanning several shards where one shard
    times out must return per-item failures for *that shard's items
    only*, in their original positions (issue satellite 6)."""

    def test_only_dead_shards_items_fail(self):
        # RF 1: the dead shard's items have no replica to fall back on.
        d = make_cluster(n_shards=4, replication_factor=1,
                         seed=b"batch-timeout")
        router = raw_router(d)
        puts = puts_spanning_all_shards(d, per_shard=3)
        for put in puts:
            router.call(put)
        victim = d.cluster.ring.primary(puts[0].tag)
        victim_indices = {
            i for i, p in enumerate(puts)
            if d.cluster.ring.primary(p.tag) == victim
        }
        assert 0 < len(victim_indices) < len(puts)
        d.cluster.kill_shard(victim)

        responses = router.call_batch([make_get(p) for p in puts])
        assert len(responses) == len(puts)
        for i, (put, response) in enumerate(zip(puts, responses)):
            assert isinstance(response, GetResponse)
            if i in victim_indices:
                assert not response.found
                assert response.reason == NO_LIVE_OWNER
            else:
                assert response.found
                assert response.sealed_result == put.sealed_result

    def test_replicated_items_survive_the_same_timeout(self):
        d = make_cluster(n_shards=4, replication_factor=2,
                         seed=b"batch-timeout-rf2")
        router = raw_router(d)
        puts = puts_spanning_all_shards(d, per_shard=3)
        for put in puts:
            router.call(put)
        d.cluster.kill_shard(d.cluster.shard_ids[0])
        responses = router.call_batch([make_get(p) for p in puts])
        assert [r.found for r in responses] == [True] * len(puts)


class TestTopology:
    def test_detach_makes_items_unavailable(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(11)
        router.call(put)
        for shard in list(router.shard_ids):
            router.detach_shard(shard)
        response = router.call(make_get(put))
        assert not response.found
        assert response.reason == NO_LIVE_OWNER

    def test_double_attach_rejected(self, cluster4):
        router = raw_router(cluster4)
        shard = router.shard_ids[0]
        with pytest.raises(ProtocolError):
            router.attach_shard(shard, object())


class TestOnewayStateIsReleased:
    """A one-way batch's merge state lives only until every shard it was
    sent to has answered or been detached."""

    @staticmethod
    def session_with_batches(seed):
        session = connect(
            shards=4, replication_factor=2, seed=seed, tracing=False,
            runtime_config=RuntimeConfig(put_queue_entries=8, put_flush_batch=8),
        )
        session.enable_pipeline(depth=8)

        @session.mark(version="1.0")
        def leak_kernel(data: bytes) -> bytes:
            return data[::-1]

        def run(first, n_batches):
            for b in range(first, first + n_batches):
                leak_kernel.map([(b * 16 + i).to_bytes(4, "big") * 4
                                 for i in range(16)])
        return session, session.runtime.client, run

    def test_table_empty_after_flush_on_a_healthy_cluster(self):
        session, router, run = self.session_with_batches(b"oneway-leak")
        run(0, 40)
        session.flush_puts()
        assert router._batches == {} and router._batch_by_key == {}
        # Every replica ack was counted before its batch was dropped.
        stats = router.stats
        assert stats.replica_put_acks + stats.replica_put_rejects == stats.replica_puts
        assert session.runtime.puts_unacknowledged == 0

    def test_late_replica_acks_are_counted_then_the_entry_drops(self, cluster4):
        router = raw_router(cluster4)
        owners_of = cluster4.cluster.owners_of
        first = make_put(0, prefix=b"late")
        primary, replica = owners_of(first.tag)
        puts = [p for p in (make_put(i, prefix=b"late") for i in range(200))
                if owners_of(p.tag) == [primary, replica]][:3]
        assert len(puts) == 3
        replica_client = router._clients[replica]
        # The replica's acks arrive only after the batch was emitted.
        held = []
        drain = replica_client.drain_responses
        replica_client.drain_responses = lambda: held.extend(drain()) or []
        router_id = router.send_oneway_batch(puts)
        (reply,) = router.drain_responses()  # the primary's acks decide
        assert reply.request_id == router_id and all(i.accepted for i in reply.items)
        assert router.stats.replica_put_acks == 0 and router._batches
        replica_client.drain_responses = lambda: held
        assert router.drain_responses() == []  # nothing emitted twice
        assert router.stats.replica_put_acks == len(puts)
        assert router._batches == {} and router._batch_by_key == {}

    def test_table_empty_after_a_shard_dies_and_is_detached(self):
        session, router, run = self.session_with_batches(b"oneway-leak-kill")
        run(0, 10)
        victim = router.shard_ids[0]
        session.kill_shard(victim)
        run(10, 10)  # copies sent to the dead shard are never acked
        assert router._batches  # waiting on the dead shard
        router.detach_shard(victim)
        session.flush_puts()
        assert router._batches == {} and router._batch_by_key == {}


class TestReplicatedPutAuthority:
    """RF 3 with the primary down: the first live replica in *ring* order
    is authoritative on every PUT path, even where a lower-id replica
    answers differently (here: its per-app quota is full)."""

    @staticmethod
    def build():
        d = make_cluster(
            n_shards=4, replication_factor=3, seed=b"put-authority",
            store_config=StoreConfig(quota=QuotaPolicy(max_entries_per_app=1)),
        )
        owners_of = d.cluster.owners_of
        target = next(
            p for p in (make_put(i, prefix=b"auth") for i in range(1000))
            if owners_of(p.tag)[2] < owners_of(p.tag)[1]
        )
        primary, ring_first, lowest_id = owners_of(target.tag)
        filler = next(
            p for p in (make_put(i, prefix=b"fill") for i in range(1000))
            if ring_first not in owners_of(p.tag)
        )
        router = raw_router(d)
        assert router.call(filler).accepted  # fills lowest_id's quota
        d.cluster.kill_shard(primary)
        return router, target

    def test_ring_first_live_replica_decides(self):
        def oneway(router, puts):
            rid = router.send_oneway_batch(puts)
            (reply,) = router.drain_responses()
            assert reply.request_id == rid
            return reply.items if len(puts) > 1 else [reply]

        def submit_wait(router, puts):
            return [router.wait(router.submit(p)) for p in puts]

        def grouped(router, puts):
            return router.wait_puts(router.submit_puts(puts), len(puts))

        paths = (lambda r, ps: [r.call(p) for p in ps],
                 lambda r, ps: r.call_batch(ps), submit_wait, grouped, oneway)
        for path in paths:
            for n_items in (1, 2):
                router, target = self.build()
                rejects0 = router.stats.replica_put_rejects
                verdicts = path(router, [target] * n_items)
                assert len(verdicts) == n_items
                for verdict in verdicts:
                    assert isinstance(verdict, PutResponse)
                    assert verdict.accepted, verdict.reason
                # The full lowest-id replica's "no" is a replica verdict.
                assert router.stats.replica_put_rejects == rejects0 + n_items
