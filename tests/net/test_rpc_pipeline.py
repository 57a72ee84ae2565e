"""Multi-slot RPC pipelining: submit()/wait() correlation, retries,
interleaving with the synchronous surface, and parking semantics."""

import pytest

from repro.errors import ProtocolError, TransportError
from repro.net.messages import (
    BatchGetRequest,
    BatchGetResponse,
    GetRequest,
    GetResponse,
    PutRequest,
    PutResponse,
)
from repro.net.rpc import RetryPolicy, RpcClient, RpcServer
from repro.net.transport import FaultInjector, Network
from repro.sgx.cost_model import SimClock
from repro.store.resultstore import plain_channel_pair


def make_rpc(handler, fault_injector=None, retry_policy=None):
    clock = SimClock()
    net = Network(fault_injector=fault_injector)
    client_ep = net.endpoint("client", clock)
    server_ep = net.endpoint("server", clock)
    client_chan, server_chan = plain_channel_pair(clock, b"rpc-pipe-test")
    server = RpcServer(server_ep, server_chan, handler)
    net.set_reactor("server", server)
    client = RpcClient(client_ep, client_chan, "server")
    if retry_policy is not None:
        client.retry_policy = retry_policy
    return client, server


def echo_handler(msg):
    """Answer each GET with a response naming the tag it asked about."""
    return GetResponse(found=True, sealed_result=b"res:" + msg.tag)


class TestSubmitWait:
    def test_depth_n_responses_correlate(self):
        client, server = make_rpc(echo_handler)
        tags = [bytes([i]) * 32 for i in range(8)]
        handles = [client.submit(GetRequest(tag=t)) for t in tags]
        assert client.max_inflight == 8
        for handle, tag in zip(handles, tags):
            response = client.wait(handle)
            assert response.sealed_result == b"res:" + tag
        assert server.requests_served == 8
        assert client.submits == 8

    def test_wait_out_of_order(self):
        client, _ = make_rpc(echo_handler)
        tags = [bytes([i]) * 32 for i in range(6)]
        handles = [client.submit(GetRequest(tag=t)) for t in tags]
        for handle, tag in sorted(zip(handles, tags), reverse=True):
            assert client.wait(handle).sealed_result == b"res:" + tag

    def test_wait_unknown_id_raises(self):
        client, _ = make_rpc(echo_handler)
        with pytest.raises(ProtocolError, match="never submitted"):
            client.wait(12345)

    def test_double_wait_raises(self):
        client, _ = make_rpc(echo_handler)
        handle = client.submit(GetRequest(tag=b"\x01" * 32))
        client.wait(handle)
        with pytest.raises(ProtocolError, match="never submitted"):
            client.wait(handle)

    def test_sync_call_between_submit_and_wait(self):
        """A blocking call() must not swallow pipelined responses."""
        client, _ = make_rpc(echo_handler)
        handle = client.submit(GetRequest(tag=b"\x01" * 32))
        mid = client.call(GetRequest(tag=b"\x02" * 32))
        assert mid.sealed_result == b"res:" + b"\x02" * 32
        assert client.wait(handle).sealed_result == b"res:" + b"\x01" * 32

    def test_drain_responses_does_not_steal_pipelined(self):
        """One-way PUT draining must leave submitted GETs waitable."""

        def handler(msg):
            if isinstance(msg, PutRequest):
                return PutResponse(accepted=True)
            return echo_handler(msg)

        client, _ = make_rpc(handler)
        handle = client.submit(GetRequest(tag=b"\x03" * 32))
        client.send_oneway(
            PutRequest(tag=b"\x04" * 32, challenge=b"c" * 32,
                       wrapped_key=b"k" * 16, sealed_result=b"s")
        )
        drained = client.drain_responses()
        assert all(isinstance(r, PutResponse) for r in drained)
        assert client.wait(handle).sealed_result == b"res:" + b"\x03" * 32


def batch_echo_handler(msg):
    if isinstance(msg, BatchGetRequest):
        return BatchGetResponse(
            items=tuple(echo_handler(item) for item in msg.items)
        )
    return echo_handler(msg)


class TestGroupedGets:
    def test_plan_gets_is_one_group_preserving_order(self):
        client, _ = make_rpc(batch_echo_handler)
        requests = [GetRequest(tag=bytes([i]) * 32) for i in range(5)]
        assert client.plan_gets(requests) == [[0, 1, 2, 3, 4]]
        assert client.plan_gets([]) == []

    def test_group_ships_one_record_and_unpacks_in_order(self):
        client, server = make_rpc(batch_echo_handler)
        tags = [bytes([i]) * 32 for i in range(6)]
        handle = client.submit_gets([GetRequest(tag=t) for t in tags])
        responses = client.wait_gets(handle, len(tags))
        assert [r.sealed_result for r in responses] == [
            b"res:" + t for t in tags
        ]
        assert server.requests_served == 1  # one batch record for the lot

    def test_single_item_group_skips_the_batch_envelope(self):
        client, _ = make_rpc(echo_handler)  # no batch support needed
        handle = client.submit_gets([GetRequest(tag=b"\x0a" * 32)])
        responses = client.wait_gets(handle, 1)
        assert responses[0].sealed_result == b"res:" + b"\x0a" * 32

    def test_every_one_item_group_travels_as_the_plain_message(self):
        def plain_only(msg):
            assert isinstance(msg, (GetRequest, PutRequest)), type(msg).__name__
            if isinstance(msg, PutRequest):
                return PutResponse(accepted=True)
            return echo_handler(msg)

        client, server = make_rpc(plain_only)
        get = GetRequest(tag=b"\x0b" * 32)
        put = PutRequest(tag=b"\x0c" * 32, challenge=b"r" * 32,
                         wrapped_key=b"k" * 16, sealed_result=b"s")
        assert client.call_batch([get])[0].sealed_result == b"res:" + get.tag
        assert client.call_batch([put])[0].accepted
        rid = client.send_oneway_batch([put])
        (ack,) = client.drain_responses()
        assert isinstance(ack, PutResponse) and ack.request_id == rid
        assert server.requests_served == 3

    def test_item_count_mismatch_raises(self):
        client, _ = make_rpc(batch_echo_handler)
        tags = [bytes([i]) * 32 for i in range(3)]
        handle = client.submit_gets([GetRequest(tag=t) for t in tags])
        with pytest.raises(ProtocolError):
            client.wait_gets(handle, 7)

    def test_non_batch_reply_to_group_raises(self):
        client, _ = make_rpc(echo_handler)  # answers batches with... a GET?
        tags = [bytes([i]) * 32 for i in range(2)]
        handle = client.submit_gets([GetRequest(tag=t) for t in tags])
        with pytest.raises(ProtocolError):
            client.wait_gets(handle, 2)

    def test_groups_interleave_with_single_slots(self):
        client, _ = make_rpc(batch_echo_handler)
        group = client.submit_gets(
            [GetRequest(tag=bytes([i]) * 32) for i in range(2)]
        )
        single = client.submit(GetRequest(tag=b"\x63" * 32))
        assert client.wait(single).sealed_result == b"res:" + b"\x63" * 32
        responses = client.wait_gets(group, 2)
        assert responses[0].sealed_result == b"res:" + bytes([0]) * 32


class TestPipelineRetries:
    def test_dropped_submit_retried_by_wait(self):
        client, server = make_rpc(
            echo_handler,
            fault_injector=FaultInjector(drop_indices={0}),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        handle = client.submit(GetRequest(tag=b"\x05" * 32))
        response = client.wait(handle)
        assert response.sealed_result == b"res:" + b"\x05" * 32
        # The retry resends under the same correlation id; index-0 drops
        # apply per edge, so both the first request and the first reply
        # were lost before an attempt got through.
        assert server.requests_served >= 1

    def test_exhausted_retries_surface_and_clear_slot(self):
        client, _ = make_rpc(
            echo_handler,
            fault_injector=FaultInjector(drop_indices={0, 1, 2}),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        handle = client.submit(GetRequest(tag=b"\x06" * 32))
        with pytest.raises(TransportError):
            client.wait(handle)
        # The slot is released: a second wait is a protocol error, not a hang.
        with pytest.raises(ProtocolError, match="never submitted"):
            client.wait(handle)

    def test_duplicate_responses_to_pipelined_request_dropped(self):
        from repro.simtest.schedule import FaultPlan

        client, _ = make_rpc(
            echo_handler,
            fault_injector=FaultInjector(
                plan=FaultPlan(seed=7, drop_rate=0.0, duplicate_rate=1.0,
                               delay_rate=0.0, corrupt_rate=0.0)
            ),
        )
        handle = client.submit(GetRequest(tag=b"\x07" * 32))
        assert client.wait(handle).sealed_result == b"res:" + b"\x07" * 32
        # Duplicated replies are rejected by the channel's replay window
        # (surfacing as uncorrelated errors at most) — never re-delivered
        # as if they answered the pipelined request.
        from repro.net.messages import GetResponse as GR
        assert not any(isinstance(r, GR) for r in client.drain_responses())

    def test_snapshot_exports_pipeline_counters(self):
        client, _ = make_rpc(echo_handler)
        handles = [
            client.submit(GetRequest(tag=bytes([i]) * 32)) for i in range(4)
        ]
        for handle in handles:
            client.wait(handle)
        snap = client.snapshot()
        assert snap["rpc.pipelined_submits"] == 4
        assert snap["rpc.pipeline_max_inflight"] == 4
