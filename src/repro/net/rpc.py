"""Request/response layer over the loopback transport.

DedupRuntime issues a synchronous ``GET_REQUEST`` (the OCALL "needs to
wait until receiving corresponding GET_RESPONSE", §IV-B) and an
asynchronous ``PUT_REQUEST``.  The server side is a reactor: the network
invokes it as messages arrive, which models the ResultStore process
draining its socket.

All payloads crossing this layer are channel *records* — the plaintext
messages only ever exist inside the two enclaves.

One core: every request whose reply is waited on is a :meth:`RpcClient.submit`
settled by :meth:`RpcClient.wait`.  ``call`` is submit + wait of one
message; ``call_batch`` and ``submit_gets``/``wait_gets`` (and the PUT
pair) ship a uniform group as one ``BATCH_*`` message, so the whole
group costs one channel record (one AEAD seal/open per direction) and
one server-side ECALL instead of N of each.  A one-item group travels
as the plain GET/PUT.  Fire-and-forget PUTs take ``send_oneway_batch``
(``send_oneway`` is a batch of one) and come back via
:meth:`RpcClient.drain_responses`.

Correlation: every outgoing request carries a client-assigned
``request_id`` which the server echoes.  A waiter therefore always
receives *its own* response even when replies to earlier one-way sends
are still sitting in the inbox — those are buffered and handed out by
``drain_responses`` instead of being mis-delivered to the next caller.

Fault tolerance: an optional :class:`RetryPolicy` makes :meth:`RpcClient.wait`
retry transient failures with exponential backoff (charged to the
SimClock) and *deterministic* jitter.  Retries reuse the original
correlation id, so a retried PUT whose first copy actually arrived is a
store-side duplicate ("already stored", accepted) rather than a double
write — idempotency keyed by correlation id.  Wire-duplicated or
replayed response records are rejected by the channel's sequence check
(counted, not fatal), and duplicate response *ids* that survive an
unsequenced channel are dropped before they can reach the wrong waiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .channel import ChannelEndpoint
from .messages import (
    BatchGetRequest,
    BatchGetResponse,
    BatchPutRequest,
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    Message,
    PutRequest,
    decode_message,
    encode_message,
    with_request_id,
)
from .transport import Endpoint
from ..crypto.hashes import tagged_hash
from ..errors import ChannelError, ProtocolError, RetryExhaustedError, TransportError
from ..obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for waited-on requests.

    ``max_attempts=1`` (the default) disables retries entirely, keeping
    the historical fail-fast behaviour.  The delay before attempt ``k``
    (k >= 1 retries) is ``base_delay_s * multiplier**(k-1)`` capped at
    ``max_delay_s``, reduced by up to ``jitter`` (a 0..1 fraction) using
    a hash of (server, correlation id, attempt) — deterministic, so
    simulated runs replay identically, yet decorrelated across callers.
    """

    max_attempts: int = 1
    base_delay_s: float = 200e-6
    multiplier: float = 2.0
    max_delay_s: float = 20e-3
    jitter: float = 0.5
    # A correlated ErrorMessage (server code 500) or an uncorrelated 400
    # (the server could not parse a corrupted record) is deterministic
    # for a fixed request *unless* the wire mangled it — under active
    # fault injection retrying it is the right call.
    retry_protocol_errors: bool = False

    def delay_for(self, retry_index: int, salt: bytes) -> float:
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**retry_index)
        if not self.jitter:
            return raw
        digest = tagged_hash(b"rpc/backoff", salt, retry_index.to_bytes(4, "big"))
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter * fraction)


class RpcServer:
    """Reactor serving protected messages on one endpoint."""

    def __init__(
        self,
        endpoint: Endpoint,
        channel: ChannelEndpoint,
        handler: Callable[[Message], Message],
        wrap_factory: Callable[[str, int], object] | None = None,
    ):
        self._endpoint = endpoint
        self._channel = channel
        self._handler = handler
        # For an SGX-hosted service: a factory returning a context manager
        # (typically ``enclave.ecall``) wrapping each request, so channel
        # crypto and dictionary access happen inside the enclave and the
        # ECALL transition cost is charged (paper §IV-B).
        self._wrap_factory = wrap_factory
        self.requests_served = 0

    def _process(self, record: bytes) -> bytes:
        request_id = 0
        try:
            request = decode_message(self._channel.unprotect(record))
        except Exception as exc:  # channel/protocol violation
            response: Message = ErrorMessage(code=400, detail=str(exc))
        else:
            request_id = request.request_id
            try:
                response = self._handler(request)
            except Exception as exc:
                response = ErrorMessage(code=500, detail=str(exc))
        return self._channel.protect(encode_message(with_request_id(response, request_id)))

    def pump(self) -> int:
        """Serve every pending request; returns the number served."""
        served = 0
        while self._endpoint.pending():
            source, record = self._endpoint.recv()
            if self._wrap_factory is not None:
                with self._wrap_factory("serve_request", len(record)):
                    reply = self._process(record)
            else:
                reply = self._process(record)
            self._endpoint.send(source, reply)
            served += 1
            self.requests_served += 1
        return served


class RpcClient:
    """One connection to one store server.

    :meth:`submit` and :meth:`wait` are the only request path for
    replies that are waited on; :meth:`call`, :meth:`call_batch` and the
    grouped ``submit_*``/``wait_*`` pairs compose them.  Fire-and-forget
    PUTs go out through :meth:`send_oneway_batch`.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        channel: ChannelEndpoint,
        server_address: str,
        tracer=NULL_TRACER,
        clock=None,
        retry_policy: RetryPolicy | None = None,
    ):
        self._endpoint = endpoint
        self._channel = channel
        self._server_address = server_address
        self._next_request_id = 1
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.clock = clock
        self.retry_policy = retry_policy
        # Responses addressed to one-way sends that arrived while a waiter
        # was scanning the inbox; surfaced by drain_responses().
        self._stray_responses: list[Message] = []
        self._stray_ids: set[int] = set()
        # Correlation ids already answered: a later response with the same
        # id is a duplicate (wire-level or replayed) and must never reach
        # another waiter.
        self._seen_response_ids: set[int] = set()
        # Multi-slot pipelining: requests submitted but not yet waited on
        # (kept whole so wait() can retry under the same correlation id),
        # and responses that arrived while another waiter was scanning.
        self._pipeline: dict[int, Message] = {}
        self._completed: dict[int, Message] = {}
        self.retries = 0
        self.backoff_seconds_total = 0.0
        self.records_rejected = 0
        self.duplicates_dropped = 0
        self.submits = 0
        self.max_inflight = 0

    @property
    def server_address(self) -> str:
        """Network address of the server this client is bound to (the
        cluster router labels per-shard failures with it)."""
        return self._server_address

    @property
    def records_sent(self) -> int:
        """Channel records this client has sealed (the benchmark's
        records-per-call numerator)."""
        return self._channel.records_protected

    def _fresh_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def _send(self, request: Message) -> None:
        self._endpoint.send(
            self._server_address, self._channel.protect(encode_message(request))
        )

    def _recv_one(self) -> Message:
        _source, record = self._endpoint.recv()
        return decode_message(self._channel.unprotect(record))

    def call(self, request: Message) -> Message:
        """Send a request and block on the *matching* response: one
        :meth:`submit` settled by :meth:`wait`, so it shares their
        correlation, stray-buffering and retry rules."""
        with self.tracer.span(
            "rpc.call", clock=self.clock,
            message=type(request).__name__, server=self._server_address,
        ):
            return self.wait(self.submit(request))

    def _charge_backoff(self, policy: RetryPolicy, retry_index: int, request_id: int) -> None:
        salt = self._server_address.encode() + request_id.to_bytes(8, "big")
        delay = policy.delay_for(retry_index, salt)
        self.backoff_seconds_total += delay
        if self.clock is not None:
            self.clock.charge_seconds(delay, "backoff")

    def _await_response(self, request_id: int) -> Message:
        """Scan the inbox for the response correlated with ``request_id``.

        Records the channel rejects (duplicated/reordered/corrupted wire
        records fail the sequence or AEAD check) are counted and skipped
        rather than aborting the call; responses whose correlation id was
        already answered are dropped so a replay can never be delivered
        to a different waiter.
        """
        while self._endpoint.pending():
            try:
                response = self._recv_one()
            except ChannelError:
                self.records_rejected += 1
                continue
            rid = response.request_id
            if rid == request_id:
                self._seen_response_ids.add(rid)
                if isinstance(response, ErrorMessage):
                    raise ProtocolError(
                        f"server error {response.code}: {response.detail}"
                    )
                return response
            if isinstance(response, ErrorMessage) and rid == 0:
                raise ProtocolError(
                    f"server error {response.code}: {response.detail}"
                )
            if (
                rid in self._seen_response_ids
                or rid in self._stray_ids
                or rid in self._completed
            ):
                self.duplicates_dropped += 1
                continue
            if rid in self._pipeline:
                # Another submitted slot's response: park it for its waiter.
                self._completed[rid] = response
                continue
            self._stray_ids.add(rid)
            self._stray_responses.append(response)
        raise TransportError("no response arrived (server reactor not attached?)")

    # -- multi-slot pipelining ----------------------------------------------
    def submit(self, request: Message) -> int:
        """Send a correlated request without waiting; returns its slot id.

        Up to N submitted requests may be outstanding on the connection
        at once (correlation ids keep their responses apart); each is
        settled by :meth:`wait`.  A send that fails outright is deferred:
        :meth:`wait` resends it under the same correlation id via the
        retry policy.
        """
        with self.tracer.span(
            "rpc.submit", clock=self.clock,
            message=type(request).__name__, server=self._server_address,
        ):
            request_id = self._fresh_request_id()
            request = with_request_id(request, request_id)
            self._pipeline[request_id] = request
            self.submits += 1
            if len(self._pipeline) > self.max_inflight:
                self.max_inflight = len(self._pipeline)
            try:
                self._send(request)
            except TransportError:
                pass  # wait() retries (or surfaces) under the same id
            return request_id

    def wait(self, request_id: int) -> Message:
        """Block on the response to a :meth:`submit`-ted request.

        Responses carrying other correlation ids are parked for their
        own waiters or buffered for :meth:`drain_responses`; responses
        that arrived while other slots were being waited on are
        delivered from the parked set without touching the wire.  An
        uncorrelated ``ErrorMessage`` (the server could not even parse
        the offending request, so it could not echo an id) is surfaced
        to this waiter.

        With a :class:`RetryPolicy` attached, transient failures (no
        response, and optionally server errors) are retried under the
        *same* correlation id after a backoff charged to the SimClock —
        a retried PUT whose first copy landed is deduplicated store-side.
        """
        request = self._pipeline.get(request_id)
        if request is None:
            raise ProtocolError(
                f"request {request_id} was never submitted (or already waited on)"
            )
        with self.tracer.span(
            "rpc.wait", clock=self.clock,
            message=type(request).__name__, server=self._server_address,
        ):
            try:
                policy = self.retry_policy
                attempts = max(1, policy.max_attempts) if policy is not None else 1
                last_error: Exception | None = None
                for attempt in range(attempts):
                    if attempt:
                        self.retries += 1
                        self._charge_backoff(policy, attempt - 1, request_id)
                        try:
                            self._send(request)
                        except TransportError as exc:
                            last_error = exc
                            continue
                    try:
                        return self._take_response(request_id)
                    except TransportError as exc:
                        last_error = exc
                    except ProtocolError as exc:
                        if policy is None or not policy.retry_protocol_errors:
                            raise
                        last_error = exc
                assert last_error is not None
                if attempts > 1:
                    raise RetryExhaustedError(
                        f"request {request_id} to {self._server_address!r} failed "
                        f"after {attempts} attempts: {last_error}"
                    ) from last_error
                raise last_error
            finally:
                self._pipeline.pop(request_id, None)

    def _take_response(self, request_id: int) -> Message:
        """One settle attempt: parked response first, then the inbox."""
        response = self._completed.pop(request_id, None)
        if response is not None:
            self._seen_response_ids.add(request_id)
            if isinstance(response, ErrorMessage):
                raise ProtocolError(
                    f"server error {response.code}: {response.detail}"
                )
            return response
        return self._await_response(request_id)

    # -- grouped pipelining (one record per submitted group) -----------------
    def plan_gets(self, requests: Sequence[Message]) -> list[list[int]]:
        """Partition request indices into groups that can share one wire
        record.  One server, one connection: everything is one group."""
        return [list(range(len(requests)))] if requests else []

    plan_puts = plan_gets

    def submit_gets(self, requests: Sequence[GetRequest]) -> int:
        """Submit a GET group as a single channel record without waiting.

        The group costs one AEAD seal (and one server ECALL), and the
        slot is settled later by :meth:`wait_gets` — so several groups,
        e.g. one per shard, can be in flight at once.  A one-item group
        travels as the plain GET.
        """
        return self._submit_group(requests, BatchGetRequest)

    def wait_gets(self, handle: int, n_items: int) -> list[Message]:
        """Settle a :meth:`submit_gets` slot into per-item responses."""
        return self._wait_group(handle, n_items, BatchGetResponse)

    def submit_puts(self, requests: Sequence[PutRequest]) -> int:
        """Submit a PUT group as a single channel record without waiting
        (the PUT twin of :meth:`submit_gets`)."""
        return self._submit_group(requests, BatchPutRequest)

    def wait_puts(self, handle: int, n_items: int) -> list[Message]:
        """Settle a :meth:`submit_puts` slot into per-item verdicts."""
        return self._wait_group(handle, n_items, BatchPutResponse)

    def _submit_group(self, requests: Sequence[Message], batch_type: type) -> int:
        return self.submit(_group_message(list(requests), batch_type))

    def _wait_group(self, handle: int, n_items: int, batch_type: type) -> list[Message]:
        response = self.wait(handle)
        if n_items == 1:
            items = [response]
        elif isinstance(response, batch_type):
            items = list(response.items)
        else:
            raise ProtocolError(
                f"store answered a {n_items}-item group with {type(response).__name__}"
            )
        if len(items) != n_items:
            raise ProtocolError(
                f"group response has {len(items)} items, expected {n_items}"
            )
        return items

    def call_batch(self, requests: Sequence[Message]) -> list[Message]:
        """Issue a uniform batch of GETs or PUTs as one group and block on
        the per-item responses, in request order.

        The batch is protected as a single record, so the AEAD and
        sequencing costs of the secure channel — and the store's ECALL —
        are paid once for the whole batch instead of once per item.
        """
        requests = list(requests)
        if not requests:
            return []
        if all(isinstance(r, GetRequest) for r in requests):
            return self.wait_gets(self.submit_gets(requests), len(requests))
        if all(isinstance(r, PutRequest) for r in requests):
            return self.wait_puts(self.submit_puts(requests), len(requests))
        raise ProtocolError("call_batch needs a uniform list of GETs or PUTs")

    # -- fire-and-forget -----------------------------------------------------
    def send_oneway(self, request: Message) -> int:
        """Fire-and-forget one request: a batch of one."""
        return self.send_oneway_batch([request])

    def send_oneway_batch(self, requests: Sequence[Message]) -> int:
        """Fire-and-forget PUTs as one channel record (a one-item batch
        travels as the plain PUT); returns the correlation id that tags
        the eventual response from :meth:`drain_responses`."""
        requests = list(requests)
        message = _group_message(requests, BatchPutRequest)
        with self.tracer.span(
            "rpc.send", clock=self.clock, message=type(message).__name__,
            server=self._server_address, items=len(requests),
        ):
            request_id = self._fresh_request_id()
            self._send(with_request_id(message, request_id))
            return request_id

    def drain_responses(self) -> list[Message]:
        """Collect any responses to one-way sends (off the critical path).

        Includes responses that a waiter encountered and set aside while
        scanning for its own reply.  Undecryptable records
        and responses whose correlation id was already delivered are
        counted and dropped, exactly as in :meth:`wait` — an id is handed
        out at most once.
        """
        pending: list[Message] = self._stray_responses
        self._stray_responses = []
        self._stray_ids.clear()
        while self._endpoint.pending():
            try:
                pending.append(self._recv_one())
            except ChannelError:
                self.records_rejected += 1
        out: list[Message] = []
        for response in pending:
            rid = response.request_id
            if rid != 0 and (rid in self._seen_response_ids or rid in self._completed):
                self.duplicates_dropped += 1
                continue
            if rid in self._pipeline:
                # Belongs to a submitted slot: park it for wait(), never
                # hand a pipelined response out as a stray.
                self._completed[rid] = response
                continue
            if rid != 0:
                self._seen_response_ids.add(rid)
            out.append(response)
        return out

    def snapshot(self) -> dict:
        """Canonical ``rpc.<metric>`` counters for the metrics registry."""
        return {
            "rpc.retries": self.retries,
            "rpc.backoff_seconds_total": self.backoff_seconds_total,
            "rpc.records_rejected": self.records_rejected,
            "rpc.duplicate_responses_dropped": self.duplicates_dropped,
            "rpc.records_sent": self.records_sent,
            "rpc.pipelined_submits": self.submits,
            "rpc.pipeline_max_inflight": self.max_inflight,
        }


def _group_message(requests: list[Message], batch_type: type) -> Message:
    """The wire message for a group: a one-item group travels as the
    plain GET/PUT, a larger one as a single ``BATCH_*`` message."""
    if len(requests) == 1:
        return requests[0]
    return batch_type(items=tuple(requests))


def attach_reactor(network, address: str, server: RpcServer) -> None:
    """Wire a server so it drains its inbox whenever a message lands."""
    network.set_reactor(address, server)
