"""Client-side routing across a sharded ResultStore cluster.

A :class:`ClusterRouter` presents the call surface of
:class:`~repro.net.rpc.RpcClient`, so a
:class:`~repro.core.runtime.DedupRuntime` links against it unchanged.
Every request is routed by its tag's position on the
:class:`~repro.cluster.ring.ShardRing`.

One core serves every request whose reply is waited on:
**plan -> submit -> wait** over per-shard groups.

* ``plan_gets`` / ``plan_puts`` partition requests by primary shard.
* ``submit_gets`` ships a GET group as one record to its primary;
  ``submit_puts`` ships one record to every owner shard of the group's
  items (primary and replicas).
* ``wait_gets`` / ``wait_puts`` settle a group into per-item answers.

The other methods are compositions of it: ``call_batch`` submits and
settles each GET group (a PUT batch is one group), and ``call`` or
``submit``/``wait`` of one request is a one-item group.  Per kind:

* **GET** goes to the tag's owners in ring order.  A failed owner is
  skipped (failover); a live owner's *miss* falls through to the next
  replica; the first hit wins.  Items a group's primary did not serve
  take this per-item step past it.  Live owners that missed before the
  hit receive an asynchronous **read-repair** PUT rebuilt from the hit,
  so a shard that lost or never received an entry converges back.  The
  repaired ciphertext is still the store-side ``(r, [k], [res])``
  triple — the router never sees plaintext, and a tampered replica is
  caught by the runtime's Fig. 3 MAC/tag verification exactly as a
  tampered single store would be.
* **PUT** is written to the primary and its ``replication_factor - 1``
  distinct successors.  The first owner in ring order that answers is
  authoritative; the other verdicts are absorbed into router counters.
  Items no owner answered come back ``accepted=False`` with a ``no live
  owner`` reason (``call``/``wait`` raise ``NoLiveOwnerError``).

Fire-and-forget PUTs have one path, ``send_oneway_batch`` (``send_oneway``
is a batch of one).  The router speaks to N per-shard clients, each with
its own request-id space, so it hands out its own router ids and merges
the shards' acks under them in ``drain_responses``: one response per
router id, carrying the same ring-order verdicts, which keeps the
runtime's strict PUT accounting (accepted/rejected/failed/
unacknowledged) intact.  A fully-dead owner set shows up as
*unacknowledged*, never as a silent success.

Counters count items: a group record that fails, or that an open
breaker refuses, adds one ``get_timeouts``/``put_timeouts`` (and one
``circuit_skips``) per item it carried, so every path reports the same
numbers for the same requests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ring import ShardRing
from ..errors import (
    ChannelError,
    CircuitOpenError,
    NoLiveOwnerError,
    ProtocolError,
    TransportError,
)
from ..net.circuit import OPEN, BreakerConfig, CircuitBreaker
from ..net.rpc import RetryPolicy
from ..obs.metrics import namespaced
from ..obs.tracer import NULL_TRACER
from ..net.messages import (
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    GetResponse,
    Message,
    PutRequest,
    PutResponse,
    with_request_id,
)
from ..net.rpc import RpcClient

# Machine-readable reason carried by GetResponse/PutResponse when every
# owner shard of a tag was unreachable (== NoLiveOwnerError.code).
NO_LIVE_OWNER = NoLiveOwnerError.code

# Failures that mean "this shard did not serve the request": the send
# vanished (dead shard), the reply never arrived, a record was mangled
# on the wire, or the shard could not even parse the mangled record.
_SHARD_FAILURES = (TransportError, ChannelError, ProtocolError)


@dataclass
class RouterStats:
    """Cluster-side counters, disjoint from the runtime's per-call stats."""

    gets_routed: int = 0
    puts_routed: int = 0
    get_timeouts: int = 0
    put_timeouts: int = 0
    failovers: int = 0
    read_repairs: int = 0
    unavailable: int = 0
    replica_puts: int = 0
    replica_put_acks: int = 0
    replica_put_rejects: int = 0
    repair_acks: int = 0
    repair_rejects: int = 0
    # Calls the per-shard circuit breaker refused without touching the
    # wire (failing fast instead of paying another timeout).
    circuit_skips: int = 0

    #: Legacy keys with inconsistent spelling and their normalized
    #: ``router.<metric>`` names (events are plural nouns).
    _RENAMES = {
        "gets_routed": "gets",
        "puts_routed": "puts",
        "unavailable": "unavailable_gets",
        "replica_put_rejects": "replica_put_rejections",
        "repair_rejects": "repair_rejections",
    }

    def snapshot(self) -> dict:
        """Canonical ``router.<metric>`` keys plus the historical
        un-namespaced keys as aliases for one release."""
        return namespaced("router", {
            "gets_routed": self.gets_routed,
            "puts_routed": self.puts_routed,
            "get_timeouts": self.get_timeouts,
            "put_timeouts": self.put_timeouts,
            "failovers": self.failovers,
            "read_repairs": self.read_repairs,
            "unavailable": self.unavailable,
            "replica_puts": self.replica_puts,
            "replica_put_acks": self.replica_put_acks,
            "replica_put_rejects": self.replica_put_rejects,
            "repair_acks": self.repair_acks,
            "repair_rejects": self.repair_rejects,
            "circuit_skips": self.circuit_skips,
        }, renames=self._RENAMES)


@dataclass
class _PendingGetGroup:
    """One submitted GET group bound for a single primary shard."""

    requests: list
    # None when the group has no live owner: nothing reached the wire.
    primary: str | None = None
    # None when the primary's breaker refused the record or the send
    # failed: wait routes every item past the primary.
    local_id: int | None = None


@dataclass
class _PendingPutGroup:
    """One submitted PUT group: one record per owner shard.

    ``subs`` is ``(shard, shard-local slot id or None, item positions)``;
    a None id means the breaker refused the record or the send failed.
    """

    requests: list
    owners: list  # per item: its write owners in ring order
    subs: list = field(default_factory=list)


@dataclass
class _PendingOneway:
    """A one-way PUT batch awaiting acks from its owner shards."""

    owners: list  # per item: its write owners in ring order
    answers: list  # per item: shard -> that shard's verdict
    outstanding: set = field(default_factory=set)  # shards not yet answered
    emitted: bool = False


class ClusterRouter:
    """Routes one application's store traffic across the shard ring."""

    def __init__(
        self,
        ring: ShardRing,
        clients: dict[str, RpcClient],
        replication_factor: int = 2,
        tracer=NULL_TRACER,
        clock=None,
        breaker_config: BreakerConfig | None = None,
    ):
        if replication_factor < 1:
            raise ProtocolError("replication factor must be >= 1")
        self.ring = ring
        self.replication_factor = replication_factor
        self._clients = dict(clients)
        self.stats = RouterStats()
        self.breaker_config = breaker_config
        self._breakers: dict[str, CircuitBreaker] = {}
        # Observability: spans are recorded on the application machine's
        # clock (routing happens there); NULL_TRACER makes it all no-ops.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.clock = clock
        self._next_router_id = 1
        # Submitted-but-unwaited groups: router id -> pending group.
        self._pipeline: dict[int, _PendingGetGroup | _PendingPutGroup] = {}
        # One-way PUT batches: (shard, local id) -> (router id, item
        # positions), and router id -> the batch's merge state.
        self._batch_by_key: dict[tuple[str, int], tuple[int, list[int]]] = {}
        self._batches: dict[int, _PendingOneway] = {}
        # Fire-and-forget sends whose acks are router-internal (read
        # repair): absorbed on drain, never surfaced to the runtime.
        self._absorb_keys: set[tuple[str, int]] = set()

    # -- topology ------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._clients))

    @property
    def in_transition(self) -> bool:
        """True while the ring holds a dual-ownership migration window —
        a single join/drain or a planned multi-shard window
        (:class:`~repro.cluster.ring.TopologyPlan`); either way there is
        exactly one window at a time.

        The pipelined engine's adaptive depth controller reads this to
        cap its submit window and yield slots to the streaming migrator
        while the window is in flight."""
        return self.ring.in_transition

    def attach_shard(self, shard_id: str, client: RpcClient) -> None:
        """Connect to a shard that joined the ring live."""
        if shard_id in self._clients:
            raise ProtocolError(f"already connected to shard {shard_id!r}")
        self._clients[shard_id] = client
        if self._retry_policy is not None:
            client.retry_policy = self._retry_policy

    def detach_shard(self, shard_id: str) -> None:
        """Forget a shard that left the ring (its pending acks are void)."""
        self._clients.pop(shard_id, None)
        self._breakers.pop(shard_id, None)
        self._absorb_keys = {k for k in self._absorb_keys if k[0] != shard_id}
        for key in [k for k in self._batch_by_key if k[0] == shard_id]:
            router_id, _ = self._batch_by_key.pop(key)
            pending = self._batches[router_id]
            pending.outstanding.discard(shard_id)
            if not pending.outstanding:
                del self._batches[router_id]

    # -- hardening knobs -------------------------------------------------------
    _retry_policy: "RetryPolicy | None" = None

    def set_retry_policy(self, policy: RetryPolicy | None) -> None:
        """Apply one retry policy to every per-shard client (including
        shards attached later)."""
        self._retry_policy = policy
        for client in self._clients.values():
            client.retry_policy = policy

    def enable_breakers(self, config: BreakerConfig | None = None) -> None:
        """Turn on per-shard circuit breakers (idempotent; existing
        breaker state is discarded)."""
        self.breaker_config = config or BreakerConfig()
        self._breakers.clear()

    def _breaker(self, shard: str) -> CircuitBreaker | None:
        if self.breaker_config is None:
            return None
        breaker = self._breakers.get(shard)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_config, clock=self.clock)
            self._breakers[shard] = breaker
        return breaker

    def _allowed(self, shard: str, items: int = 1) -> bool:
        """Ask the shard's breaker whether a record may go out; a refusal
        counts one circuit skip per item the record would have carried."""
        breaker = self._breaker(shard)
        if breaker is None or breaker.allow():
            return True
        self.stats.circuit_skips += items
        return False

    def _record(self, shard: str, ok: bool) -> None:
        breaker = self._breaker(shard)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def _call_shard(self, shard: str, request: Message) -> Message:
        """One synchronous shard call through that shard's breaker."""
        if not self._allowed(shard):
            raise CircuitOpenError(f"circuit open for shard {shard!r}")
        try:
            response = self._clients[shard].call(request)
        except _SHARD_FAILURES:
            self._record(shard, False)
            raise
        self._record(shard, True)
        return response

    @property
    def records_sent(self) -> int:
        return sum(c.records_sent for c in self._clients.values())

    def _read_owners(self, tag: bytes) -> list[str]:
        """Reachable shards to consult for a GET.  During a topology
        transition (dual-ownership window) this is the old owners first
        with the pending owners as failover, so a tag stays readable
        whether or not its range has been handed off yet.  Under a
        planned multi-shard window the union may span several changed
        shards (two joiners plus a leaver, say) — the ring computes it
        per range, the router just filters to connected clients."""
        owners = self.ring.read_owners(tag, self.replication_factor)
        return [s for s in owners if s in self._clients]

    def _write_owners(self, tag: bytes) -> list[str]:
        """Reachable shards a PUT must land on.  During a transition
        writes go to the *pending* owners — the post-plan topology, even
        when several membership/weight changes land in the same window —
        so no update accepted inside the window is lost when its range
        commits."""
        owners = self.ring.write_owners(tag, self.replication_factor)
        return [s for s in owners if s in self._clients]

    def _fresh_router_id(self) -> int:
        router_id = self._next_router_id
        self._next_router_id += 1
        return router_id

    def call(self, request: Message) -> Message:
        """Route one request and block on its answer: a one-item group,
        submitted and settled (see :meth:`wait`)."""
        return self.wait(self.submit(request))

    # -- the per-item GET step -------------------------------------------------
    def _route_get(
        self,
        request: GetRequest,
        failed: str | None = None,
        missed: str | None = None,
    ) -> GetResponse:
        """Ask the tag's owners in ring order until one hits.

        ``failed`` names an owner that already failed this GET (its
        record was lost or its breaker refused it): it is counted as a
        timeout and not asked again.  ``missed`` names an owner that
        already answered miss: it is read-repaired if a later owner hits.
        """
        self.stats.gets_routed += 1
        owners = [
            s for s in self._read_owners(request.tag) if s not in (failed, missed)
        ]
        with self.tracer.span("router.get", clock=self.clock, owners=len(owners)) as span:
            missed_live = [missed] if missed is not None else []
            timeouts = int(failed is not None)
            self.stats.get_timeouts += timeouts
            hit: GetResponse | None = None
            for shard in owners:
                with self.tracer.span(
                    "router.shard_get", clock=self.clock, shard=shard
                ) as shard_span:
                    try:
                        response = self._call_shard(shard, request)
                    except _SHARD_FAILURES:
                        self.stats.get_timeouts += 1
                        timeouts += 1
                        shard_span.mark("timeout")
                        continue
                _check_get(shard, response)
                if response.found:
                    hit = response
                    break
                missed_live.append(shard)
            if hit is None:
                if not missed_live:
                    # Every reachable owner timed out (or was skipped): the
                    # item is unavailable, not absent.  Fail safe: the
                    # caller recomputes, exactly like a miss.
                    self.stats.unavailable += 1
                    span.mark("unavailable")
                    return GetResponse(found=False, reason=NO_LIVE_OWNER)
                span.set("outcome", "miss")
                return GetResponse(found=False)
            if timeouts:
                self.stats.failovers += 1
                self.tracer.event("router.failover", clock=self.clock,
                                  timeouts=timeouts)
            span.set("outcome", "hit")
            for shard in missed_live:
                self._queue_read_repair(shard, request, hit)
            return hit

    def _queue_read_repair(
        self, shard: str, request: GetRequest, hit: GetResponse
    ) -> None:
        """Re-PUT a hit to a live owner that answered miss (one-way)."""
        repair = PutRequest(
            tag=request.tag,
            challenge=hit.challenge,
            wrapped_key=hit.wrapped_key,
            sealed_result=hit.sealed_result,
            app_id=request.app_id,
        )
        with self.tracer.span("router.read_repair", clock=self.clock, shard=shard) as span:
            if not self._allowed(shard):
                span.mark("circuit_open")
                return
            try:
                local_id = self._clients[shard].send_oneway(repair)
            except _SHARD_FAILURES:
                span.mark("timeout")
                return
        self._absorb_keys.add((shard, local_id))
        self.stats.read_repairs += 1

    # -- PUT verdicts ----------------------------------------------------------
    def _count_replica_ack(self, response: Message) -> None:
        if isinstance(response, PutResponse) and response.accepted:
            self.stats.replica_put_acks += 1
        else:
            self.stats.replica_put_rejects += 1

    def _put_verdict(
        self, owners: list[str], answers: dict[str, Message]
    ) -> Message | None:
        """The first owner in ring order that answered is authoritative —
        the primary when it is up, else the first live replica.  Every
        other answer is absorbed as a replica ack.  None: nobody
        answered."""
        verdict = None
        for shard in owners:
            answer = answers.get(shard)
            if answer is None:
                continue
            if verdict is None:
                verdict = answer
            else:
                self._count_replica_ack(answer)
        return verdict

    def _by_owner_shard(self, owners: list[list[str]]) -> list[tuple[str, list[int]]]:
        """Item positions per owner shard (primary and replicas), in
        shard-id order: one record per shard carries all its copies."""
        groups: dict[str, list[int]] = {}
        for i, item_owners in enumerate(owners):
            for k, shard in enumerate(item_owners):
                groups.setdefault(shard, []).append(i)
                if k:
                    self.stats.replica_puts += 1
        return sorted(groups.items())

    # -- the core: plan -> submit -> wait ------------------------------------
    def _plan(self, requests: list, owners_of) -> list[list[int]]:
        groups: dict[str, list[int]] = {}
        orphans: list[int] = []
        for i, request in enumerate(requests):
            owners = owners_of(request.tag)
            if owners:
                groups.setdefault(owners[0], []).append(i)
            else:
                orphans.append(i)
        out = [indices for _, indices in sorted(groups.items())]
        out.extend([i] for i in orphans)
        return out

    def plan_gets(self, requests: list[GetRequest]) -> list[list[int]]:
        """Partition GET indices by primary owner shard.

        Each group can ship as one channel record to one shard, so a
        round of N GETs across S shards costs S records — and the S
        shards serve their sub-batches concurrently.  Items with no live
        owner form their own group (answered without touching the wire).
        """
        return self._plan(requests, self._read_owners)

    def plan_puts(self, requests: list[PutRequest]) -> list[list[int]]:
        """Partition PUT indices by primary owner shard.

        Like :meth:`plan_gets`, each group's copies ship as one channel
        record per owner shard instead of one record per item, so a
        round of N replicated PUTs costs O(shards) records.  Items with
        no live owner form their own group (answered without touching
        the wire)."""
        return self._plan(requests, self._write_owners)

    def _submit_to(self, shard: str, requests: list, kind: str) -> int | None:
        """Send one group record to one shard; None if the shard's
        breaker refused it or the send failed."""
        if not self._allowed(shard, len(requests)):
            return None
        client = self._clients[shard]
        submit = client.submit_gets if kind == "get" else client.submit_puts
        with self.tracer.span(
            f"router.shard_{kind}", clock=self.clock, shard=shard,
            items=len(requests),
        ) as span:
            try:
                return submit(requests)
            except _SHARD_FAILURES:
                self._record(shard, False)
                span.mark("timeout")
                return None

    def _wait_on(
        self, shard: str, local_id: int | None, n_items: int, kind: str
    ) -> list[Message] | None:
        """Settle one shard's group record; None if it was never sent or
        the shard did not answer."""
        client = self._clients.get(shard)
        if local_id is None or client is None:
            return None
        wait = client.wait_gets if kind == "get" else client.wait_puts
        with self.tracer.span(
            f"router.shard_{kind}", clock=self.clock, shard=shard, items=n_items,
        ) as span:
            try:
                items = wait(local_id, n_items)
            except _SHARD_FAILURES:
                self._record(shard, False)
                span.mark("timeout")
                return None
        self._record(shard, True)
        return items

    def _park(self, pending) -> int:
        router_id = self._fresh_router_id()
        self._pipeline[router_id] = pending
        return router_id

    def _take(self, router_id: int, kind: type, n_items: int | None):
        """Remove and return a submitted group, checking its kind and size
        first (a refused slot stays settleable)."""
        pending = self._pipeline.get(router_id)
        if not isinstance(pending, kind):
            raise ProtocolError(
                f"router slot {router_id} holds no pending group of that "
                "kind (never submitted, or already waited on)"
            )
        if n_items is not None and n_items != len(pending.requests):
            raise ProtocolError(
                f"router slot {router_id} has {len(pending.requests)} "
                f"item(s), waiter expected {n_items}"
            )
        del self._pipeline[router_id]
        return pending

    def submit_gets(self, requests: list[GetRequest]) -> int:
        """Submit one :meth:`plan_gets` group (a shared-primary GET
        sub-batch) as a single record; returns a router slot id for
        :meth:`wait_gets`."""
        requests = list(requests)
        owners = self._read_owners(requests[0].tag) if requests else []
        pending = _PendingGetGroup(requests=requests)
        if owners:
            pending.primary = owners[0]
            pending.local_id = self._submit_to(owners[0], requests, "get")
        return self._park(pending)

    def wait_gets(self, router_id: int, n_items: int | None = None) -> list[Message]:
        """Settle one GET group into per-item responses.

        A group whose primary failed (refused at submit, or lost in
        flight) routes every item past it through the surviving
        replicas; a live primary's per-item miss consults the replicas
        and read-repairs the primary on a replica hit.  Items with no
        live owner anywhere come back ``found=False`` / ``no live
        owner``.
        """
        pending = self._take(router_id, _PendingGetGroup, n_items)
        requests, shard = pending.requests, pending.primary
        if shard is None:
            return [self._route_get(r) for r in requests]
        responses = self._wait_on(shard, pending.local_id, len(requests), "get")
        if responses is None:
            return [self._route_get(r, failed=shard) for r in requests]
        out: list[Message] = []
        for request, response in zip(requests, responses):
            _check_get(shard, response)
            if response.found:
                self.stats.gets_routed += 1
                out.append(response)
            else:
                out.append(self._route_get(request, missed=shard))
        return out

    def submit_puts(self, requests: list[PutRequest]) -> int:
        """Submit a PUT group: one batch record to every owner shard of
        the group's items; returns a router slot id for
        :meth:`wait_puts`."""
        requests = list(requests)
        self.stats.puts_routed += len(requests)
        owners = [self._write_owners(r.tag) for r in requests]
        pending = _PendingPutGroup(requests=requests, owners=owners)
        for shard, positions in self._by_owner_shard(owners):
            sub = [requests[p] for p in positions]
            pending.subs.append((shard, self._submit_to(shard, sub, "put"), positions))
        return self._park(pending)

    def wait_puts(self, router_id: int, n_items: int | None = None) -> list[Message]:
        """Settle one PUT group into per-item verdicts (see
        :meth:`_put_verdict`); items no owner answered come back
        ``accepted=False`` with a ``no live owner`` reason."""
        pending = self._take(router_id, _PendingPutGroup, n_items)
        answers: list[dict[str, Message]] = [{} for _ in pending.requests]
        for shard, local_id, positions in pending.subs:
            items = self._wait_on(shard, local_id, len(positions), "put")
            if items is None:
                self.stats.put_timeouts += len(positions)
                continue
            for p, item in zip(positions, items):
                answers[p][shard] = item
        out: list[Message] = []
        for owners, answer in zip(pending.owners, answers):
            verdict = self._put_verdict(owners, answer)
            out.append(
                PutResponse(accepted=False, reason=NO_LIVE_OWNER)
                if verdict is None else verdict
            )
        return out

    def submit(self, request: Message) -> int:
        """Submit one request as a one-item group; settle with :meth:`wait`."""
        if isinstance(request, GetRequest):
            return self.submit_gets([request])
        if isinstance(request, PutRequest):
            return self.submit_puts([request])
        raise ProtocolError(f"cluster router cannot route {type(request).__name__}")

    def wait(self, router_id: int) -> Message:
        """Settle a one-item group; semantics match :meth:`call`."""
        pending = self._pipeline.get(router_id)
        if not isinstance(pending, _PendingPutGroup):
            (response,) = self.wait_gets(router_id, 1)
            return response
        (response,) = self.wait_puts(router_id, 1)
        if isinstance(response, PutResponse) and response.reason == NO_LIVE_OWNER:
            raise NoLiveOwnerError(
                f"{NO_LIVE_OWNER} for tag {pending.requests[0].tag[:8].hex()}"
            )
        return response

    def call_batch(self, requests: list[Message]) -> list[Message]:
        """Route a uniform batch: every GET group, or the whole PUT batch
        as one group, is submitted and settled in turn."""
        requests = list(requests)
        if not requests:
            return []
        if all(isinstance(r, PutRequest) for r in requests):
            with self.tracer.span("router.batch_put", clock=self.clock,
                                  items=len(requests)):
                return self.wait_puts(self.submit_puts(requests), len(requests))
        if not all(isinstance(r, GetRequest) for r in requests):
            raise ProtocolError("call_batch needs a uniform list of GETs or PUTs")
        out: list[Message] = [None] * len(requests)
        with self.tracer.span("router.batch_get", clock=self.clock,
                              items=len(requests)):
            for group in self.plan_gets(requests):
                sub = [requests[i] for i in group]
                for i, response in zip(group, self.wait_gets(self.submit_gets(sub), len(sub))):
                    out[i] = response
        return out

    # -- one-way sends ---------------------------------------------------------
    def send_oneway(self, request: Message) -> int:
        return self.send_oneway_batch([request])

    def send_oneway_batch(self, requests: list[PutRequest]) -> int:
        """Fire-and-forget PUTs: one record per owner shard; the merged
        per-item verdicts surface once from :meth:`drain_responses` under
        the returned router id (a plain verdict for a one-item batch)."""
        requests = list(requests)
        if not all(isinstance(r, PutRequest) for r in requests):
            raise ProtocolError("one-way sends carry PUT requests")
        self.stats.puts_routed += len(requests)
        owners = [self._write_owners(r.tag) for r in requests]
        router_id = self._fresh_router_id()
        pending = _PendingOneway(owners=owners, answers=[{} for _ in requests])
        for shard, positions in self._by_owner_shard(owners):
            if not self._allowed(shard, len(positions)):
                continue  # breaker open: those copies stay unacknowledged
            sub = [requests[p] for p in positions]
            local_id = self._clients[shard].send_oneway_batch(sub)
            self._batch_by_key[(shard, local_id)] = (router_id, positions)
            pending.outstanding.add(shard)
        if pending.outstanding:
            self._batches[router_id] = pending
        return router_id

    # -- drain / correlation ---------------------------------------------------
    def drain_responses(self) -> list[Message]:
        """Drain every shard client and emit at most one response per
        one-way router id, once every item has a verdict.

        Replica acks, read-repair acks, and stale responses from revived
        shards are absorbed into router counters instead of reaching the
        runtime, whose PUT accounting therefore sees the cluster exactly
        as it would see one store.  A batch's merge state is dropped once
        every shard it was sent to has answered (or was detached).
        """
        touched: dict[int, _PendingOneway] = {}
        for shard in sorted(self._clients):
            for response in self._clients[shard].drain_responses():
                key = (shard, response.request_id)
                if key in self._absorb_keys:
                    self._absorb_keys.discard(key)
                    if isinstance(response, PutResponse) and response.accepted:
                        self.stats.repair_acks += 1
                    else:
                        self.stats.repair_rejects += 1
                    continue
                entry = self._batch_by_key.pop(key, None)
                if entry is None:
                    # A stale response from a revived shard, or a reply to
                    # a send the router already accounted: dropped.
                    continue
                router_id, positions = entry
                pending = self._batches[router_id]
                pending.outstanding.discard(shard)
                touched[router_id] = pending
                for p, item in zip(positions, _ack_items(response, len(positions))):
                    if pending.emitted:
                        self._count_replica_ack(item)
                    else:
                        pending.answers[p][shard] = item
        out: list[Message] = []
        for router_id, pending in touched.items():
            if not pending.emitted and all(pending.answers):
                pending.emitted = True
                verdicts = [
                    self._put_verdict(owners, answer)
                    for owners, answer in zip(pending.owners, pending.answers)
                ]
                out.append(_oneway_reply(verdicts, router_id))
            if not pending.outstanding:
                del self._batches[router_id]
        return out

    # -- observability ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Routing counters plus breaker states and the per-shard
        clients' retry/duplication counters, aggregated under canonical
        ``router.<metric>`` keys (``router.breaker.<shard>.state`` per
        breaker)."""
        snap = self.stats.snapshot()
        snap["router.retries"] = sum(
            c.retries for c in self._clients.values()
        )
        snap["router.backoff_seconds_total"] = sum(
            c.backoff_seconds_total for c in self._clients.values()
        )
        snap["router.records_rejected"] = sum(
            c.records_rejected for c in self._clients.values()
        )
        snap["router.duplicate_responses_dropped"] = sum(
            c.duplicates_dropped for c in self._clients.values()
        )
        snap["router.pipelined_submits"] = sum(
            c.submits for c in self._clients.values()
        )
        snap["router.pipeline_max_inflight"] = sum(
            c.max_inflight for c in self._clients.values()
        )
        snap["router.in_transition"] = int(self.in_transition)
        snap["router.circuit_opens"] = sum(
            b.opens for b in self._breakers.values()
        )
        snap["router.open_circuits"] = sum(
            1 for b in self._breakers.values() if b.state == OPEN
        )
        for shard in sorted(self._breakers):
            breaker = self._breakers[shard]
            snap[f"router.breaker.{shard}.state"] = breaker.state
            snap[f"router.breaker.{shard}.opens"] = breaker.opens
            snap[f"router.breaker.{shard}.skips"] = breaker.skips
        return snap

def _check_get(shard: str, response: Message) -> None:
    if not isinstance(response, GetResponse):
        raise ProtocolError(
            f"shard {shard!r} answered GET with {type(response).__name__}"
        )


def _ack_items(response: Message, n_items: int) -> list[Message]:
    """Per-item verdicts carried by one shard's one-way ack; empty when
    malformed (those copies stay unacknowledged)."""
    if isinstance(response, BatchPutResponse):
        items: list[Message] = list(response.items)
    elif isinstance(response, (PutResponse, ErrorMessage)):
        items = [response]
    else:
        return []
    return items if len(items) == n_items else []


def _oneway_reply(verdicts: list[Message], router_id: int) -> Message:
    """A one-item batch is answered with its plain verdict.  A larger one
    gets a merged BatchPutResponse; a per-shard store error becomes a
    rejection whose reason stays machine-readable (errors.StoreError's
    code plus the numeric wire code)."""
    if len(verdicts) == 1:
        return with_request_id(verdicts[0], router_id)
    return BatchPutResponse(
        items=tuple(
            PutResponse(accepted=False, reason=f"store_error:{v.code}")
            if isinstance(v, ErrorMessage) else v
            for v in verdicts
        ),
        request_id=router_id,
    )
