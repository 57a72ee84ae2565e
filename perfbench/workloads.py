"""The three closed-loop workloads and the seeded inputs they replay.

Every workload is one client in one thread: the next request is sent
only after the previous one returned.  Inputs (the distinct byte
strings and the Zipf-ordered request sequence) come from the seed alone
and are generated before any session exists; the program under test
only ever receives the byte strings.  Why each workload exists is in
its ``Spec.why`` and, at length, in METRICS.md.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import repro
from repro import RuntimeConfig
from repro.store.resultstore import StoreConfig

KIB = 1024


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    n_inputs: int        # distinct inputs the Zipf draw picks from
    zipf_s: float
    input_bytes: int
    result_bytes: int
    batch: int           # items per request: 1 = one call, >1 = one map()
    warm_requests: int   # requests sent during set-up, before measuring
    # Requests whose counters and simulated time make the counter and
    # sim_* metrics.  A fixed count keeps those metrics independent of
    # wall speed: a faster program completes more requests in --seconds,
    # and on hot-single and cluster-batch later requests hit more often.
    counted_requests: int


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="hot-single",
            why="hit path: GET, Fig. 3 verification and decrypt on one "
                "store, with cross-app hits; per-call fixed costs dominate",
            n_inputs=256, zipf_s=1.1, input_bytes=KIB, result_bytes=256,
            batch=1, warm_requests=256, counted_requests=2000,
        ),
        Spec(
            name="churn-durable",
            why="write path: ~90% misses compute, encrypt 8 KiB, PUT, "
                "evict and group-commit to the WAL; per-byte crypto dominates",
            n_inputs=4096, zipf_s=0.6, input_bytes=KIB, result_bytes=8 * KIB,
            batch=1, warm_requests=128, counted_requests=1000,
        ),
        Spec(
            name="cluster-batch",
            why="engine, router, replication and coalescing: map() batches "
                "of 16 over 4 shards x2 replicas with a depth-8 pipeline",
            n_inputs=1024, zipf_s=0.9, input_bytes=KIB, result_bytes=KIB,
            batch=16, warm_requests=8, counted_requests=128,
        ),
    )
}

# Every app's bounded async PUT queue (put_queue_entries, put_flush_batch).
PUT_QUEUE = 16

# Items pre-drawn per run; more than any workload completes in 60 s.
SEQUENCE_ITEMS = 40_000


def expand(data: bytes, size: int) -> bytes:
    """The deduplicated function: sha256(data) repeated to ``size`` bytes.
    Cheap and deterministic, so the wall-noise ``compute`` charge stays a
    small share of simulated time."""
    digest = hashlib.sha256(data).digest()
    return (digest * (size // len(digest) + 1))[:size]


@dataclass
class Inputs:
    distinct: list[bytes]
    expected: list[bytes]        # expand() of each distinct input, run plainly
    sequence: list[int]          # index into ``distinct`` per item, in order

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.distinct:
            h.update(blob)
        h.update(b"".join(i.to_bytes(4, "big") for i in self.sequence))
        return h.hexdigest()


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Distinct inputs plus a Zipf(s) request sequence, from ``seed`` only."""
    rng = random.Random(f"perfbench/{spec.name}/{seed}")
    distinct = [rng.randbytes(spec.input_bytes) for _ in range(spec.n_inputs)]
    # Ranks are shuffled so popularity is unrelated to generation order.
    ranks = list(range(spec.n_inputs))
    rng.shuffle(ranks)
    weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in ranks]
    cum = list(itertools.accumulate(weights))
    sequence = rng.choices(
        range(spec.n_inputs), cum_weights=cum,
        k=spec.warm_requests * spec.batch + SEQUENCE_ITEMS,
    )
    expected = [expand(blob, spec.result_bytes) for blob in distinct]
    return Inputs(distinct=distinct, expected=expected, sequence=sequence)


@dataclass
class Rig:
    """One built deployment: the apps that send requests and the
    machines whose clocks and counters the benchmark reads."""

    spec: Spec
    session: "repro.Session"
    apps: list = field(default_factory=list)       # Session per client app
    funcs: list = field(default_factory=list)      # Deduplicable per app
    engine: object = None
    stores: list = field(default_factory=list)     # every ResultStore
    shard_clocks: list = field(default_factory=list)  # machines other than the app's
    platforms: list = field(default_factory=list)  # every SgxPlatform

    @property
    def app_clock(self):
        return self.session.clock

    def request(self, index: int, batch: list[bytes]) -> list[bytes]:
        """Send request ``index``; single-call workloads alternate apps."""
        if self.spec.batch == 1:
            func = self.funcs[index % len(self.funcs)]
            return [func(batch[0])]
        return self.funcs[0].map(batch)

    def close(self) -> None:
        for app in self.apps:
            app.close()


def _runtime_config(app_id: str) -> RuntimeConfig:
    return RuntimeConfig(
        app_id=app_id,
        put_queue_entries=PUT_QUEUE,
        put_flush_batch=PUT_QUEUE,
    )


def build(spec: Spec, inputs: Inputs, lap: Callable[[], None] = lambda: None) -> Rig:
    """connect(), attest, mark, and run the warm phase: the set-up that
    setup_s times.  ``lap`` is called between steps; the set-up timer
    probes machine speed there."""
    seed = f"perfbench/{spec.name}".encode()
    if spec.name == "cluster-batch":
        session = repro.connect(
            shards=4, replication_factor=2, seed=seed, tracing=False,
            runtime_config=_runtime_config("app"),
        )
    else:
        store_config = (
            StoreConfig(durable=True, capacity_entries=128, eviction="lru")
            if spec.name == "churn-durable" else None
        )
        session = repro.connect(
            seed=seed, tracing=False, store_config=store_config,
            runtime_config=_runtime_config("app"),
        )

    size = spec.result_bytes

    def kernel(data: bytes) -> bytes:
        return expand(data, size)

    kernel.__name__ = kernel.__qualname__ = f"expand_{size}"
    marked = session.mark(version="1.0")(kernel)
    rig = Rig(spec=spec, session=session)
    rig.apps.append(session)
    rig.funcs.append(marked.deduplicable)
    if spec.name == "hot-single":
        sibling = session.sibling("app-b", runtime_config=_runtime_config("app-b"))
        rig.apps.append(sibling)
        rig.funcs.append(sibling.deduplicable(marked.description))
    if session.is_cluster:
        rig.engine = session.enable_pipeline(depth=8)
        nodes = [node for _, node in sorted(session.cluster.shards.items())]
        rig.stores = [node.store for node in nodes]
        rig.shard_clocks = [node.platform.clock for node in nodes]
        rig.platforms = [session.platform] + [node.platform for node in nodes]
    else:
        # Fig. 1: the store shares the app's machine and clock.
        rig.stores = [session.store]
        rig.platforms = [session.platform]

    lap()
    for index in range(spec.warm_requests):
        batch = batch_of(spec, inputs, index)
        rig.request(index, [inputs.distinct[i] for i in batch])
        lap()
    for app in rig.apps:
        app.flush_puts()
    return rig


def batch_of(spec: Spec, inputs: Inputs, index: int) -> list[int]:
    """Input indices of request ``index`` (warm requests come first)."""
    start = index * spec.batch
    return inputs.sequence[start:start + spec.batch]
