"""Closed-loop measurement: wall and simulated time per request, plus
one flat counter snapshot that every derived metric is a delta of."""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import Inputs, Rig, batch_of

CATEGORIES = ("crypto", "transition", "marshal", "network", "compute", "paging")

# Reference-speed timing.  On a shared virtual machine the same code runs
# up to ~1.7x slower for seconds to minutes at a time, so raw wall figures
# of one run differ from the next by a quarter or more.  A fixed probe
# runs between requests about every PROBE_INTERVAL_S of request time.  A
# request's reference time is its wall time scaled by REFERENCE_PROBE_S
# over the mean of the probes on either side: its wall time on a machine
# where the probe takes that long.  The probe is mostly interpreter work
# (dict, int and bytes operations) with a little sha256 and small-array
# numpy: on this program's hot path, a probe of that mix slowed in step
# with the requests, where a numpy-heavy probe over-corrected.
REFERENCE_PROBE_S = 2e-3
PROBE_INTERVAL_S = 0.25
_PROBE_STATE = np.arange(1024, dtype=np.uint8).reshape(64, 16)
_PROBE_TABLE = np.arange(256, dtype=np.uint8)[::-1].copy()
_PROBE_ORDER = np.array([0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11])
_PROBE_BYTES = bytes(2730)


def _probe_slice() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= int.from_bytes(key.to_bytes(4, "big")[1:3], "big")
    hashlib.sha256(_PROBE_BYTES).digest()
    state = _PROBE_STATE
    for _ in range(7):
        state = _PROBE_TABLE[state][:, _PROBE_ORDER]
        state ^= _PROBE_STATE
    return time.perf_counter() - start


def probe_seconds() -> float:
    """Time of the fixed probe work, about 2 ms: three slices, scaled
    from their median so one interrupted slice does not count."""
    return 3 * statistics.median(_probe_slice() for _ in range(3))


def reference_seconds(wall_s: float, probe_before: float, probe_after: float) -> float:
    return wall_s * REFERENCE_PROBE_S * 2 / (probe_before + probe_after)


class ReferenceTimer:
    """Reference time of a stretch of work that calls ``lap()`` between
    its steps; a probe runs at a lap once PROBE_INTERVAL_S has passed."""

    def __init__(self):
        self.reference_s = 0.0
        self._probe = probe_seconds()
        self._start = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        wall = time.perf_counter() - self._start
        if force or wall >= PROBE_INTERVAL_S:
            probe = probe_seconds()
            self.reference_s += reference_seconds(wall, self._probe, probe)
            self._probe = probe
            self._start = time.perf_counter()

    def stop(self) -> float:
        self.lap(force=True)
        return self.reference_s


def counters(rig: Rig) -> dict[str, float]:
    """Every counter the benchmark reads, flattened; metrics are deltas."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for app in rig.apps:
        for key, value in app.runtime.snapshot().items():
            if key.startswith("runtime.") and isinstance(value, (int, float)):
                add(key, value)
        add("sgx.transitions", app.enclave.transition_count)
        client = app.runtime.client    # RpcClient, or ClusterRouter on a cluster
        add("net.records", client.records_sent)
        if app.is_cluster:
            for key, value in client.snapshot().items():
                if key.startswith("router.") and isinstance(value, (int, float)):
                    add(key, value)
    for store in rig.stores:
        for key, value in store.snapshot().items():
            if key.startswith(("store.", "durable.")) and isinstance(value, (int, float)):
                add(key, value)
        add("sgx.transitions", store.enclave.transition_count)
        add("store.entries", len(store))
        add("store.blob_bytes", store.blobstore.bytes_stored)
    for platform in rig.platforms:
        add("sgx.page_faults", platform.epc.fault_count)
    for key, value in rig.session.network.snapshot().items():
        add(key, value)
    if rig.engine is not None:
        for key, value in rig.engine.snapshot().items():
            add(key, value)
        add("engine.overlap_cycles", rig.engine.overlap_cycles_saved)
    app_cats = rig.app_clock.breakdown()
    for cat in CATEGORIES:
        add(f"cycles.app.{cat}", app_cats.get(cat, 0.0))
        add(f"cycles.store.{cat}", 0.0)
    for clock in rig.shard_clocks:
        for cat, cycles in clock.breakdown().items():
            if cat in CATEGORIES:
                add(f"cycles.store.{cat}", cycles)
    for index, clock in enumerate(rig.shard_clocks):
        out[f"cycles.shard{index}"] = clock.cycles
    return out


def delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def makespan_cycles(rig: Rig, d: dict) -> float:
    """Simulated makespan of a counter delta: app clock plus every shard
    clock, minus the engine's overlap credit (bench/harness.py's
    ``_pipeline_run`` rule).  Single-store rigs have one machine."""
    app = sum(d[f"cycles.app.{cat}"] for cat in CATEGORIES)
    shards = sum(d[f"cycles.store.{cat}"] for cat in CATEGORIES)
    return app + shards - d.get("engine.overlap_cycles", 0.0)


@dataclass
class Loop:
    """Outcome of one closed-loop pass."""

    requests: int = 0
    items: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)   # per request
    ref_s: list[float] = field(default_factory=list)    # per request, reference speed
    sim_s: list[float] = field(default_factory=list)    # per request
    probes_s: list[float] = field(default_factory=list)
    close_wall_s: float = 0.0
    close_ref_s: float = 0.0
    before: dict = field(default_factory=dict)
    counted: dict = field(default_factory=dict)   # after spec.counted_requests
    after: dict = field(default_factory=dict)     # after close()

    @property
    def total_wall_s(self) -> float:
        return sum(self.wall_s) + self.close_wall_s

    @property
    def total_ref_s(self) -> float:
        return sum(self.ref_s) + self.close_ref_s


def _sim_cycles(rig: Rig) -> float:
    total = rig.app_clock.cycles + sum(c.cycles for c in rig.shard_clocks)
    if rig.engine is not None:
        total -= rig.engine.overlap_cycles_saved
    return total


def run_loop(
    rig: Rig,
    inputs: Inputs,
    seconds: float = 0.0,
    requests: int | None = None,
) -> Loop:
    """Send requests back to back, then close() every app.

    Without ``requests`` the loop runs until ``seconds`` have passed and
    at least ``spec.counted_requests`` were sent; with it, exactly
    ``requests`` are sent.  Every returned value is compared with the
    plain function's output."""
    spec = rig.spec
    freq = rig.app_clock.params.cpu_freq_hz
    loop = Loop(before=counters(rig))
    loop.probes_s.append(probe_seconds())
    window_s = 0.0

    def close_window() -> None:
        loop.probes_s.append(probe_seconds())
        before, after = loop.probes_s[-2:]
        loop.ref_s.extend(
            reference_seconds(wall, before, after)
            for wall in loop.wall_s[len(loop.ref_s):]
        )

    start = time.perf_counter()
    index = spec.warm_requests
    while True:
        if requests is not None:
            if loop.requests >= requests:
                break
        elif (loop.requests >= spec.counted_requests
              and time.perf_counter() - start >= seconds):
            break
        batch = batch_of(spec, inputs, index)
        if len(batch) < spec.batch:
            raise RuntimeError("request sequence exhausted; raise SEQUENCE_ITEMS")
        payload = [inputs.distinct[i] for i in batch]
        sim0 = _sim_cycles(rig)
        wall0 = time.perf_counter()
        try:
            values = rig.request(index, payload)
        except Exception as exc:  # a failed request is counted, not fatal
            values = None
            loop.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - wall0
        loop.wall_s.append(wall)
        loop.sim_s.append((_sim_cycles(rig) - sim0) / freq)
        if values is None or len(values) != len(batch):
            loop.failed += len(batch)
        else:
            loop.failed += sum(
                value != inputs.expected[i] for value, i in zip(values, batch)
            )
        loop.requests += 1
        loop.items += len(batch)
        index += 1
        if loop.requests == spec.counted_requests:
            loop.counted = counters(rig)
        window_s += wall
        if window_s >= PROBE_INTERVAL_S:
            close_window()
            window_s = 0.0
    close_window()
    wall0 = time.perf_counter()
    rig.close()
    loop.close_wall_s = time.perf_counter() - wall0
    loop.probes_s.append(probe_seconds())
    loop.close_ref_s = reference_seconds(loop.close_wall_s, *loop.probes_s[-2:])
    loop.after = counters(rig)
    return loop


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def tail_mean(values: list[float], share: float = 0.10) -> float:
    """Mean of the largest ``share`` of ``values`` (at least one)."""
    ordered = sorted(values, reverse=True)
    return statistics.fmean(ordered[:max(1, round(share * len(ordered)))])
