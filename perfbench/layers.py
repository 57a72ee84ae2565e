"""The traced run: time spent in each layer's public functions.

Spans are recorded from the benchmark's side only.  For the traced pass
the listed methods are swapped for timing wrappers and restored after;
the program's own tracer stays off (``tracing=False``).  A wrapped call
made while another wrapped call is running is its child, and a layer's
*self* time is its inclusive time minus the time its children cover, so
the self times of all layers plus the time outside every wrapped call
(``trace.unattributed_us``) add up to the traced wall total.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.cluster.router import ClusterRouter
from repro.core import runtime as runtime_module
from repro.core.runtime import DedupRuntime
from repro.crypto.aes import AES128
from repro.crypto.gcm import AesGcm
from repro.durable.wal import DurableLog
from repro.engine import PipelineEngine
from repro.net.channel import ChannelEndpoint
from repro.net.rpc import RpcClient
from repro.store.metadata import ENTRY_SLOT_BYTES
from repro.store.resultstore import ResultStore

from measure import CATEGORIES, Loop, delta

_REQUEST_METHODS = (
    "call", "call_batch", "submit", "wait", "submit_gets", "wait_gets",
    "submit_puts", "wait_puts", "send_oneway", "send_oneway_batch",
    "drain_responses",
)

# (owner, attribute, span key).  The part of the key before the first
# dot is the layer the span's self time is charged to.
WRAPPED = (
    [(DedupRuntime, name, "runtime.self")
     for name in ("execute_result", "execute_many_results")]
    + [
        (DedupRuntime, "flush_puts", "runtime.flush"),
        (DedupRuntime, "drain_put_batch", "runtime.drain"),
        (runtime_module, "derive_tag", "runtime.tag"),
        (AesGcm, "encrypt", "crypto.gcm_encrypt"),
        (AesGcm, "decrypt", "crypto.gcm_decrypt"),
        (AES128, "encrypt_blocks", "crypto.aes_blocks"),
        (AES128, "encrypt_block", "crypto.aes_block"),
        (ChannelEndpoint, "protect", "net.channel"),
        (ChannelEndpoint, "unprotect", "net.channel"),
    ]
    + [(RpcClient, name, "net.rpc") for name in _REQUEST_METHODS]
    + [(ClusterRouter, name, "cluster.router") for name in _REQUEST_METHODS]
    + [
        (ResultStore, "pump", "store.pump"),
        (DurableLog, "commit", "durable.commit"),
        (PipelineEngine, "run_gets", "engine.run"),
        (PipelineEngine, "run_puts", "engine.run"),
    ]
)


class LayerTracer:
    """Inclusive and self wall time per span key, kept in memory."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # Inclusive time of PUT drains the caller absorbed, i.e. those
        # not issued by an explicit flush_puts()/close().
        self.backpressure_drain_ns = 0
        self.backpressure_drains = 0
        self.aes_blocks = 0
        self.top_ns = 0            # inclusive time of outermost spans
        # Open spans: key and time covered by finished children.  Two
        # flat stacks, so a wrapped call allocates no container.
        self._keys: list[str] = []
        self._child_ns: list[int] = []

    def wrap(self, key: str, fn):
        keys, child_stack = self._keys, self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if key == "crypto.aes_blocks":
                self.aes_blocks += len(args[1])  # (self, blocks) -> N blocks
            keys.append(key)
            child_stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                keys.pop()
                self.self_ns[key] += elapsed - child_stack.pop()
                self.calls[key] += 1
                if child_stack:
                    child_stack[-1] += elapsed
                else:
                    self.top_ns += elapsed
                if key == "runtime.drain" and not (keys and keys[-1] == "runtime.flush"):
                    self.backpressure_drain_ns += elapsed
                    self.backpressure_drains += 1

        return traced


@contextmanager
def traced_layers(tracer: LayerTracer):
    """Swap every WRAPPED target for its timing wrapper; always restore."""
    saved = []
    try:
        for owner, name, key in WRAPPED:
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(key, original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# name -> (unit, better).  Per-item values divide by the traced pass's
# deduplicated calls; "count" values are totals over the traced pass.
PER_LAYER = {
    "runtime.self_us": ("us", "lower"),
    "runtime.tag_us": ("us", "lower"),
    "runtime.put_drain_us": ("us", "lower"),
    "runtime.put_drains": ("1/item", "lower"),
    "runtime.put_useful_ratio": ("ratio", "higher"),
    "crypto.gcm_encrypt_us": ("us", "lower"),
    "crypto.gcm_decrypt_us": ("us", "lower"),
    "crypto.aes_us": ("us", "lower"),
    "crypto.aes_calls": ("1/item", "lower"),
    "crypto.aes_blocks": ("1/item", "lower"),
    "sgx.transitions": ("1/item", "lower"),
    "sgx.page_faults": ("1/item", "lower"),
    **{f"sim.{side}.{cat}_us": ("us", "lower")
       for side in ("app", "store") for cat in CATEGORIES},
    "sim.store.max_shard_share": ("ratio", "lower"),
    "net.channel_us": ("us", "lower"),
    "net.rpc_self_us": ("us", "lower"),
    "net.records": ("1/item", "lower"),
    "net.messages": ("1/item", "lower"),
    "net.bytes": ("B/item", "lower"),
    "cluster.router_self_us": ("us", "lower"),
    "cluster.replica_puts_per_put": ("ratio", "lower"),
    "cluster.failovers": ("count", "lower"),
    "cluster.read_repairs": ("count", "lower"),
    "store.pump_self_us": ("us", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.evictions": ("1/item", "lower"),
    "store.duplicate_puts_per_put": ("ratio", "lower"),
    "store.bytes_per_entry": ("B", "lower"),
    "durable.commit_us": ("us", "lower"),
    "durable.commits": ("1/item", "lower"),
    "durable.log_bytes_per_put_byte": ("ratio", "lower"),
    "durable.checkpoints": ("count", "lower"),
    "engine.self_us": ("us", "lower"),
    "engine.rounds_per_batch": ("1/batch", "lower"),
    "engine.coalesced_share": ("ratio", "higher"),
    "engine.overlap_share": ("ratio", "higher"),
    "trace.unattributed_us": ("us", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rig, traced: Loop, untraced: Loop, tracer: LayerTracer) -> dict:
    """Every PER_LAYER metric of the traced pass, as {name: value}."""
    d = delta(traced.after, traced.before)
    items = traced.items
    us_per_cycle_item = 1e6 / rig.app_clock.params.cpu_freq_hz / items

    def self_us(*keys: str) -> float:
        return sum(tracer.self_ns.get(k, 0) for k in keys) / 1e3 / items

    shard_cycles = [d.get(f"cycles.shard{i}", 0.0) for i in range(len(rig.shard_clocks))]
    get_items = d["runtime.calls"] - d["runtime.l1_hits"]
    store_puts = d.get("store.puts", 0)
    m = {
        "runtime.self_us": self_us("runtime.self", "runtime.flush", "runtime.drain"),
        "runtime.tag_us": self_us("runtime.tag"),
        "runtime.put_drain_us": tracer.backpressure_drain_ns / 1e3 / items,
        "runtime.put_drains": tracer.backpressure_drains / items,
        "runtime.put_useful_ratio": _ratio(
            d["runtime.puts_acked_unique"], d["runtime.puts_sent"]),
        "crypto.gcm_encrypt_us": self_us("crypto.gcm_encrypt"),
        "crypto.gcm_decrypt_us": self_us("crypto.gcm_decrypt"),
        "crypto.aes_us": self_us("crypto.aes_blocks", "crypto.aes_block"),
        "crypto.aes_calls": tracer.calls.get("crypto.aes_blocks", 0) / items,
        "crypto.aes_blocks": tracer.aes_blocks / items,
        "sgx.transitions": d["sgx.transitions"] / items,
        "sgx.page_faults": d["sgx.page_faults"] / items,
        # A single store shares the app's machine: its cycles are under
        # sim.app.* and the one store machine is the busiest.
        "sim.store.max_shard_share": _ratio(max(shard_cycles), sum(shard_cycles))
        if shard_cycles else 1.0,
        "net.channel_us": self_us("net.channel"),
        "net.rpc_self_us": self_us("net.rpc"),
        "net.records": d["net.records"] / items,
        "net.messages": d["net.messages"] / items,
        "net.bytes": d["net.bytes"] / items,
        "cluster.router_self_us": self_us("cluster.router"),
        "cluster.replica_puts_per_put": _ratio(
            d.get("router.replica_puts", 0), d.get("router.puts", 0)),
        "cluster.failovers": d.get("router.failovers", 0),
        "cluster.read_repairs": d.get("router.read_repairs", 0),
        "store.pump_self_us": self_us("store.pump"),
        "store.hit_ratio": _ratio(d["store.hits"], d["store.gets"]),
        "store.evictions": d["store.evictions"] / items,
        "store.duplicate_puts_per_put": _ratio(d["store.puts_duplicated"], store_puts),
        "store.bytes_per_entry": ENTRY_SLOT_BYTES + _ratio(
            traced.after["store.blob_bytes"], traced.after["store.entries"]),
        "durable.commit_us": self_us("durable.commit"),
        "durable.commits": d.get("durable.commits", 0) / items,
        "durable.log_bytes_per_put_byte": _ratio(
            d.get("durable.log_bytes", 0), store_puts * rig.spec.result_bytes)
        if rig.stores[0].durable is not None else 0.0,
        "durable.checkpoints": d.get("durable.checkpoints", 0),
        "engine.self_us": self_us("engine.run"),
        "engine.rounds_per_batch": _ratio(d.get("engine.rounds", 0), d["runtime.batches"]),
        "engine.coalesced_share": _ratio(d.get("engine.coalesced_gets", 0), get_items),
        "engine.overlap_share": 1 - _ratio(
            d.get("engine.sim_seconds_total", 0.0),
            d.get("engine.serial_sim_seconds_total", 0.0))
        if rig.engine is not None else 0.0,
        "trace.unattributed_us": (traced.total_wall_s * 1e9 - tracer.top_ns) / 1e3 / items,
        # Reference-speed totals, so a machine slowdown during one
        # replay does not read as tracing cost.
        "trace.overhead_share": traced.total_ref_s / untraced.total_ref_s - 1,
    }
    for side in ("app", "store"):
        for cat in CATEGORIES:
            m[f"sim.{side}.{cat}_us"] = d[f"cycles.{side}.{cat}"] * us_per_cycle_item
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of sync: {set(m) ^ set(PER_LAYER)}")
    return m


def integrity(rig, traced: Loop, untraced: Loop, tracer: LayerTracer) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for the traced pass against the plain one."""
    checks = []
    total_ns = traced.total_wall_s * 1e9
    unattributed_ns = total_ns - tracer.top_ns
    residual = abs(sum(tracer.self_ns.values()) + unattributed_ns - total_ns) / total_ns
    checks.append((
        "layer self times + trace.unattributed_us == traced wall total within 1%",
        residual <= 0.01, f"residual {residual:.2e} of {traced.total_wall_s:.3f} s",
    ))

    dt = delta(traced.after, traced.before)
    du = delta(untraced.after, untraced.before)
    counts = sorted(k for k, v in dt.items() if isinstance(v, int))
    differing = [k for k in counts if dt[k] != du.get(k)]
    checks.append((
        "traced counters equal the untraced run's exactly",
        not differing and traced.failed == untraced.failed,
        f"{len(counts)} counters compared"
        + (f"; differ: {', '.join(differing)}" if differing else ""),
    ))

    moved = []
    for side in ("app", "store"):
        for cat in CATEGORIES:
            if cat == "compute":
                continue
            a, b = dt[f"cycles.{side}.{cat}"], du[f"cycles.{side}.{cat}"]
            if abs(a - b) > 1e-9 * max(abs(a), abs(b), 1.0):
                moved.append(f"{side}.{cat}")
    us_per_cycle_item = 1e6 / rig.app_clock.params.cpu_freq_hz / traced.items
    traced_us, untraced_us = (d["cycles.app.compute"] * us_per_cycle_item for d in (dt, du))
    checks.append((
        "simulated cycles equal except the wall-measured compute charge",
        not moved,
        f"compute {traced_us:.3g} us/item traced vs {untraced_us:.3g} untraced"
        + (f"; moved: {', '.join(moved)}" if moved else ""),
    ))
    return checks
