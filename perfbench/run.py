"""SPEED benchmark: one closed-loop workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload hot-single --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` sends the requests three times, each on a fresh deployment:
a timed plain pass, a replay with every layer's public functions wrapped
in timers, and a plain replay to compare it with; it reports the
per-layer split.  Every returned value is checked
against the plain function; the last line of standard output is one
JSON object.  METRICS.md defines every metric.  The program under test
is imported from ``src/`` beside this directory; without it the run
exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# name -> (unit, better); the order is the printing order.
END_TO_END = {
    "ref_wall_ops_per_s": ("ops/s", "higher"),
    "ref_wall_p50_ms": ("ms", "lower"),
    "ref_wall_p90_ms": ("ms", "lower"),
    "sim_ops_per_s": ("ops/s", "higher"),
    "sim_tail_us": ("us", "lower"),
    "dedup_ratio": ("calls/compute", "higher"),
    "stored_bytes_per_result_byte": ("B/B", "lower"),
    "correct_share": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Deployments built per --trace 0 run; setup_s is their median and the
# last one is measured.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def seed_self_test(workloads, spec, seed):
    """Same seed -> byte-identical inputs; another seed -> different ones.
    Returns (ok, the seed's inputs)."""
    inputs = workloads.make_inputs(spec, seed)
    again = workloads.make_inputs(spec, seed)
    other = workloads.make_inputs(spec, seed + 1)
    ok = inputs.digest() == again.digest() != other.digest()
    print(f"seed self-test: seed {seed} repeats byte-identically and seed "
          f"{seed + 1} differs: {'ok' if ok else 'FAILED'}")
    return ok, inputs


def reconcile(d: dict, is_cluster: bool) -> list[tuple[str, float]]:
    """Counter identities and their residuals (printed, never patched)."""
    rows = [
        ("runtime hits + misses == calls",
         d["runtime.calls"] - d["runtime.hits"] - d["runtime.misses"]),
        ("runtime coalesced_hits <= hits",
         max(0, d["runtime.coalesced_hits"] - d["runtime.hits"])),
        ("runtime puts_sent == accepted + rejected + failed + unacknowledged",
         d["runtime.puts_sent"] - d["runtime.puts_accepted"]
         - d["runtime.puts_rejected"] - d["runtime.puts_failed"]
         - d["runtime.puts_unacknowledged"]),
    ]
    if is_cluster:
        rows.append((
            "router gets_routed + engine.coalesced_gets == GET items requested",
            d["router.gets"] + d["engine.coalesced_gets"]
            - (d["runtime.calls"] - d["runtime.l1_hits"]),
        ))
    return rows


def stored_bytes_per_result_byte(rig) -> float:
    """Store metadata plus blob bytes over plaintext bytes of live results."""
    from repro.store.metadata import ENTRY_SLOT_BYTES

    stored = sum(len(s) * ENTRY_SLOT_BYTES + s.blobstore.bytes_stored for s in rig.stores)
    live = set()
    for store in rig.stores:
        live.update(store.stored_tags())
    return stored / (len(live) * rig.spec.result_bytes)


def end_to_end(rig, loop, setups, measure) -> dict:
    """Wall metrics cover the whole run at reference speed (see
    measure.REFERENCE_PROBE_S); counter and sim metrics cover the first
    ``spec.counted_requests`` requests."""
    counted = rig.spec.counted_requests
    d = measure.delta(loop.counted, loop.before)
    freq = rig.app_clock.params.cpu_freq_hz
    return {
        "ref_wall_ops_per_s": loop.items / loop.total_ref_s,
        "ref_wall_p50_ms": 1e3 * measure.quantile(loop.ref_s, 0.50),
        "ref_wall_p90_ms": 1e3 * measure.quantile(loop.ref_s, 0.90),
        "sim_ops_per_s": counted * rig.spec.batch / (measure.makespan_cycles(rig, d) / freq),
        "sim_tail_us": 1e6 * measure.tail_mean(loop.sim_s[:counted]),
        # Calls per recomputation, 1 / (1 - hit ratio): the relative
        # bound then reads alike whether hits are rare or common.
        "dedup_ratio": d["runtime.calls"] / (d["runtime.calls"] - d["runtime.hits"]),
        "stored_bytes_per_result_byte": stored_bytes_per_result_byte(rig),
        "correct_share": (loop.items - loop.failed) / loop.items,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<13} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import measure
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    print(f"workload {spec.name}: {spec.why}")
    seed_ok, inputs = seed_self_test(workloads, spec, args.seed)
    correct = seed_ok

    if args.trace == 0:
        setups = []
        rig = None
        for _ in range(SETUPS):
            rig = None
            gc.collect()
            timer = measure.ReferenceTimer()
            rig = workloads.build(spec, inputs, lap=timer.lap)
            setups.append(timer.stop())
        loop = measure.run_loop(rig, inputs, seconds=args.seconds)
        metrics = end_to_end(rig, loop, setups, measure)
        units = END_TO_END
        counted = loop.sim_s[:spec.counted_requests]
        print(f"closed loop, 1 client, {loop.requests} requests of {spec.batch} "
              f"item(s), {spec.input_bytes} B -> {spec.result_bytes} B; wall "
              f"percentiles over {loop.requests} requests; counter and sim "
              f"metrics over the first {len(counted)}; setup_s median of {SETUPS}")
        print_table("end-to-end", [
            (name, metrics[name], unit, f"({better} is better)")
            for name, (unit, better) in END_TO_END.items()
        ] + [
            ("wall_ops_per_s", loop.items / loop.total_wall_s, "ops/s", "(printed only)"),
            ("wall_p50_ms", 1e3 * measure.quantile(loop.wall_s, 0.50), "ms", "(printed only)"),
            ("wall_p90_ms", 1e3 * measure.quantile(loop.wall_s, 0.90), "ms", "(printed only)"),
            ("probe_ms", 1e3 * statistics.median(loop.probes_s), "ms",
             f"(median of {len(loop.probes_s)}; reference "
             f"{1e3 * measure.REFERENCE_PROBE_S:g} ms)"),
            ("sim_p50_us", 1e6 * measure.quantile(counted, 0.50), "us", "(printed only)"),
            ("sim_p90_us", 1e6 * measure.quantile(counted, 0.90), "us", "(printed only)"),
            ("dedup_hit_ratio", 1 - 1 / metrics["dedup_ratio"], "ratio", "(printed only)"),
            ("failed_share", loop.failed / loop.items, "ratio", "(printed only)"),
        ])
        judged = loop
    else:
        # A timed plain pass fixes the request count.  The traced replay
        # is compared with a second plain replay that, like it, runs after
        # a pass has warmed the process-wide caches (e.g. keyed ciphers).
        first = measure.run_loop(
            workloads.build(spec, inputs), inputs, seconds=args.seconds / 2)
        rig = workloads.build(spec, inputs)
        tracer = layers.LayerTracer()
        with layers.traced_layers(tracer):
            traced = measure.run_loop(rig, inputs, requests=first.requests)
        untraced = measure.run_loop(
            workloads.build(spec, inputs), inputs, requests=first.requests)
        metrics = layers.layer_metrics(rig, traced, untraced, tracer)
        units = layers.PER_LAYER
        print(f"traced replay of {traced.requests} requests "
              f"({traced.items} items); per-item values unless the unit says otherwise")
        print_table("per-layer", [
            (name, metrics[name], unit, "") for name, (unit, _) in units.items()
        ])
        checks = layers.integrity(rig, traced, untraced, tracer)
        print("traced-run integrity")
        for label, ok, detail in checks:
            print(f"  {'ok    ' if ok else 'FAILED'} {label}: {detail}")
            correct = correct and ok
        correct = correct and first.failed == 0 and untraced.failed == 0
        judged = traced

    d = measure.delta(judged.after, judged.before)
    print("counter reconciliation (residual; 0 means the identity holds)")
    for label, residual in reconcile(d, rig.engine is not None):
        print(f"  {residual:>8g}  {label}")
    verification_failures = d["runtime.verification_failures"]
    print(f"output check: {judged.failed} of {judged.items} items mismatched or "
          f"raised; runtime.verification_failures = {verification_failures}")
    for error in judged.errors[:5]:
        print(f"  {error}")
    correct = correct and judged.failed == 0 and verification_failures == 0

    print(json.dumps({
        "correct": correct,
        "attempted": judged.items,
        "failed": judged.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
