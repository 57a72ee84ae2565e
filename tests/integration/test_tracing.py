"""End-to-end tracing: connected span trees across runtime, channel,
router, and store (the observability acceptance scenarios)."""

import pytest

import repro
from repro import TrustedLibrary, TrustedLibraryRegistry
from repro.obs.tracer import find_spans


def double_bytes(data: bytes) -> bytes:
    return data + data


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


DESC = repro.FunctionDescription("testlib", "1.0", "bytes double(bytes)")


@pytest.fixture
def cluster_session():
    return repro.connect(shards=4, replication_factor=2,
                         libraries=make_libs(), seed=b"trace-cluster")


def test_single_execute_produces_connected_tree_over_all_layers(cluster_session):
    session = cluster_session
    session.execute(DESC, b"payload")
    session.flush_puts()
    session.execute(DESC, b"payload")  # the traced request: a cluster hit

    spans = session.last_trace()
    roots = session.trace_tree()
    assert len(roots) == 1, "one request must yield one connected tree"
    root = roots[0]
    assert root.span.name == "runtime.execute"

    # Every span belongs to the same trace and links back to the root.
    ids = {s.span_id for s in spans}
    assert len({s.trace_id for s in spans}) == 1
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, f"{span.name} is disconnected"

    # The tree covers the runtime, enclave, channel, router, and store
    # phases of the GET path.
    names = {s.name for s in spans}
    for expected in ("runtime.execute", "runtime.tag", "runtime.verify",
                     "sgx.ecall", "sgx.ocall", "channel.encrypt",
                     "channel.decrypt", "rpc.submit", "rpc.wait",
                     "router.batch_get", "router.shard_get", "store.get",
                     "store.lookup", "store.blob_read"):
        assert expected in names, f"missing {expected} in {sorted(names)}"

    # And the nesting is the paper's call path: runtime -> router ->
    # rpc -> store, all under the root ECALL.
    assert root.find("router.batch_get"), "router span must descend from the root"
    router_get = root.find("router.batch_get")[0]
    assert router_get.find("store.get"), "store span must descend from routing"


def test_failover_and_read_repair_show_up_in_span_trees(cluster_session):
    session = cluster_session
    inputs = [b"item-%d" % i for i in range(16)]
    for item in inputs:
        session.execute(DESC, item)
    session.flush_puts()

    # Crash one shard: GETs for its tags must fail over to replicas.
    session.kill_shard("shard-0")
    for item in inputs:
        result = session.execute_result(DESC, item)
        assert result.hit, "replicas must serve the dead shard's tags"
    failovers = find_spans(session.tracer.spans(), "router.failover")
    assert failovers, "no failover was traced — seed no longer exercises it?"
    tree = session.tracer.tree(failovers[0].trace_id)
    assert len(tree) == 1 and tree[0].span.name == "runtime.execute"
    assert tree[0].find("router.failover")
    # The failed shard_get and the replica retry share the same routing span.
    shard_gets = tree[0].find("router.batch_get")[0].find("router.shard_get")
    assert len(shard_gets) >= 2

    # Fresh work while the shard is down lands only on the survivors, so
    # the revived shard is missing entries it owns...
    fresh = [b"fresh-%d" % i for i in range(16)]
    for item in fresh:
        session.execute(DESC, item)
    session.flush_puts()

    # ...and the next GETs serve from replicas and queue read-repair.
    session.revive_shard("shard-0")
    for item in fresh:
        session.execute(DESC, item)
    repairs = find_spans(session.tracer.spans(), "router.read_repair")
    assert repairs, "read-repair must be traced after the shard revives"
    repair_tree = session.tracer.tree(repairs[0].trace_id)
    assert len(repair_tree) == 1 and repair_tree[0].span.name == "runtime.execute"
    assert repair_tree[0].find("router.read_repair")
    session.flush_puts()


def test_execute_many_yields_one_batch_span_with_item_children():
    session = repro.connect(libraries=make_libs(), seed=b"trace-batch")
    inputs = [b"a", b"b", b"c", b"a", b"b"]
    results = session.execute_many_results(DESC, inputs)
    assert [r.value for r in results] == [i + i for i in inputs]

    roots = session.trace_tree()
    assert len(roots) == 1
    root = roots[0]
    assert root.span.name == "runtime.execute_batch"
    assert root.span.attrs["items"] == len(inputs)

    items = root.find("runtime.item")
    assert len(items) == len(inputs)
    assert sorted(node.span.attrs["index"] for node in items) == list(range(len(inputs)))

    # Per-item results link back into the batch trace.
    batch_trace = root.span.trace_id
    for result in results:
        assert result.trace_id == batch_trace
        assert result.span_id is not None


def test_store_side_spans_use_the_shard_machine_clock(cluster_session):
    session = cluster_session
    session.execute(DESC, b"clocked")
    session.flush_puts()
    session.execute(DESC, b"clocked")
    store_gets = find_spans(session.last_trace(), "store.get")
    assert store_gets, "hit path must include a store.get span"
    blob_reads = find_spans(session.last_trace(), "store.blob_read")
    assert blob_reads and blob_reads[0].sim_seconds > 0.0


def test_phase_breakdown_accumulates_over_session(cluster_session):
    session = cluster_session
    for i in range(4):
        session.execute(DESC, b"p%d" % i)
    trace_table = session.trace_table()
    assert "runtime.execute" in trace_table
    session.flush_puts()
    breakdown = session.phase_breakdown()
    assert breakdown["runtime.execute"]["count"] == 4
    assert breakdown["runtime.execute"]["sim_seconds"] > 0
    assert breakdown["router.get"]["count"] >= 4
    # Asynchronous PUTs flush as one-way sends carrying store.put work.
    assert breakdown["store.put"]["count"] >= 4
    table = session.phase_table()
    assert "runtime.execute" in table
