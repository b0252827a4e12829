"""Property-based tests: checkpointing is observationally invisible.

For *any* event boundary in a protocol run — any overlay size and
seed — snapshotting, restoring
and continuing must reproduce the never-checkpointed run exactly
(kernel fire digest, message counters, peerview contents).  And an
in-process fork is a genuinely independent universe: mutating the
clone never perturbs the original, identical continuations stay
identical, divergent ones diverge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import restore_network, snapshot_network

END = 10 * MINUTES


def _deploy(r, seed):
    sim = Simulator(seed=seed)
    network = Network(sim)
    recorder = KernelTraceRecorder(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=r, edge_count=1, edge_attachment=[0],
            topology="chain",
        ),
    )
    overlay.start()
    return network, overlay, recorder


def _finish(network, overlay, recorder):
    network.sim.run(until=END)
    return {
        "digest": recorder.digest(),
        "seq": network.sim._seq,
        "fired": network.sim.events_fired,
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "views": [
            [p.short() for p in rdv.view.ordered_ids()]
            for rdv in overlay.rendezvous
        ],
    }


scenario = st.tuples(
    st.integers(min_value=3, max_value=7),       # r
    st.integers(min_value=1, max_value=10_000),  # seed
    st.floats(min_value=0.01, max_value=0.99),   # boundary fraction
)


@settings(max_examples=12, deadline=None)
@given(scenario)
def test_restore_at_any_boundary_is_invisible(params):
    r, seed, frac = params
    baseline = _finish(*_deploy(r, seed))

    network, overlay, recorder = _deploy(r, seed)
    network.sim.run(until=frac * END)  # an arbitrary event boundary
    blob = snapshot_network(
        network, extra={"overlay": overlay, "recorder": recorder}
    )
    del network, overlay, recorder
    net2, extra = restore_network(blob)
    resumed = _finish(net2, extra["overlay"], extra["recorder"])
    assert resumed == baseline


def _diverge(network, overlay, recorder, k):
    """A continuation whose event timing depends on ``k``."""
    sim = network.sim
    sim.schedule(
        1.0 + 0.125 * k,
        overlay.edges[0].discovery.publish,
        FakeAdvertisement("fork-divergence"),
        label="diverge",
    )
    return _finish(network, overlay, recorder)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=10_000),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_forked_universes_are_independent(seed, frac, k1, k2):
    graphs = []
    for _ in range(3):
        network, overlay, recorder = _deploy(4, seed)
        network.sim.run(until=frac * END)
        graphs.append((network, overlay, recorder))
    parent, twin, control = graphs

    clone, extra = restore_network(snapshot_network(
        parent[0], extra={"overlay": parent[1], "recorder": parent[2]}
    ))
    clone_result = _diverge(clone, extra["overlay"], extra["recorder"], k1)

    # 1. forking + mutating the clone never perturbs the parent: its
    #    continuation matches a graph that was never forked
    assert _finish(*parent) == _finish(*control)

    # 2. same divergence seed → identical universes; different seeds →
    #    observably different timelines
    twin_result = _diverge(*twin, k2)
    if k1 == k2:
        assert twin_result == clone_result
    else:
        assert twin_result["digest"] != clone_result["digest"]
