"""Span arithmetic and the patches' good manners."""

import pickle

import numpy as np
import pytest

from bench import tracing


def test_self_time_on_a_synthetic_nested_trace():
    # span 0: A [0, 10]            children 1 and 3
    # span 1:   B [1, 4]           child 2
    # span 2:     A [2, 3]
    # span 3:   B [5, 9]
    # span 4: C [10, 12]           a second root
    name = np.array([0, 1, 0, 1, 2], dtype=np.intc)
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1], dtype=np.intc)
    own, count = tracing.self_times(name, start, end, parent, 3)
    # A: (10 - 3 - 4) + 1 = 4; B: (3 - 1) + 4 = 6; C: 2
    assert own.tolist() == [4.0, 6.0, 2.0]
    assert count.tolist() == [2, 2, 1]
    # self times partition the root spans exactly
    assert own.sum() == (end - start)[parent < 0].sum()


def test_tracer_records_nesting_and_summarizes_by_layer():
    tracer = tracing.Tracer()
    outer = tracer.begin(tracer.name_id("network:Network.send"))
    inner = tracer.begin(tracer.name_id("endpoint:thing"))
    tracer.finish(inner)
    tracer.finish(outer)
    event = tracer.begin(tracer.name_id("bogus:event"))
    tracer.finish(event)
    assert list(tracer.parent) == [-1, 0, -1]
    summary = tracing.summarize(tracer)
    assert summary.calls == {"network": 1, "endpoint": 1, "bogus": 1}
    assert summary.events == 1
    total = sum(summary.self_s.values())
    assert total == pytest.approx(summary.root_s)


def test_event_labels_map_to_layers():
    assert tracing.layer_of_label("net.deliver") == "network"
    assert tracing.layer_of_label("peerview:0380DA2E.tick") == "rendezvous"
    assert tracing.layer_of_label("srdi-gc:0380DA2E.tick") == "discovery"
    assert tracing.layer_of_label("fault.CrashPeer") == "faults"
    assert tracing.layer_of_label("workload.query") == "workload"
    assert tracing.layer_of_label("something_else") == "other"


def test_install_patches_and_uninstall_restores():
    from repro.network.transport import Network
    from repro.sim.kernel import Simulator
    from repro.snapshot import core as snapshot_core

    before = (Network.send, Network.attach, Simulator.run,
              snapshot_core.snapshot_network)
    undo = tracing.install(tracing.Tracer())
    try:
        assert Network.send is not before[0]
        assert Network.send.__wrapped__ is before[0]
        with pytest.raises(RuntimeError):
            tracing.install(tracing.Tracer())
    finally:
        tracing.uninstall(undo)
    assert (Network.send, Network.attach, Simulator.run,
            snapshot_core.snapshot_network) == before


def test_registered_stand_ins_pickle():
    # the fuzzer snapshots whole networks, registered handlers included
    call = tracing.SpanCall(len, "other:len")
    clone = pickle.loads(pickle.dumps(call))
    assert clone.fn is len and clone.name == "other:len"
    assert clone([1, 2, 3]) == 3
