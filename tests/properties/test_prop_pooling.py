"""Property-based tests: object pooling is observationally invisible.

The steady-state free lists (kernel handle pool, network envelope and
message-shell pools, ``schedule_recycled``) exist purely to recycle
memory — they must never change what a run *does*.  Two guarantees are
checked here:

* a generated network workload (sends to live and dead addresses,
  mid-flight detaches, interleaved time advancement) produces an
  identical delivery/drop/kernel-trace log with pooling on and off;
* a generated timer program produces an identical fire log whether the
  deliver-style timers go through plain ``schedule`` or through the
  fused ``schedule_recycled`` + inline-release cycle the transport
  uses (both consume one ``seq`` per arm, so traces match byte for
  byte).

``REPRO_POOL_DEBUG=1`` integrity checking (double release, re-arm of a
pool-resident handle) is covered in
``tests/unit/test_message_pool.py``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.sim import SimOptions, Simulator

_ADDRS = ("p0", "p1", "p2", "p3")

# One workload step: (kind, src index, dst index, size, delay).
net_steps = st.tuples(
    st.sampled_from(["send", "send_on_drop", "detach", "attach", "run"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=4096),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)

net_programs = st.lists(net_steps, min_size=1, max_size=30)


def _run_network_program(steps, pooling):
    """Interpret ``steps`` on a fresh simulator/network; return the
    full observable log (deliveries, drops, kernel trace)."""
    sim = Simulator(
        seed=7, options=replace(SimOptions.from_env(), pooling=pooling)
    )
    net = Network(sim, latency=ConstantLatency(0.01), sw_overhead=0.0)
    nodes = place_nodes(4)
    log = []

    def trace(now, phase, handle):
        log.append(("trace", now, phase, handle.label))

    sim.add_trace_hook(trace)

    def handler_for(addr):
        def handler(envelope):
            log.append(
                (
                    "recv",
                    addr,
                    sim.now,
                    envelope.src,
                    envelope.dst,
                    envelope.size_bytes,
                    envelope.payload,
                )
            )

        return handler

    attached = {}
    for i, addr in enumerate(_ADDRS):
        net.attach(addr, nodes[i], handler_for(addr))
        attached[addr] = True

    def on_drop(envelope):
        log.append(("drop", sim.now, envelope.src, envelope.dst))

    counter = 0
    for kind, src_i, dst_i, size, delay in steps:
        src, dst = _ADDRS[src_i], _ADDRS[dst_i]
        if kind == "send" and attached[src]:
            counter += 1
            net.send(src, dst, f"m{counter}", size_bytes=size)
        elif kind == "send_on_drop" and attached[src]:
            counter += 1
            net.send(src, dst, f"m{counter}", size_bytes=size, on_drop=on_drop)
        elif kind == "detach":
            net.detach(dst)
            attached[dst] = False
        elif kind == "attach" and not attached[dst]:
            net.attach(dst, nodes[dst_i], handler_for(dst))
            attached[dst] = True
        elif kind == "run":
            sim.run(until=sim.now + delay)
    sim.run()
    log.append(("stats", net.stats.snapshot()))
    return log


@settings(max_examples=60, deadline=None)
@given(net_programs)
def test_network_pooling_is_observationally_invisible(steps):
    pooled = _run_network_program(steps, pooling=True)
    unpooled = _run_network_program(steps, pooling=False)
    assert pooled == unpooled


# One timer step: (delay, cancel the previous timer?, reschedule?).
timer_steps = st.tuples(
    st.floats(min_value=0.0, max_value=90.0, allow_nan=False),
    st.booleans(),
    st.booleans(),
)

timer_programs = st.lists(timer_steps, min_size=1, max_size=25)


def _run_timer_program(steps, recycled):
    """Arm a timer per step — via ``schedule_recycled`` + inline
    release (the transport's cycle) or plain ``schedule`` — with
    interleaved cancels and re-arms; return the fire log."""
    sim = Simulator(seed=11)
    log = []
    live = []

    def fired_recycled(a, b, handle):
        log.append((sim.now, a, b))
        if handle._state is False:
            sim.release_handle(handle)

    def fired_plain(a, b):
        log.append((sim.now, a, b))

    for i, (delay, do_cancel, do_resched) in enumerate(steps):
        if do_cancel and live:
            live.pop().cancel()
        if recycled:
            handle = sim.schedule_recycled(
                delay, fired_recycled, f"t{i}", i, "prop.timer"
            )
        else:
            handle = sim.schedule(
                delay, fired_plain, f"t{i}", i, label="prop.timer"
            )
        live.append(handle)
        if do_resched:
            # an extra plain timer on both sides keeps seq consumption
            # aligned while mixing tiers
            live.append(
                sim.schedule(delay / 2, log.append, (i, "aux"), label="aux")
            )
    sim.run()
    return log


@settings(max_examples=60, deadline=None)
@given(timer_programs)
def test_schedule_recycled_matches_plain_schedule(steps):
    recycled = _run_timer_program(steps, recycled=True)
    plain = _run_timer_program(steps, recycled=False)
    assert recycled == plain
