"""Peerview probes: one outstanding probe per address, until a deadline.

``PeerViewProtocol._probe_address`` records ``sent_at + probe_timeout``
for each address it probes and sends no further probe there while
``now <= deadline``; the response pops the record.  No kernel event
marks the deadline.

The pinned values were measured when a timeout *event* per probe popped
the record instead: the probes each rendezvous sent, and the SHA-256 of
the kernel trace with every ``*.probe_timeout`` entry left out (15 and
74 of them fired).  The deadline must send the same probes, and its
*unfiltered* trace must hash to the pinned value.

The dead-seed scenario pins the tie.  There ``peerview_interval ==
probe_timeout``, so each tick of the seed's neighbour lands exactly on
the deadline of the probe the previous tick sent to the dead seed.  The
tick was re-armed before that probe was sent, so it ordered before the
timeout and found the probe still pending.  An exclusive deadline
(``now < deadline``) probes the dead seed on every tick instead, and
rendezvous 1 sends 90 probes where it sent 75.
"""

import hashlib
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.sim import MINUTES, SECONDS, Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import restore_network, snapshot_network
from tests.integration.test_frame_budget import load_frames_per_op
from tests.unit.test_peerview_protocol import build_rdv_overlay

@dataclass(frozen=True)
class Scenario:
    """``build_rdv_overlay(r, seed=seed, peerview_interval=interval)``
    (chain, 2 ms latency), rendezvous ``crash_rank`` crashed at
    ``crash_at``, run to ``until``."""

    r: int
    seed: int
    interval: float
    crash_rank: int
    crash_at: float
    until: float
    #: ``probes_sent`` per rendezvous at ``until``
    probes: Tuple[int, ...]
    #: SHA-256 of the kernel trace, ``*.probe_timeout`` entries left out
    digest: str


DEAD_SEED = Scenario(
    r=4, seed=3, interval=10 * SECONDS, crash_rank=0, crash_at=5 * SECONDS,
    until=300 * SECONDS, probes=(0, 75, 60, 59),
    digest="24cf41655812e9cfb503afc27a050aac9e28a831e54d8a6f09f651adb41ddbbf",
)
#: a mid-run crash with an interval that the timeout does not divide
MID_CRASH = Scenario(
    r=8, seed=5, interval=15 * SECONDS, crash_rank=3, crash_at=3 * MINUTES,
    until=12 * MINUTES, probes=(109, 113, 109, 27, 119, 118, 109, 77),
    digest="fb988a7ed17b50f7c8ba921ec37922ae4d31df5928a0034a1eb1d4ba53f649fb",
)


def _start(scenario):
    """The scenario run up to (and including) its crash."""
    sim, overlay = build_rdv_overlay(
        scenario.r, seed=scenario.seed, peerview_interval=scenario.interval,
    )
    recorder = KernelTraceRecorder(sim)
    sim.run(until=scenario.crash_at)
    overlay.rendezvous[scenario.crash_rank].crash()
    return sim, overlay, recorder


def _probes(overlay):
    return tuple(r.peerview_protocol.probes_sent for r in overlay.rendezvous)


def _filtered_digest(recorder):
    h = hashlib.sha256()
    for time, label in recorder.entries:
        if not label.endswith(".probe_timeout"):
            h.update(f"{time!r}:{label}\n".encode("utf-8"))
    return h.hexdigest()


def _run_to_the_end(scenario):
    """Probes sent, filtered and whole trace digests, timeout entries."""
    sim, overlay, recorder = _start(scenario)
    sim.run(until=scenario.until)
    timeouts = [e for e in recorder.entries if e[1].endswith(".probe_timeout")]
    return (
        _probes(overlay), _filtered_digest(recorder), recorder.digest(),
        timeouts,
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "scenario", [DEAD_SEED, MID_CRASH], ids=["dead-seed", "mid-crash"]
    )
    def test_same_probes_and_trace_without_timeout_events(self, scenario):
        probes, filtered, digest, timeouts = _run_to_the_end(scenario)
        assert probes == scenario.probes
        assert filtered == scenario.digest
        assert timeouts == []
        assert digest == scenario.digest


def _continued_and_restored():
    """DEAD_SEED snapshotted at 110 s: whether a probe was outstanding
    across the snapshot, the outstanding probes before it and in the
    restored copy, and the probes and digest of the run that went on and
    of the restored copy."""
    sim, overlay, recorder = _start(DEAD_SEED)
    sim.run(until=110 * SECONDS)
    proto = overlay.rendezvous[1].peerview_protocol
    outstanding = any(d > sim.now for d in proto._pending_probes.values())
    pending = dict(proto._pending_probes)
    blob = snapshot_network(
        overlay.group.network,
        extra={"overlay": overlay, "recorder": recorder},
    )
    sim.run(until=DEAD_SEED.until)
    continued = (_probes(overlay), recorder.digest())

    network, extra = restore_network(blob)
    restored_proto = extra["overlay"].rendezvous[1].peerview_protocol
    restored_pending = dict(restored_proto._pending_probes)
    network.sim.run(until=DEAD_SEED.until)
    restored = (_probes(extra["overlay"]), extra["recorder"].digest())
    return outstanding, pending, restored_pending, continued, restored


class TestLifecycle:
    def test_response_clears_the_deadline(self):
        sim, overlay = build_rdv_overlay(2)
        sim.run(until=2 * MINUTES + 15 * SECONDS)
        proto = overlay.rendezvous[1].peerview_protocol
        address = overlay.rendezvous[0].endpoint.transport_address
        assert address not in proto._pending_probes
        sent = proto.probes_sent
        proto._probe_address(address)
        proto._probe_address(address)  # outstanding: suppressed
        assert proto.probes_sent == sent + 1
        assert proto._pending_probes[address] == sim.now + 10 * SECONDS
        sim.run(until=sim.now + 100e-3)  # the response is back
        assert address not in proto._pending_probes
        proto._probe_address(address)  # well before the old deadline
        assert proto.probes_sent == sent + 2

    def test_unanswered_probe_is_outstanding_through_its_deadline(self):
        sim, overlay = build_rdv_overlay(2)
        sim.run(until=1 * MINUTES)
        proto = overlay.rendezvous[1].peerview_protocol
        address = "tcp://198.51.100.7:9701"  # nobody listens there
        proto._probe_address(address)
        deadline = sim.now + proto.config.probe_timeout
        assert proto._pending_probes[address] == deadline
        sim.run(until=deadline)
        sent = proto.probes_sent
        proto._probe_address(address)  # at the deadline: still pending
        assert proto.probes_sent == sent
        sim.run(until=deadline + 1e-3)
        proto._probe_address(address)  # past it: the expired record is
        assert proto.probes_sent == sent + 1  # overwritten
        assert proto._pending_probes[address] == sim.now + 10 * SECONDS

    def test_stop_clears_outstanding_probes(self):
        sim, overlay, _ = _start(DEAD_SEED)
        sim.run(until=110 * SECONDS)
        proto = overlay.rendezvous[1].peerview_protocol
        assert proto._pending_probes
        proto.stop()
        assert proto._pending_probes == {}

    def test_restored_snapshot_keeps_the_suppression(self):
        outstanding, pending, restored_pending, continued, restored = (
            _continued_and_restored()
        )
        # the probe to the dead seed is outstanding across the snapshot,
        # and the next tick lands on its deadline
        assert outstanding
        assert restored_pending == pending
        assert restored == continued == (DEAD_SEED.probes, DEAD_SEED.digest)


class TestCountedWork:
    def test_peerview_window_cancels_no_kernel_event(self, monkeypatch):
        """``scripts/frames_per_op.py``'s peerview regime: a probe
        schedules nothing, so its response has nothing to cancel."""
        frames_per_op = load_frames_per_op()
        sim, _, overlay = frames_per_op.peerview_regime()
        protos = [r.peerview_protocol for r in overlay.rendezvous]
        probes = sum(p.probes_sent for p in protos)
        cancels = []
        note_cancel = Simulator._note_cancel

        def counted(self):
            cancels.append(self)
            note_cancel(self)

        monkeypatch.setattr(Simulator, "_note_cancel", counted)
        sim.run(until=frames_per_op.PEERVIEW_WINDOW[1])
        assert sum(p.probes_sent for p in protos) - probes == 254
        assert cancels == []
