"""Runtime invariant checking over the protocol stack.

The LC-DHT's correctness rests on structural invariants the paper
states but never mechanically checks:

* **peerview order** (§3.2): every local peerview is an ordered list
  by peer ID — totally ordered, duplicate-free, containing the local
  peer, and consistent with its entry table;
* **peerview refresh order**: the entry table iterates in
  non-decreasing refresh stamps (``_stamps``) — what lets an expiry
  sweep stop at the first live entry;
* **replica ranks** (§3.3): ``ReplicaPeer`` must land in ``[0, l)``
  for every index tuple, whatever the current view size;
* **lease lifetime**: no edge lease on a rendezvous outlives its
  grant (``expires_at <= now + lease_duration``);
* **Property (2) convergence**: the ratio ``l / (r_up − 1)`` is the
  health signal the experiments track; the checker records it every
  probe round as an ``invariant``/``convergence`` timeline event.

:class:`InvariantChecker` is told, not hooked in: each observed
rendezvous protocol calls it at the end of every probe round
(``PeerViewProtocol.round_listener``), and it re-checks that peer
against all invariants, so a corruption is flagged within one round of
being introduced — under faults as well as in clean runs.  The run's
:class:`~repro.faults.ScenarioEngine` tells it of each applied fault
action and each churn window's end (``FaultContext.listener``), and it
sweeps every running rendezvous there.  No kernel trace hook runs it,
so a run that records no trace keeps the kernel's hook-free fast
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import TimelineTracer
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.faults.engine import ScenarioEngine

#: Index tuples spread over the hash space to exercise the rank
#: function each round (type, attribute, value as the LC-DHT hashes).
DEFAULT_PROBE_TUPLES: Tuple[Tuple[str, str, str], ...] = tuple(
    ("jxta:PA", "Name", f"invariant-probe-{i}") for i in range(8)
)


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    time: float
    observer: str
    invariant: str
    detail: str

    def format(self) -> str:
        return f"t={self.time:.1f}s {self.observer}: {self.invariant} — {self.detail}"


class InvariantChecker:
    """Continuously assert peerview/replica/lease invariants.

    Parameters
    ----------
    sim:
        The simulator whose clock stamps the checks.
    rendezvous:
        The rendezvous peers to observe; each one's peerview protocol
        reports its rounds to the checker.
    engine:
        The run's fault scenario engine (one with an empty scenario
        where nothing is injected); it reports each applied action and
        each churn window's end.
    log:
        Optional tracer; per-round convergence ratios land as
        ``("invariant", "convergence", peer name, {"value": l / (r_up − 1)})``.
        Violations are kept in :attr:`violations`; the run continues.
    """

    def __init__(
        self,
        sim: Simulator,
        rendezvous: Sequence[object],
        engine: ScenarioEngine,
        log: Optional[TimelineTracer] = None,
    ) -> None:
        self.sim = sim
        self.rendezvous = list(rendezvous)
        self.engine = engine
        self.log = log
        self.violations: List[Violation] = []
        self.rounds_checked = 0
        #: peerview protocol name -> peer (the protocol object survives
        #: crash/restart, so the mapping is stable for a whole run)
        self._by_name: Dict[str, object] = {
            p.peerview_protocol.name: p for p in self.rendezvous
        }
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    # wiring: the protocols' and the fault context's listener slots
    # ------------------------------------------------------------------
    def _slots(self) -> List[Tuple[object, str, object]]:
        slots = [
            (p.peerview_protocol, "round_listener", self._on_round)
            for p in self.rendezvous
        ]
        slots.append((self.engine.context, "listener", self._on_fault))
        return slots

    def attach(self) -> None:
        if self._attached:
            return
        slots = self._slots()
        for owner, slot, _ in slots:
            if getattr(owner, slot, None) is not None:
                raise RuntimeError(f"{owner!r} already has a {slot}")
        for owner, slot, listener in slots:
            setattr(owner, slot, listener)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            for owner, slot, _ in self._slots():
                setattr(owner, slot, None)
            self._attached = False

    def _on_round(self, protocol) -> None:
        # a protocol runs its rounds only while its peer is up
        peer = self._by_name[protocol.name]
        now = self.sim.now
        self.rounds_checked += 1
        self.check_peer(peer, now)
        self._emit_convergence(peer, now)

    def _on_fault(self) -> None:
        # a fault action just mutated the system: sweep everything, so
        # an injected corruption is flagged at the instant it appears
        self.check_all()

    # ------------------------------------------------------------------
    # the invariants
    # ------------------------------------------------------------------
    def check_peer(self, peer, now: Optional[float] = None) -> List[Violation]:
        """Run every invariant against one rendezvous peer; returns the
        violations found (also recorded on the checker)."""
        now = self.sim.now if now is None else now
        found: List[Violation] = []
        view = peer.view
        ids = view.ordered_ids()

        # (1) total order, duplicate-free
        for i in range(len(ids) - 1):
            if not ids[i] < ids[i + 1]:
                which = "duplicate entry" if ids[i] == ids[i + 1] else "order inversion"
                found.append(
                    self._violate(
                        now, peer.name, "peerview.total-order",
                        f"{which} at rank {i} "
                        f"({ids[i].short()} !< {ids[i + 1].short()})",
                    )
                )
                break

        # (2) order book (+ self) and insertion-order key list consistent
        # with the entry table
        entries = view._entries
        order, key_seq = view._order, view._key_seq
        if (
            {key for _, key in order} != entries.keys() | {view.local_key}
            or len(order) != len(entries) + 1
            or set(key_seq) != entries.keys() or len(key_seq) != len(entries)
        ):
            found.append(
                self._violate(
                    now, peer.name, "peerview.consistency",
                    f"ordered list has {len(order)} ids and insertion list "
                    f"{len(key_seq)} keys for {len(entries) + 1} members",
                )
            )

        # (2b) entry table in refresh order, which expiry relies on
        stamps = [view._stamps[k] for k in entries]
        if stamps != sorted(stamps):
            found.append(
                self._violate(
                    now, peer.name, "peerview.refresh-order",
                    "entry table not in non-decreasing refresh stamps",
                )
            )

        # (3) local peer is a member of its own view
        if view.local_peer_id not in ids:
            found.append(
                self._violate(
                    now, peer.name, "peerview.self-membership",
                    "local peer missing from its own ordered list",
                )
            )

        # (4) replica ranks within [0, l) for every probe tuple
        member_count = view.member_count()
        replica_fn = peer.discovery.replica_fn
        for index_tuple in DEFAULT_PROBE_TUPLES:
            try:
                rank = replica_fn.rank(index_tuple, member_count)
            except ValueError as exc:
                found.append(
                    self._violate(
                        now, peer.name, "replica.rank-domain", str(exc)
                    )
                )
                continue
            if not (0 <= rank < member_count):
                found.append(
                    self._violate(
                        now, peer.name, "replica.rank-range",
                        f"rank {rank} outside [0, {member_count}) "
                        f"for {index_tuple!r}",
                    )
                )

        # (5) leases never outlive their grant
        lease_duration = peer.config.lease_duration
        for lease in peer.lease_server._leases.values():
            if lease.expires_at > now + lease_duration + 1e-9:
                found.append(
                    self._violate(
                        now, peer.name, "lease.lifetime",
                        f"lease for {lease.edge_peer.short()} expires "
                        f"{lease.expires_at - now:.1f}s out "
                        f"(> {lease_duration:.0f}s grant)",
                    )
                )
        return found

    def check_all(self) -> List[Violation]:
        """On-demand sweep over every running rendezvous."""
        found: List[Violation] = []
        for peer in self.rendezvous:
            if peer.running:
                found.extend(self.check_peer(peer))
        return found

    # ------------------------------------------------------------------
    # metrics & reporting
    # ------------------------------------------------------------------
    def _emit_convergence(self, peer, now: float) -> None:
        if self.log is None:
            return
        up = sum(1 for p in self.rendezvous if p.running)
        target = max(1, up - 1)
        self.log.record(
            now, "invariant", "convergence", peer.name,
            {"value": peer.view.size / target},
        )

    def _violate(
        self, now: float, observer: str, invariant: str, detail: str
    ) -> Violation:
        violation = Violation(now, observer, invariant, detail)
        self.violations.append(violation)
        return violation

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, int]:
        """Violation counts per invariant name."""
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out

    def report(self) -> str:
        if self.ok:
            return (
                f"invariants OK — {self.rounds_checked} probe rounds, "
                f"0 violations"
            )
        lines = [
            f"invariants VIOLATED — {len(self.violations)} violations "
            f"over {self.rounds_checked} probe rounds:"
        ]
        lines.extend("  " + v.format() for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)
