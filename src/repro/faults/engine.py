"""The fault-injection scenario engine.

:class:`ScenarioEngine` binds a declarative
:class:`~repro.faults.actions.Scenario` to a deployed overlay: every
action is scheduled on the simulation kernel at its instant, applied
through a :class:`FaultContext`, and recorded with its instant in
:attr:`ScenarioEngine.applied`.

Message-level faults (loss, duplication, reorder) are applied by
:class:`NetworkFaultController`, installed as the network's
``fault_controller``.  Every probabilistic choice draws from the sim's
*named* RNG streams (``faults.loss``, ``faults.duplicate``,
``faults.reorder``, ``faults.churn``), never from the global
``random`` module, so a scenario replayed under the same master seed
produces a byte-identical event trace — the precondition for
regression-testing robustness claims (cf. the determinism tests in
``tests/integration``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.actions import ChurnWindow, FaultAction, Scenario
from repro.network.churn import ChurnProcess, ExponentialChurn
from repro.network.message import Envelope
from repro.network.transport import FaultController, FaultDecision, NO_FAULT, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Process


@dataclass(frozen=True)
class _ActiveWindow:
    """One live fault window on the controller."""

    start: float
    end: float
    rate: float = 0.0
    sites: Tuple[str, ...] = ()
    copies: int = 0
    max_extra_delay: float = 0.0

    def active(self, now: float, src_site: str, dst_site: str) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self.sites and src_site not in self.sites and dst_site not in self.sites:
            return False
        return True


class NetworkFaultController(FaultController):
    """Window-based message faults, deterministic via named streams."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._loss: List[_ActiveWindow] = []
        self._duplicate: List[_ActiveWindow] = []
        self._reorder: List[_ActiveWindow] = []

    # ------------------------------------------------------------------
    # window registration (called by the actions' apply())
    # ------------------------------------------------------------------
    def add_loss_window(
        self, start: float, end: float, rate: float, sites: Tuple[str, ...] = ()
    ) -> None:
        self._loss.append(_ActiveWindow(start, end, rate=rate, sites=sites))

    def add_duplicate_window(
        self, start: float, end: float, probability: float, copies: int
    ) -> None:
        self._duplicate.append(
            _ActiveWindow(start, end, rate=probability, copies=copies)
        )

    def add_reorder_window(
        self, start: float, end: float, max_extra_delay: float
    ) -> None:
        self._reorder.append(
            _ActiveWindow(start, end, max_extra_delay=max_extra_delay)
        )

    # ------------------------------------------------------------------
    # FaultController interface
    # ------------------------------------------------------------------
    def intercept(
        self, envelope: Envelope, src_site: str, dst_site: str
    ) -> FaultDecision:
        now = self.sim.now
        for window in self._loss:
            if window.active(now, src_site, dst_site):
                if self.sim.rng.stream("faults.loss").random() < window.rate:
                    return FaultDecision(drop=True)
        duplicates = 0
        for window in self._duplicate:
            if window.active(now, src_site, dst_site):
                if self.sim.rng.stream("faults.duplicate").random() < window.rate:
                    duplicates += window.copies
        extra_delay = 0.0
        for window in self._reorder:
            if window.active(now, src_site, dst_site):
                extra_delay += self.sim.rng.stream("faults.reorder").uniform(
                    0.0, window.max_extra_delay
                )
        if duplicates == 0 and extra_delay == 0.0:
            return NO_FAULT
        return FaultDecision(duplicates=duplicates, extra_delay=extra_delay)


class FaultContext:
    """What an action sees when it fires: the sim, the network, the
    peers by name and the controller."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        peers: Dict[str, object],
        controller: NetworkFaultController,
    ) -> None:
        self.sim = sim
        self.network = network
        self.peers = peers
        self.controller = controller
        #: called after each applied action and each churn window's end
        #: (the invariant checker's whole-overlay sweep); one at a time
        self.listener: Optional[Callable[[], None]] = None
        #: peer name -> nominal peerview interval (for ClockSkew undo)
        self._base_intervals: Dict[str, float] = {}
        #: churn processes started by ChurnWindow actions
        self.churn_processes: List[ChurnProcess] = []

    def peer(self, name: str):
        try:
            return self.peers[name]
        except KeyError:
            raise ValueError(f"unknown peer in scenario: {name!r}") from None

    def rendezvous_names(self) -> List[str]:
        return [
            name for name, p in self.peers.items()
            if getattr(p, "is_rendezvous", False)
        ]

    # ------------------------------------------------------------------
    # action helpers
    # ------------------------------------------------------------------
    def skew_clock(self, name: str, factor: float) -> None:
        peer = self.peer(name)
        protocol = getattr(peer, "peerview_protocol", None)
        if protocol is None:
            raise ValueError(f"{name!r} has no peerview timer to skew")
        task = protocol._task
        base = self._base_intervals.setdefault(name, task.interval)
        task.interval = base * factor

    def start_churn(self, window: ChurnWindow) -> ChurnProcess:
        targets = list(window.targets) or self.rendezvous_names()
        peers = {name: self.peer(name) for name in targets}
        if len(peers) != len(targets):
            raise ValueError("duplicate churn targets")
        churn = ChurnProcess(
            self.sim,
            ExponentialChurn(window.mean_session, window.mean_downtime),
            peers,
            name=f"faults.churn{len(self.churn_processes)}@{window.at:g}",
        )
        churn.start()
        self.churn_processes.append(churn)
        # the window never leaves peers down past its end
        self.sim.schedule(
            window.duration, self._end_churn, churn, label="fault.churn.end"
        )
        return churn

    def _end_churn(self, churn: ChurnProcess) -> None:
        churn.finish()
        self.notify()

    def notify(self) -> None:
        """Tell the listener, if any, that the system just changed."""
        listener = self.listener
        if listener is not None:
            listener()

    def corrupt_peerview(self, name: str, mode: str) -> None:
        """Break the target's order book while leaving the local peer's
        own bisect navigation intact (the corruption must be *detected
        by the checker*, not crash the protocol outright): a swap picks
        the adjacent remote pair farthest from the local peer — both on
        one side of it, so every comparison against the local ID keeps
        its sign — and degrades to duplicating the largest ID when the
        view is too small to host a safe swap."""
        view = self.peer(name).view
        order = view._order
        if not order:
            return
        # the order book is mutated behind the view's back, so the
        # memoised ordered_ids snapshot must be dropped for the
        # corruption to be observable
        view.invalidate_ordered_view()
        local_rank = order.index((view.local_peer_id._value, view.local_key))
        if mode == "swap":
            if local_rank < len(order) - 2:  # two entries above local
                order[-1], order[-2] = order[-2], order[-1]
                return
            if local_rank >= 2:  # two entries below local
                order[0], order[1] = order[1], order[0]
                return
        order.append(order[-1])


class ScenarioEngine(Process):
    """Schedule and apply a scenario's actions on the kernel.

    Parameters
    ----------
    sim, network:
        The simulation and its network (the controller is installed on
        the network at :meth:`start`).
    peers:
        Mapping of peer name -> peer object.  Pass
        ``peers_of(overlay)`` for a
        :class:`~repro.deploy.builder.DeployedOverlay`.
    scenario:
        The declarative fault plan.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        peers: Dict[str, object],
        scenario: Scenario,
    ) -> None:
        super().__init__(sim, name=f"faults:{scenario.name}")
        self.network = network
        self.scenario = scenario
        self.controller = NetworkFaultController(sim)
        self.context = FaultContext(sim, network, peers, self.controller)
        self.applied: List[Tuple[float, FaultAction]] = []

    def on_start(self) -> None:
        if self.network.fault_controller is not None:
            raise RuntimeError("network already has a fault controller")
        self.network.fault_controller = self.controller
        for action in self.scenario.actions:
            delay = action.at - self.sim.now
            if delay < 0:
                raise ValueError(
                    f"{action.kind} at t={action.at} is in the past "
                    f"(now={self.sim.now})"
                )
            self.sim.schedule(
                delay, self._apply, action, label=f"fault.{action.kind}"
            )

    def on_stop(self) -> None:
        if self.network.fault_controller is self.controller:
            self.network.fault_controller = None
        for churn in self.context.churn_processes:
            churn.stop()

    def _apply(self, action: FaultAction) -> None:
        if not self.started:
            return
        action.apply(self.context)
        self.applied.append((self.sim.now, action))
        self.context.notify()


def peers_of(overlay) -> Dict[str, object]:
    """Name -> peer mapping for a deployed overlay."""
    return {peer.name: peer for peer in overlay.group.all_peers}
