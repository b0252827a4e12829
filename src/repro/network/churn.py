"""Churn (volatility) models.

The paper's conclusion lists volatility as future work ("no volatility
was introduced during the experiments...  it would be interesting to
evaluate the behaviour of the fall-back mechanism used for resource
discovery under high volatility").  This module provides that
extension: session/downtime length distributions drawn from the DHT
churn literature the paper cites ([16, 18] model session lengths with
exponential and heavy-tailed laws), plus a driver that crashes and
restarts the peers it is given.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping

from repro.sim.kernel import Simulator
from repro.sim.process import Process


class ChurnModel:
    """Interface: draw session (up) and downtime lengths, in seconds."""

    def session_length(self, rng: random.Random) -> float:
        raise NotImplementedError

    def downtime_length(self, rng: random.Random) -> float:
        raise NotImplementedError


class ExponentialChurn(ChurnModel):
    """Memoryless sessions/downtimes (classical Poisson churn)."""

    def __init__(self, mean_session: float, mean_downtime: float) -> None:
        if mean_session <= 0 or mean_downtime <= 0:
            raise ValueError("mean session and downtime must be > 0")
        self.mean_session = float(mean_session)
        self.mean_downtime = float(mean_downtime)

    def session_length(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_session)

    def downtime_length(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_downtime)


class ParetoChurn(ChurnModel):
    """Heavy-tailed sessions: most peers are short-lived, a few persist.

    Matches the measured session distributions of deployed P2P systems
    cited by the paper ([18] reports median churn of tens of minutes).
    """

    def __init__(
        self,
        median_session: float,
        mean_downtime: float,
        shape: float = 1.5,
    ) -> None:
        if median_session <= 0 or mean_downtime <= 0:
            raise ValueError("median session and downtime must be > 0")
        if shape <= 1.0:
            raise ValueError(f"shape must be > 1 for a finite median scale (got {shape})")
        self.shape = float(shape)
        # median of Pareto(xm, a) is xm * 2**(1/a)
        self.scale = float(median_session) / (2.0 ** (1.0 / shape))
        self.mean_downtime = float(mean_downtime)

    def session_length(self, rng: random.Random) -> float:
        # inverse-CDF sampling of Pareto(scale, shape)
        u = 1.0 - rng.random()
        return self.scale / (u ** (1.0 / self.shape))

    def downtime_length(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_downtime)


class ChurnProcess(Process):
    """Drives up/down cycles for a set of named peers.

    When a peer's session ends it is crashed if it is running; when its
    downtime ends it is started if it is not, and re-bootstraps from
    its configured seeds.  Peers start *up*; their first session length
    is drawn at :meth:`start`, in the mapping's order.
    """

    def __init__(
        self,
        sim: Simulator,
        model: ChurnModel,
        peers: Mapping[str, object],
        name: str = "churn",
    ) -> None:
        super().__init__(sim, name)
        if not peers:
            raise ValueError("churn needs at least one target")
        self.model = model
        self.peers = dict(peers)
        self.is_up: Dict[str, bool] = {t: True for t in self.peers}
        self.kill_count = 0
        self.revive_count = 0
        self._handles: list = []

    def _rng(self) -> random.Random:
        return self.sim.rng.stream(f"{self.name}.draws")

    def on_start(self) -> None:
        for target in self.peers:
            self._schedule_kill(target)

    def on_stop(self) -> None:
        for h in self._handles:
            h.cancel()
        self._handles.clear()

    def _schedule_kill(self, target: str) -> None:
        delay = self.model.session_length(self._rng())
        self._handles.append(
            self.sim.schedule(delay, self._kill, target, label="churn.kill")
        )

    def _schedule_revive(self, target: str) -> None:
        delay = self.model.downtime_length(self._rng())
        self._handles.append(
            self.sim.schedule(delay, self._revive, target, label="churn.revive")
        )

    def _kill(self, target: str) -> None:
        if not self.started or not self.is_up[target]:
            return
        self.is_up[target] = False
        self.kill_count += 1
        peer = self.peers[target]
        if peer.running:
            peer.crash()
        self._schedule_revive(target)

    def _revive(self, target: str) -> None:
        if not self.started or self.is_up[target]:
            return
        self.is_up[target] = True
        self.revive_count += 1
        self._start_peer(target)
        self._schedule_kill(target)

    def finish(self) -> None:
        """Stop the cycles and start every peer they left down."""
        self.stop()
        for target, up in self.is_up.items():
            if not up:
                self._start_peer(target)

    def _start_peer(self, target: str) -> None:
        peer = self.peers[target]
        if not peer.running:
            peer.start()
