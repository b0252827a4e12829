#!/usr/bin/env python
"""Service discovery under volatility — the paper's future-work case.

The paper's conclusion asks how the LC-DHT's walk fall-back behaves
"under high volatility".  This example builds a 20-rendezvous overlay
whose rendezvous peers churn with a heavy-tailed (Pareto) session law,
while a service provider keeps its advertisement published and a
client issues periodic lookups.  Each lookup reports whether it hit
the fast O(1) path or needed the walk, and whether it survived a
replica-peer crash.

Run:  python examples/volatile_services.py
"""

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.network.churn import ChurnProcess, ParetoChurn
from repro.sim import HOURS, MINUTES, Simulator


def main() -> None:
    sim = Simulator(seed=5)
    network = Network(sim)
    overlay = build_overlay(
        sim,
        network,
        PlatformConfig(),
        OverlayDescription(
            rendezvous_count=20, edge_count=2, edge_attachment=[0, 10]
        ),
    )
    overlay.start()
    provider, client = overlay.edges
    sim.run(until=15 * MINUTES)

    provider.discovery.publish(
        FakeAdvertisement("printing-service", payload="color;duplex"),
        expiration=12 * HOURS,
    )
    sim.run(until=sim.now + 2 * MINUTES)

    # churn every rendezvous except the two the edges lease to
    protected = {0, 10}
    victims = {
        rdv.name: rdv
        for i, rdv in enumerate(overlay.rendezvous)
        if i not in protected
    }
    churn = ChurnProcess(
        sim,
        ParetoChurn(median_session=8 * MINUTES, mean_downtime=3 * MINUTES),
        victims,
    )
    churn.start()

    outcomes = {"fast": 0, "walked": 0, "failed": 0}

    def lookup(remaining: int) -> None:
        client.cache.flush()
        walks_before = sum(
            rdv.discovery.walk_steps
            for rdv in overlay.rendezvous if rdv.running
        )

        def on_found(advertisements, latency):
            walks_after = sum(
                rdv.discovery.walk_steps
                for rdv in overlay.rendezvous if rdv.running
            )
            kind = "walked" if walks_after > walks_before else "fast"
            outcomes[kind] += 1
            print(f"t={sim.now / 60:5.1f}min lookup ok "
                  f"({kind}, {latency * 1e3:.1f} ms)")
            if remaining > 1:
                sim.schedule(60.0, lookup, remaining - 1)

        def on_timeout():
            outcomes["failed"] += 1
            print(f"t={sim.now / 60:5.1f}min lookup FAILED (timeout)")
            if remaining > 1:
                sim.schedule(60.0, lookup, remaining - 1)

        client.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "printing-service",
            callback=on_found, on_timeout=on_timeout, timeout=10.0,
        )

    lookup(20)
    sim.run(until=sim.now + 30 * MINUTES)
    churn.stop()

    print()
    print(f"outcomes over 20 lookups: {outcomes}")
    print(f"rendezvous kills: {churn.kill_count}, "
          f"revives: {churn.revive_count}")


if __name__ == "__main__":
    main()
