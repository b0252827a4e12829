#!/usr/bin/env python
"""Peerview convergence monitoring — the paper's §4.1 in miniature.

Deploys 45 rendezvous peers (the overlay size at which the paper first
observes Property (2) failing with default parameters), records every
peer's peerview events through an observability hub, and prints the
live l(t) table, the Property (2) verdict over time, and the
add/remove phase statistics of Figure 3 (right).

Run:  python examples/peerview_monitoring.py
"""

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.metrics import render_table
from repro.network import Network
from repro.obs import enable_observability
from repro.sim import MINUTES, Simulator

R = 45
DURATION_MIN = 50


def main() -> None:
    sim = Simulator(seed=11)
    network = Network(sim)
    obs = enable_observability(
        network, metrics=False, trace=True, categories=("peerview",)
    )
    config = PlatformConfig()
    overlay = build_overlay(
        sim, network, config, OverlayDescription(rendezvous_count=R)
    )
    overlay.start()

    rows = []
    for minute in range(0, DURATION_MIN + 1, 5):
        sim.run(until=minute * MINUTES)
        sizes = overlay.group.peerview_sizes()
        rows.append(
            [
                minute,
                min(sizes),
                f"{sum(sizes) / len(sizes):.1f}",
                max(sizes),
                "yes" if overlay.group.property_2_satisfied() else "no",
            ]
        )
    print(render_table(
        ["t (min)", "min l", "mean l", "max l", "Property (2)"], rows
    ))

    events = obs.tracer.events
    adds = [e for e in events if e.name == "view.add"]
    removes = [e for e in events if e.name == "view.remove"]
    first_remove = min((e.t for e in removes), default=float("inf"))
    print()
    print(f"peerview events: {len(adds)} adds, {len(removes)} removes")
    print(f"first removal at {first_remove / 60:.1f} min "
          f"(PVE_EXPIRATION = {config.pve_expiration / 60:.0f} min)")
    print(f"protocol traffic: {network.stats.messages_sent} messages, "
          f"{network.stats.bytes_sent / 1e6:.1f} MB")
    print(f"  inter-site: {network.stats.inter_site_messages}, "
          f"intra-site: {network.stats.intra_site_messages}")


if __name__ == "__main__":
    main()
