"""Traffic accounting.

The paper's §4.1 discussion weighs peerview *freshness* against
*bandwidth consumption*; the ablation experiments need the latter
measured.  :class:`TrafficStats` counts messages and bytes globally
and per site pair, cheaply enough to stay on for every run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(slots=True)
class TrafficStats:
    """Aggregate counters maintained by :class:`repro.network.Network`."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    #: (src site, dst site) -> message count
    site_pair_messages: Counter = field(default_factory=Counter)

    def record_drop(self) -> None:
        self.messages_dropped += 1

    @property
    def inter_site_messages(self) -> int:
        """Messages that crossed a site boundary (WAN traffic)."""
        return sum(
            n for (s, d), n in self.site_pair_messages.items() if s != d
        )

    @property
    def intra_site_messages(self) -> int:
        """Messages that stayed inside a cluster."""
        return sum(
            n for (s, d), n in self.site_pair_messages.items() if s == d
        )

    def bandwidth_bps(self, elapsed: float) -> float:
        """Mean offered load over ``elapsed`` seconds, bits per second."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be > 0 (got {elapsed})")
        return self.bytes_sent * 8.0 / elapsed

    def snapshot(self) -> Dict[str, float]:
        """Flat summary dict for reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "inter_site_messages": self.inter_site_messages,
            "intra_site_messages": self.intra_site_messages,
        }
