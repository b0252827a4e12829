"""How a simulation runs, as opposed to what it simulates: one value.

A :class:`~repro.sim.Simulator` keeps its :class:`SimOptions`; the
network and the protocols read them as ``sim.options``, and a snapshot
carries them.  :meth:`SimOptions.from_env` is the package's only reader
of the process environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

#: makes :meth:`PeerView.expire` leak the ordered-list slot of every
#: third key
EXPIRE_LEAK = "peerview.expire-leak"
#: planted bugs the fuzzer must find
CANARIES = (EXPIRE_LEAK,)


@dataclass(frozen=True)
class SimOptions:
    """``canaries``: the armed :data:`CANARIES`, a sorted tuple (a
    set's order would tie blob bytes to ``PYTHONHASHSEED``)."""

    canaries: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        canaries = tuple(sorted(set(self.canaries)))
        if not set(canaries) <= set(CANARIES):
            raise ValueError(f"unknown canaries {canaries}; known: {CANARIES}")
        object.__setattr__(self, "canaries", canaries)

    @classmethod
    def from_env(cls) -> "SimOptions":
        """``REPRO_CANARY=1`` arms every canary."""
        return cls(
            canaries=CANARIES if os.environ.get("REPRO_CANARY") == "1" else (),
        )
