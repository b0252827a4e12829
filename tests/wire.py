"""The wire view of a run, read from the obs timeline tracer.

``Observability.on_network_send`` records every ``Network.send`` (lost
sends included) as an ``endpoint`` / ``send`` event that carries the
destination, the size and the payload type.  :func:`trace_wire`
attaches a hub that keeps only the ``endpoint`` category;
:func:`hops` reads its sends back as ``(src, dst, type)`` tuples.
"""

from repro.obs import Observability, enable_observability


def trace_wire(network) -> Observability:
    """Record every send on ``network`` from now on."""
    return enable_observability(
        network, metrics=False, trace=True, categories=("endpoint",)
    )


def hops(obs: Observability, types=None):
    """The recorded sends as ``(src, dst, type)``, in send order,
    optionally only those whose payload type is in ``types``."""
    return [
        (e.actor, e.args["dst"], e.args["type"])
        for e in obs.tracer.events
        if e.name == "send" and (types is None or e.args["type"] in types)
    ]
