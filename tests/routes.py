"""Read an ERP route table the way ``EndpointService.send_to_peer`` does."""


def next_hop(router, peer_id):
    """The address ``send_to_peer`` hands a message for ``peer_id`` to:
    its table slot, else the default route; None if unroutable.  Unlike
    a send, the read interns nothing, so unseen peers stay unseen."""
    key = router.interner.lookup(peer_id)
    routes = router._routes
    route = routes[key] if key is not None and key < len(routes) else None
    return router._default_route if route is None else route
