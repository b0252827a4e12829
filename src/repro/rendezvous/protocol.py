"""The peerview convergence protocol — Algorithm 1 of the paper.

Every rendezvous peer runs the loop below once per
``PEERVIEW_INTERVAL`` (default 30 s)::

    repeat
        wait for PEERVIEW_INTERVAL
        remove entries from the local peerview older than PVE_EXPIRATION
        l = size of the local peerview
        for rdv in {upper_rdv, lower_rdv}:
            if l < HAPPY_SIZE:
                probe rdv
            else if rand() % 3 == 0:
                update our entry in the peerview of rdv
            else:
                probe rdv
        if l < HAPPY_SIZE:
            probe initial rendezvous peers (seeds)
    until rendezvous service is stopped

Message behaviour (§3.2): a *probe* carries the sender's rendezvous
advertisement; the receiver answers with (1) a *response* carrying its
own advertisement and (2) a separate *referral* carrying a randomly
chosen advertisement from its view, so the prober "may learn about a
new rendezvous peer.  However, before adding this new rendezvous
advertisement in its local peerview, peer A will probe peer C" — the
referral target is probed, and only its own response installs it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.endpoint.service import (
    DEFAULT_TTL,
    MESSAGE_HEADER_BYTES,
    EndpointMessage,
    EndpointService,
)
from repro.ids.jxtaid import PeerID
from repro.obs.tracer import peerview_event_args
from repro.rendezvous.messages import (
    _PV_OVERHEAD,
    PeerViewProbe,
    PeerViewReferral,
    PeerViewResponse,
    PeerViewUpdate,
)
from repro.rendezvous.peerview import PeerView
from repro.sim.process import PeriodicTask, Process

#: Endpoint service name for peerview traffic (as in JXTA-C).
PEERVIEW_SERVICE_NAME = "jxta.service.peerview"

_new_message = EndpointMessage.__new__


class PeerViewProtocol(Process):
    """Algorithm 1, bound to one rendezvous peer."""

    def __init__(
        self,
        endpoint: EndpointService,
        config: PlatformConfig,
        local_adv: RdvAdvertisement,
        group_param: str,
    ) -> None:
        super().__init__(endpoint.sim, name=f"peerview:{local_adv.rdv_peer_id.short()}")
        self.endpoint = endpoint
        self.config = config
        self.local_adv = local_adv
        self.group_param = group_param
        self.view = PeerView(local_adv, endpoint.interner)
        #: outstanding probes: target transport address -> deadline
        #: (sent_at + probe_timeout); see _probe_address
        self._pending_probes: Dict[str, float] = {}
        self._seeds_contacted = False
        self.probes_sent = 0
        self.updates_sent = 0
        self.responses_sent = 0
        self.referrals_sent = 0
        self._task = PeriodicTask(
            self.sim,
            config.peerview_interval,
            self._iteration,
            name=self.name,
            start_jitter=config.startup_jitter,
            immediate=True,
        )
        # named RNG streams bound once: stream seeds derive from the
        # name alone, so eager binding draws nothing and preserves
        # replay, while the per-iteration f-string + registry lookup
        # disappears from the hot path
        self._coin = self.sim.rng.stream(f"{self.name}.coin")
        self._referral_rng = self.sim.rng.stream(f"{self.name}.referral")
        self._randomprobe_rng = self.sim.rng.stream(f"{self.name}.randomprobe")
        # wire bodies wrapping local_adv are immutable once built, so
        # one instance of each kind is shared across every send instead
        # of allocating ~10 wrappers per peer per iteration (receivers
        # only ever read body.rdv_adv — which is the shared local_adv
        # object anyway)
        self._probe_body = PeerViewProbe(local_adv, want_referral=True)
        self._verify_probe_body = PeerViewProbe(local_adv, want_referral=False)
        self._response_body = PeerViewResponse(local_adv)
        self._update_body = PeerViewUpdate(local_adv)
        # wire sizes of the shared bodies are as constant as the bodies
        # themselves (the advertisement caches its XML size on first
        # use), so the per-send size_bytes() call collapses to an int
        self._probe_size = MESSAGE_HEADER_BYTES + self._probe_body.size_bytes()
        self._verify_probe_size = (
            MESSAGE_HEADER_BYTES + self._verify_probe_body.size_bytes()
        )
        self._response_size = (
            MESSAGE_HEADER_BYTES + self._response_body.size_bytes()
        )
        self._update_size = MESSAGE_HEADER_BYTES + self._update_body.size_bytes()
        self._dispatch = {
            PeerViewProbe: self._on_probe,
            PeerViewResponse: self._on_response,
            PeerViewUpdate: self._on_update,
            PeerViewReferral: self._on_referrals,
        }
        # observability (repro.obs): the network hub and this peer's
        # actor label, read once; view membership changes are observed
        # through a listener so upsert/expire stay obs-agnostic
        self._net = endpoint.network
        self._actor = endpoint.transport_address
        self._clock = endpoint.sim.clock
        # immutable per-peer facts and hot callables, bound once so the
        # per-message paths below load one attribute instead of two
        # (advertised_address is deliberately NOT bound: relay clients
        # rebind it at runtime)
        self._peer_id = endpoint.peer_id
        self._addr = endpoint.transport_address
        self._entries_get = self.view._entries.get
        self._probe_timeout = config.probe_timeout
        self.view.add_listener(self._on_view_change)
        endpoint.add_listener(PEERVIEW_SERVICE_NAME, group_param, self._on_message)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._task.start()

    def on_stop(self) -> None:
        self._task.stop()
        self._pending_probes.clear()

    # ------------------------------------------------------------------
    # the periodic iteration (Algorithm 1 body)
    # ------------------------------------------------------------------
    def _iteration(self) -> None:
        now = self._clock._now
        config = self.config
        self.view.expire(now, config.pve_expiration)
        size = self.view.size
        happy = config.happy_size
        # coin.randrange(3) unrolled to its own getrandbits rejection
        # loop (same bit stream, two frames fewer per neighbour)
        coin_grb = self._coin.getrandbits
        # the whole iteration works on interned int keys: membership
        # tests and sampling below hash machine ints, and PeerID
        # objects are only materialised inside _probe_peer/_update_peer
        # when a message is actually built
        neighbors = self._neighbor_keys()
        for neighbor in neighbors:
            if size < happy:
                self._probe_peer(neighbor)
            else:
                flip = coin_grb(2)
                while flip >= 3:
                    flip = coin_grb(2)
                if flip == 0:
                    self._update_peer(neighbor)
                else:
                    self._probe_peer(neighbor)
        # refresh-probe members beyond the neighbours (the traffic the
        # paper's phase-3 analysis refers to: the protocol tries to
        # cover all entries but cannot within PVE_EXPIRATION)
        if config.random_probe_count > 0:
            # draw-identical to sampling the filtered candidate list
            # (see PeerView.sample_entry_keys) without building it
            for key in self.view.sample_entry_keys(
                self._randomprobe_rng, config.random_probe_count, neighbors
            ):
                self._probe_peer(key)
        # seeds are always contacted at service start (JXTA-C connects
        # to its seeding rendezvous at boot); afterwards Algorithm 1
        # re-probes them only while the view is below HAPPY_SIZE
        if size < happy or not self._seeds_contacted:
            self._seeds_contacted = True
            for seed in config.seeds:
                if seed != self.endpoint.transport_address:
                    self._probe_address(seed)

    def reseed(self) -> None:
        """Probe the configured seed rendezvous again.

        Algorithm 1 contacts seeds only at boot and while the view is
        below ``HAPPY_SIZE``, so two network halves whose cross-links
        expired during a long partition stay split even after the WAN
        heals — each side is "happy" on its own.  Operators (or
        recovery logic) call this to stitch the overlay back together,
        the equivalent of re-loading the seeding configuration on a
        JXTA rendezvous.
        """
        for seed in self.config.seeds:
            if seed != self.endpoint.transport_address:
                self._probe_address(seed)

    def _neighbor_keys(self) -> Iterable[int]:
        """Interned keys of the upper and lower rendezvous, when present
        (ends of the sorted list have only one peer to probe)."""
        out = []
        upper = self.view.neighbor_key(1)
        if upper is not None:
            out.append(upper)
        lower = self.view.neighbor_key(-1)
        if lower is not None:
            out.append(lower)
        return out

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _probe_peer(self, key: int) -> None:
        adv = self._entries_get(key)
        if adv is None:
            return
        hint = adv.route_hint
        if hint:
            self._probe_address(hint, adv.rdv_peer_id)

    def _probe_address(
        self,
        address: str,
        dst_peer: Optional[PeerID] = None,
        verification: bool = False,
    ) -> None:
        """Send a probe unless one is already outstanding for this
        address.  Verification probes (of referred peers) do not
        solicit further referrals, bounding the referral cascade.

        A probe is outstanding until its response arrives or until its
        deadline, ``probe_timeout`` after it was sent, inclusive: when
        ``peerview_interval == probe_timeout`` the next tick lands on
        the deadline and still finds the probe pending.  An address
        that never answers keeps its expired deadline until its next
        probe overwrites it or a late response pops it."""
        now = self._clock._now
        deadline = self._pending_probes.get(address)
        if deadline is not None and now <= deadline:
            return
        self.probes_sent += 1
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "peerview", "probe.sent", self._actor,
                dst=address, verify=verification,
            )
        self._pending_probes[address] = now + self._probe_timeout
        if verification:
            self._send(
                address, dst_peer, self._verify_probe_body,
                self._verify_probe_size,
            )
        else:
            self._send(address, dst_peer, self._probe_body, self._probe_size)

    def _update_peer(self, key: int) -> None:
        adv = self._entries_get(key)
        if adv is None:
            return
        hint = adv.route_hint
        if not hint:
            return
        self.updates_sent += 1
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self._clock._now, "peerview", "update.sent", self._actor,
                dst=hint,
            )
        self._send(hint, adv.rdv_peer_id, self._update_body, self._update_size)

    def _send(
        self, address: str, dst_peer: Optional[PeerID], body, size: int
    ) -> None:
        # inlined EndpointService.send_direct (kept there for every
        # other protocol): peerview traffic dominates a full-scale run,
        # its body sizes are precomputed, and its messages never arrive
        # with origin_address pre-set.  The shell is built without the
        # dataclass __init__ frame, as Simulator.schedule builds its
        # handles.
        endpoint = self.endpoint
        endpoint.messages_out += 1
        message = _new_message(EndpointMessage)
        message.src_peer = self._peer_id
        message.dst_peer = dst_peer
        message.service_name = PEERVIEW_SERVICE_NAME
        message.service_param = self.group_param
        message.body = body
        message.origin_address = endpoint.advertised_address
        message.ttl = DEFAULT_TTL
        self._net.send(self._addr, address, message, size)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_message(self, message: EndpointMessage) -> None:
        # dispatch on the exact body type (cheaper than an isinstance
        # chain at ~10 messages per peer per iteration); subclasses of
        # the wire dataclasses do not occur on the wire
        body = message.body
        try:
            handler = self._dispatch[type(body)]
        except KeyError:
            raise TypeError(
                f"unexpected peerview body: {type(body)!r}"
            ) from None
        handler(body, message)

    def _on_probe(self, body: PeerViewProbe, message: EndpointMessage) -> None:
        now = self._clock._now
        adv = body.rdv_adv
        self._learn(adv, now)
        # (1) response with our own advertisement
        reply_to = adv.route_hint or message.origin_address
        prober_id = adv.rdv_peer_id
        self.responses_sent += 1
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(now, "peerview", "probe.recv", self._actor, src=reply_to)
            obs.event(now, "peerview", "response.sent", self._actor, dst=reply_to)
        self._send(
            reply_to, prober_id, self._response_body, self._response_size
        )
        # (2) separate referral response with random other entries
        if body.want_referral:
            referrals = self.view.random_referrals(
                self._referral_rng,
                self.config.referral_count,
                exclude=(prober_id,),
            )
            if referrals:
                self.referrals_sent += 1
                if obs is not None and obs.active:
                    obs.event(
                        now, "peerview", "referral.sent", self._actor,
                        dst=reply_to, count=len(referrals),
                    )
                # the picks are the advertisements to send; their wire
                # size reads each one's size cache directly
                # (size_bytes() recomputes and refills it when a field
                # mutation invalidated the cache)
                rsize = MESSAGE_HEADER_BYTES + _PV_OVERHEAD
                for adv_r in referrals:
                    s = adv_r.__dict__.get("_size_cache")
                    if s is None:
                        s = adv_r.size_bytes()
                    rsize += s
                self._send(
                    reply_to, prober_id, PeerViewReferral(referrals), rsize
                )

    def _on_response(
        self, body: PeerViewResponse, message: EndpointMessage
    ) -> None:
        adv = body.rdv_adv
        self._pending_probes.pop(adv.route_hint, None)
        now = self._clock._now
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "peerview", "response.recv", self._actor,
                src=adv.route_hint,
            )
        self._learn(adv, now)

    def _on_update(self, body: PeerViewUpdate, message: EndpointMessage) -> None:
        self._learn(body.rdv_adv, self._clock._now)

    def _on_referrals(
        self, body: PeerViewReferral, message: EndpointMessage
    ) -> None:
        now = self._clock._now
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "peerview", "referral.recv", self._actor,
                count=len(body.rdv_advs),
            )
        for adv in body.rdv_advs:
            self._on_referral(adv, now)

    def _on_view_change(self, event) -> None:
        """PeerView listener: surface membership changes to repro.obs."""
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                event.time, "peerview", f"view.{event.kind}", self._actor,
                **peerview_event_args(event),
            )

    def _learn(self, adv: RdvAdvertisement, now: float) -> None:
        """Insert/refresh an advertisement received *from the peer it
        describes* and teach ERP the direct route.

        The refresh path of ``PeerView.upsert`` and the body of
        ``EndpointRouter.add_direct_route`` are inlined here (both
        keep their methods for every other caller): this runs once per
        probe/response/update received — the bulk of all messages at
        full scale — and the two frames plus their repeated interning
        were measurable.  The rare first-sight path falls through to
        the full ``upsert``."""
        view = self.view
        peer_id = adv.rdv_peer_id
        interner = view.interner
        try:
            table, key = peer_id._intern
            if table is not interner:
                key = interner.intern(peer_id)
        except AttributeError:
            key = interner.intern(peer_id)
        if key == view.local_key:
            return
        entries = view._entries
        if entries.pop(key, None) is not None:
            # a refresh moves the key to the end (refresh order, as
            # upsert), with the newer advertisement (route may change)
            entries[key] = adv
            view._stamps[key] = now
        else:
            view.add_keyed(key, adv, now)
        hint = adv.route_hint
        if hint:
            routes = self.endpoint.router._routes
            try:
                if routes[key] != hint:  # None (no route) differs too
                    routes[key] = hint
            except IndexError:
                # past the end of the slot list: extend it to key + 1
                routes.extend([None] * (key - len(routes)))
                routes.append(hint)

    def _on_referral(self, adv: RdvAdvertisement, now: float) -> None:
        # interner fast path unrolled as in _learn: referral bodies
        # carry several advertisements each, so this runs more often
        # than any other receive handler
        view = self.view
        peer_id = adv.rdv_peer_id
        interner = view.interner
        try:
            table, key = peer_id._intern
            if table is not interner:
                key = interner.intern(peer_id)
        except AttributeError:
            key = interner.intern(peer_id)
        if key == view.local_key:
            return
        if key in view._entries:
            # hearsay about a peer we already track: a referral is a
            # copy from the referrer's view, not proof of liveness, so
            # it does NOT refresh the entry's expiration clock — only
            # messages from the peer itself do.  (This is what lets
            # entries expire faster than the protocol can re-probe
            # them, producing the paper's phase 2/3 behaviour.)
            return
        # unknown peer: probe before adding (§3.2); a verification
        # probe, so the cascade stops at the referred peer
        hint = adv.route_hint
        if hint:
            self._probe_address(hint, adv.rdv_peer_id, True)
