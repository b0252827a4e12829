"""Unit tests for latency models."""

import random

import pytest

from repro.network.latency import ConstantLatency, Grid5000Latency
from repro.network.site import site_by_name

RENNES = site_by_name("rennes")
SOPHIA = site_by_name("sophia")
ORSAY = site_by_name("orsay")


class TestConstantLatency:
    def test_returns_constant(self):
        m = ConstantLatency(0.005)
        assert m.delay(RENNES, SOPHIA, random.Random(0)) == 0.005

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestGrid5000Latency:
    def test_intra_site_is_lan_scale(self):
        m = Grid5000Latency(jitter=0.0)
        d = m.delay(RENNES, RENNES, random.Random(0))
        assert 10e-6 < d < 500e-6

    def test_inter_site_is_wan_scale(self):
        m = Grid5000Latency(jitter=0.0)
        d = m.delay(RENNES, SOPHIA, random.Random(0))
        # Grid'5000 publishes RTTs of ~4-20 ms between sites; one-way 2-10 ms
        assert 2e-3 < d < 12e-3

    def test_base_delay_symmetric(self):
        m = Grid5000Latency()
        assert m.base_delay(RENNES, SOPHIA) == m.base_delay(SOPHIA, RENNES)

    def test_farther_site_pair_is_slower(self):
        m = Grid5000Latency()
        assert m.base_delay(RENNES, SOPHIA) > m.base_delay(RENNES, ORSAY)

    def test_jitter_bounds(self):
        m = Grid5000Latency(jitter=0.1)
        base = m.base_delay(RENNES, SOPHIA)
        rng = random.Random(1)
        for _ in range(200):
            d = m.delay(RENNES, SOPHIA, rng)
            assert base * 0.9 <= d <= base * 1.1

    def test_cache_consistency(self):
        m = Grid5000Latency()
        first = m.base_delay(RENNES, SOPHIA)
        assert m.base_delay(RENNES, SOPHIA) == first

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            Grid5000Latency(jitter=1.0)
        with pytest.raises(ValueError):
            Grid5000Latency(jitter=-0.1)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Grid5000Latency(intra_site=-1.0)
