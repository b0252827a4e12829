"""Unit tests for the named RNG registry."""

import pytest

from repro.sim import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_distinct_names_give_distinct_seeds(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_distinct_masters_give_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        s = derive_seed(123, "stream")
        assert 0 <= s < 2**64


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        a_first = [r1.stream("a").random() for _ in range(3)]

        r2 = RngRegistry(7)
        r2.stream("b").random()  # touch another stream first
        a_second = [r2.stream("a").random() for _ in range(3)]
        assert a_first == a_second

    def test_fork_is_deterministic(self):
        a = RngRegistry(7).fork("peer-1").stream("s").random()
        b = RngRegistry(7).fork("peer-1").stream("s").random()
        assert a == b

    def test_fork_namespaces_differ(self):
        root = RngRegistry(7)
        a = root.fork("peer-1").stream("s").random()
        b = root.fork("peer-2").stream("s").random()
        assert a != b

    def test_contains(self):
        reg = RngRegistry(0)
        assert "x" not in reg
        reg.stream("x")
        assert "x" in reg
        reg.next_uniform("y", 0.0, 1.0)
        assert "y" in reg


class TestNextUniform:
    def test_values_are_the_streams_uniform_draws(self):
        reg, twin = RngRegistry(7), RngRegistry(7).stream("j")
        for a, b in [(0.0, 1.0), (0.0, 10.0), (-3.0, 3.0), (5.0, 6.0)]:
            assert reg.next_uniform("j", a, b) == twin.uniform(a, b)
        assert reg._draws == {"j": 4}
        assert reg._streams == {}

    def test_a_name_is_either_a_stream_or_a_draw_count(self):
        reg = RngRegistry(7)
        reg.stream("s")
        with pytest.raises(ValueError):
            reg.next_uniform("s", 0.0, 1.0)
        reg.next_uniform("j", 0.0, 1.0)
        with pytest.raises(ValueError):
            reg.stream("j")
        assert reg._draws == {"j": 1} and list(reg._streams) == ["s"]
