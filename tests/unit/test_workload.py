"""Unit tests for the repro.workload subsystem (arrivals, catalogs,
SLO tracking, traces, specs)."""

import json
import random
from dataclasses import replace

import pytest

from repro.sim import Simulator
from repro.workload import (
    Catalog,
    PoissonArrivals,
    SloTracker,
    TraceOp,
    WorkloadEngine,
    WorkloadSpec,
    WorkloadTraceRecorder,
    load_trace_lines,
    make_arrivals,
    noiser_catalog,
    publish_catalog,
    replay_ops,
)


# ---------------------------------------------------------------- arrivals
class TestArrivals:
    def test_poisson_deterministic_per_stream(self):
        a = list(PoissonArrivals(3.0).iter_times(random.Random(42), 0.0, 50.0))
        b = list(PoissonArrivals(3.0).iter_times(random.Random(42), 0.0, 50.0))
        assert a == b
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))
        assert all(0.0 < t <= 50.0 for t in a)

    def test_poisson_rate_roughly_respected(self):
        times = list(PoissonArrivals(4.0).iter_times(random.Random(3), 0.0, 500.0))
        assert 1600 < len(times) < 2400  # mean 2000

    def test_factory_roundtrip_and_scaling(self):
        proc = make_arrivals({"kind": "poisson", "rate": 3})
        assert isinstance(proc, PoissonArrivals) and proc.rate == 3.0
        direct = PoissonArrivals(3.0).iter_times(random.Random(8), 0.0, 20.0)
        assert list(proc.iter_times(random.Random(8), 0.0, 20.0)) == list(direct)
        doubled = make_arrivals({"kind": "poisson", "rate": 6.0})
        assert doubled.rate == pytest.approx(2.0 * proc.rate)

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival.*'poisson'"):
            make_arrivals({"kind": "fractal", "rate": 1.0})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"rate": 2.0}, "kind"),
            ({"kind": "poisson", "rate": 2.0, "burst": 1}, "burst"),
            ({"kind": "poisson"}, "rate"),
            ({"kind": "poisson", "rate": "2"}, "rate"),
            ({"kind": "poisson", "rate": True}, "rate"),
            ({"kind": "poisson", "rate": 0.0}, "rate"),
            ({"kind": "poisson", "rate": float("inf")}, "rate"),
            ({"kind": "poisson", "rate": float("nan")}, "rate"),
        ],
        ids=["no-kind", "extra-key", "no-rate", "str-rate", "bool-rate",
             "zero-rate", "inf-rate", "nan-rate"],
    )
    def test_factory_rejects_malformed_spec(self, spec, field):
        # a ValueError naming the field, never a TypeError from the
        # constructor
        with pytest.raises(ValueError, match=field):
            make_arrivals(spec)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)


# ---------------------------------------------------------------- catalog
class TestCatalog:
    def test_zipf_prefers_low_indices(self):
        cat = Catalog.zipf(50, skew=1.2)
        rng = random.Random(9)
        draws = [cat.sample(rng) for _ in range(2000)]
        head = sum(1 for d in draws if d < 5)
        tail = sum(1 for d in draws if d >= 45)
        assert head > 5 * tail

    def test_uniform_is_flat(self):
        cat = Catalog.uniform(10)
        rng = random.Random(2)
        draws = [cat.sample(rng) for _ in range(5000)]
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 300  # ~500 each

    def test_sampling_is_stream_deterministic(self):
        cat = Catalog.zipf(30, skew=0.8)
        a = [cat.sample_name(random.Random(77)) for _ in range(1)]
        b = [cat.sample_name(random.Random(77)) for _ in range(1)]
        assert a == b

    def test_spec_roundtrip(self):
        for cat in (Catalog.uniform(12, payload_bytes=32),
                    Catalog.zipf(12, skew=1.5)):
            again = Catalog.from_spec(cat.spec())
            assert again.names == cat.names
            assert again.spec() == cat.spec()

    def test_from_spec_rejects_unknown_popularity(self):
        with pytest.raises(ValueError, match="popularity"):
            Catalog.from_spec({"popularity": "pareto", "size": 5})

    def test_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            Catalog(["a", "a"])

    def test_adv_and_index_lookup(self):
        cat = Catalog.uniform(4, prefix="svc", payload_bytes=8)
        adv = cat.adv_named("svc-2")
        assert adv.name == "svc-2"
        assert adv.payload == "x" * 8
        assert adv is cat.adv(2)
        assert cat.index_tuple(2)[2] == "svc-2"

    def test_one_shared_document_per_item(self):
        from repro.advertisement import FakeAdvertisement

        cat = Catalog.uniform(4, prefix="svc", payload_bytes=8)
        assert cat.adv(2) is cat.adv(2)
        assert cat.adv_named("svc-2") is cat.adv(2)
        assert cat.adv(2) is not cat.adv(3)
        assert cat.adv(2) == FakeAdvertisement("svc-2", "x" * 8)
        # and with the document, its index tuple and wire-size memo
        assert cat.adv(2).index_tuples() is cat.adv(2).index_tuples()
        assert cat.adv(2).index_tuples() == (cat.index_tuple(2),)

    def test_noiser_catalog_matches_legacy_naming(self):
        cat = noiser_catalog(3, 2)
        assert cat.names == [
            "fake-0-0", "fake-0-1", "fake-1-0",
            "fake-1-1", "fake-2-0", "fake-2-1",
        ]
        assert cat.payload_bytes == 64

    def test_publish_catalog_splits_contiguously(self):
        class Edge:
            def __init__(self):
                self.published = []
                self.discovery = self

            def publish(self, adv, lifetime=None, expiration=None):
                self.published.append((adv.name, expiration))

        edges = [Edge(), Edge()]
        cat = Catalog.uniform(5, prefix="it")
        n = publish_catalog(edges, cat, expiration=100.0)
        assert n == 5
        assert [name for name, _ in edges[0].published] == ["it-0", "it-1", "it-2"]
        assert [name for name, _ in edges[1].published] == ["it-3", "it-4"]
        assert all(exp == 100.0 for e in edges for _, exp in e.published)


# ------------------------------------------------------------------- SLO
class TestSloTracker:
    def test_counts_and_rates(self):
        slo = SloTracker()
        slo.record_success("w", "query", 0.010)
        slo.record_success("w", "query", 0.020)
        slo.record_timeout("w", "query")
        slo.record_failure("w", "query")
        slo.record_retry("w", "query")
        assert slo.requests("w", "query") == 4
        snap = slo.snapshot()["w.query"]
        assert snap["ok"] == 2
        assert snap["timeout_rate"] == pytest.approx(0.25)
        assert snap["failure_rate"] == pytest.approx(0.25)
        assert snap["retries"] == 1
        assert snap["p50_ms"] >= 10.0

    def test_latency_less_success_skips_histogram(self):
        slo = SloTracker()
        slo.record_success("w", "publish")
        assert slo.histogram("w", "publish").count == 0
        assert "p50_ms" not in slo.snapshot()["w.publish"]

    def test_merge_adds_everything(self):
        a, b = SloTracker(), SloTracker()
        a.record_success("w", "query", 0.010)
        b.record_success("w", "query", 0.030)
        b.record_timeout("w", "other")
        a.merge(b)
        assert a.requests("w", "query") == 2
        assert a.requests("w", "other") == 1
        assert a.histogram("w", "query").count == 2

    def test_merged_classmethod_and_key_order(self):
        trackers = []
        for op in ("c", "a", "b"):
            t = SloTracker()
            t.record_success("w", op, 0.001)
            trackers.append(t)
        merged = SloTracker.merged(trackers)
        assert list(merged.snapshot()) == ["w.a", "w.b", "w.c"]

    def test_snapshot_histogram_roundtrips(self):
        slo = SloTracker()
        for v in (0.004, 0.02, 0.4, 2.0):
            slo.record_success("w", "query", v)
        snap = slo.snapshot()["w.query"]["histogram"]
        assert json.loads(json.dumps(snap)) == snap
        assert snap == slo.histogram("w", "query").snapshot()
        assert snap["count"] == 4 and snap["max"] == 2.0


# ------------------------------------------------------------------ trace
class TestTrace:
    def test_canonical_lines_and_digest(self):
        rec = WorkloadTraceRecorder()
        rec.record(1.5, "query-0", "query", "item-3")
        rec.record(1.52, "query-0", "query.ok", "item-3", 0.02)
        lines = rec.lines()
        assert lines[0] == '{"client":"query-0","item":"item-3","op":"query","t":1.5}'
        assert "latency" in lines[1]
        rec2 = WorkloadTraceRecorder()
        rec2.record(1.5, "query-0", "query", "item-3")
        rec2.record(1.52, "query-0", "query.ok", "item-3", 0.02)
        assert rec.digest() == rec2.digest()
        import hashlib

        jsonl = rec.to_jsonl().encode("utf-8")
        assert rec.digest() == hashlib.sha256(jsonl).hexdigest()
        assert WorkloadTraceRecorder().digest() == hashlib.sha256(b"").hexdigest()

    def test_roundtrip_through_file(self, tmp_path):
        rec = WorkloadTraceRecorder()
        rec.record(0.0, "pub-0", "publish", "a")
        rec.record(3.25, "query-1", "query", "b")
        rec.record(3.5, "query-1", "query.timeout", "b")
        path = rec.write(tmp_path / "trace.jsonl")
        ops = load_trace_lines(path)
        assert ops == rec.ops
        assert [op.op for op in replay_ops(ops)] == ["publish", "query"]

    def test_trace_op_json_roundtrip(self):
        op = TraceOp(t=12.125, client="c", op="query.ok", item="i", latency=0.5)
        assert TraceOp.from_json(op.to_json()) == op
        # canonical float repr means byte-stable re-serialisation
        assert TraceOp.from_json(op.to_json()).to_json() == op.to_json()


# ------------------------------------------------------------------- spec
class TestWorkloadSpec:
    def test_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="sharding"):
            WorkloadSpec(queriers=1, sharding=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(duration=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(queriers=0, publishers=0)
        with pytest.raises(ValueError):
            WorkloadSpec(seed_time=10 * 60.0, warmup=60.0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrivals={"kind": "nope", "rate": 1.0})
        with pytest.raises(ValueError, match="rate"):
            WorkloadSpec(arrivals={"kind": "poisson"})

    def test_expected_requests_scales(self):
        spec = WorkloadSpec(duration=100.0, warmup=120.0, seed_time=60.0,
                            queriers=4, publishers=0,
                            arrivals={"kind": "poisson", "rate": 2.0})
        assert spec.expected_requests() == pytest.approx(800.0)
        spec2 = replace(spec, arrivals={"kind": "poisson", "rate": 4.0})
        assert spec2.expected_requests() == pytest.approx(1600.0)

    def test_engine_needs_enough_edges(self):
        sim = Simulator(seed=1)
        spec = WorkloadSpec(queriers=3, publishers=1)
        with pytest.raises(ValueError, match="edge peer"):
            WorkloadEngine(spec, sim, edges=[object(), object()])
