"""PercentileSketch: Tally query surface, determinism, accuracy, read-only queries."""

import math
import random

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.sketch import PercentileSketch
from repro.simcore.monitor import Tally


def test_empty_sketch_matches_empty_tally_surface():
    sk = PercentileSketch("s")
    assert sk.count == 0
    assert math.isnan(sk.mean)
    assert math.isnan(sk.minimum)
    assert math.isnan(sk.maximum)
    assert math.isnan(sk.percentile(50))


def test_single_observation_is_exact():
    sk = PercentileSketch()
    sk.observe(42.0)
    assert sk.count == 1
    assert sk.mean == 42.0
    assert sk.minimum == sk.maximum == 42.0
    assert sk.percentile(0) == sk.percentile(50) == sk.percentile(100) == 42.0


def test_percentile_rejects_out_of_range_q():
    sk = PercentileSketch()
    sk.observe(1.0)
    with pytest.raises(ValueError):
        sk.percentile(101)
    with pytest.raises(ValueError):
        sk.percentile(-0.1)


def test_compression_floor_is_enforced():
    with pytest.raises(ValueError):
        PercentileSketch(compression=5)


def test_min_max_mean_are_exact_always():
    rng = random.Random(7)
    values = [rng.lognormvariate(3.0, 1.2) for _ in range(20000)]
    sk = PercentileSketch()
    for v in values:
        sk.observe(v)
    assert sk.count == len(values)
    assert sk.minimum == min(values)
    assert sk.maximum == max(values)
    assert sk.mean == pytest.approx(sum(values) / len(values), rel=1e-12)


def test_accuracy_within_one_percent_of_exact_tally():
    """p50/p99 track the full-retention Tally on a heavy-tailed stream."""
    rng = random.Random(42)
    tally = Tally("exact")
    sk = PercentileSketch("sketch")
    for _ in range(50000):
        v = rng.lognormvariate(5.0, 1.5)
        tally.observe(v)
        sk.observe(v)
    for q in (50, 90, 99):
        exact = tally.percentile(q)
        approx = sk.percentile(q)
        assert abs(approx - exact) / exact < 0.01, (q, exact, approx)


def test_accuracy_on_staircase_cdf_with_large_atoms():
    """Deterministic simulations put huge mass on single values; the
    sketch's compression is chosen so p50 still lands on the right
    step (the regression that motivated delta=500)."""
    values = [0.0] * 4000 + [300.0] * 3000 + [1500.0] * 2000 + [5000.0] * 1000
    # Deterministic interleave so compression sees mixed batches.
    values = values[::2] + values[1::2]
    tally = Tally("exact")
    sk = PercentileSketch()
    for v in values:
        tally.observe(v)
        sk.observe(v)
    # Query interior points of each plateau (q=90 sits exactly on the
    # 1500->5000 step edge, where even the exact answer is a knife-edge).
    for q in (50, 85, 95, 99):
        exact = tally.percentile(q)
        approx = sk.percentile(q)
        assert abs(approx - exact) <= 0.01 * max(exact, 1.0), (q, exact, approx)


def test_deterministic_no_rng_same_input_same_state():
    rng = random.Random(3)
    values = [rng.expovariate(0.01) for _ in range(7000)]
    a = PercentileSketch()
    b = PercentileSketch()
    for v in values:
        a.observe(v)
        b.observe(v)
    a._compress()
    b._compress()
    assert a._means == b._means
    assert a._weights == b._weights
    assert a.percentile(99) == b.percentile(99)


def test_queries_do_not_change_what_the_sketch_reports():
    """A run sampled often (``--run-dir`` snapshots query p50 and p99
    every tick) reports what an unsampled run reports."""
    rng = random.Random(7)
    values = [rng.lognormvariate(4.0, 0.6) for _ in range(20000)]
    queried = PercentileSketch()
    quiet = PercentileSketch()
    for i, v in enumerate(values, start=1):
        queried.observe(v)
        quiet.observe(v)
        if i % 300 == 0:
            queried.percentile(50)
            queried.percentile(99)
            assert queried.centroid_count > 0
    assert queried.percentile(50) == quiet.percentile(50)
    assert queried.percentile(99) == quiet.percentile(99)
    assert queried.centroid_count == quiet.centroid_count
    assert queried._means == quiet._means
    assert queried._buffer == quiet._buffer


def test_memory_is_bounded_by_compression_not_samples():
    rng = random.Random(5)
    sk = PercentileSketch(compression=100)
    for _ in range(100000):
        sk.observe(rng.expovariate(1.0))
    # ~delta/2 centroids versus 100k retained samples for a Tally.
    assert sk.centroid_count < 150


# -- registry wiring ---------------------------------------------------------


def test_registry_sketch_backend_hands_out_sketches():
    reg = MetricsRegistry()
    inst = reg.tally("latency_us", fabric="ib")
    assert isinstance(inst, PercentileSketch)
    assert reg.tally("latency_us", fabric="ib") is inst  # shared identity
    inst.observe(10.0)
    inst.observe(20.0)
    snap = reg.snapshot()
    entry = snap["latency_us{fabric=ib}"]
    assert "backend" not in entry  # one tally kind: nothing to tag
    assert entry["count"] == 2
    assert entry["p50"] == pytest.approx(15.0)


def test_registry_exact_backend_has_no_backend_tag():
    # Min, max and mean stay exact; the snapshot names no backend.
    reg = MetricsRegistry()
    reg.tally("t").observe(1.0)
    entry = reg.snapshot()["t"]
    assert "backend" not in entry
    assert entry["count"] == 1
    assert entry["min"] == entry["max"] == entry["mean"] == 1.0
