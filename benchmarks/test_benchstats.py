"""Tests for the benchmark's own statistics, op counting and span arithmetic.

Run with: python3 -m pytest benchmarks/test_benchstats.py
"""

import statistics
import threading

import numpy as np
import pytest

from bench import Core, run_core
from stats import OpCount, highest_supported_percentile, median, percentile, quartiles
from tracing import Tracer, self_times


def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 100.0) == 100.0
    assert percentile([7.0], 99.0) == 7.0
    # Six requests: the 50th percentile is the third fastest, the 99th the slowest.
    assert percentile([0.9, 0.1, 0.3, 0.2, 0.4, 0.002], 50.0) == 0.2
    assert percentile([0.9, 0.1, 0.3, 0.2, 0.4, 0.002], 99.0) == 0.9


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_highest_supported_percentile_needs_ten_beyond():
    assert highest_supported_percentile(10_000) == 99.9
    assert highest_supported_percentile(9_999) == 99.0
    assert highest_supported_percentile(1_000) == 99.0
    assert highest_supported_percentile(999) == 95.0
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(19) is None


def test_op_count_includes_failed_ops():
    count = OpCount()
    count.record(True)
    count.record(False)
    count.record(True, 8)
    count.record(False, 0)
    assert (count.attempted, count.failed, count.succeeded) == (10, 1, 9)
    assert count.failed_frac == pytest.approx(0.1)
    assert OpCount().failed_frac == 0.0
    with pytest.raises(ValueError):
        count.record(True, -1)


class _FakeWorkload:
    min_chunks = 2
    rss_chunks = 1

    def __init__(self):
        self.chunks = 0

    def chunk(self):
        self.chunks += 1
        # (request seconds, ops delivered, ops failed)
        return [(0.5, 10, 2), (0.25, 5, 0)]


def test_run_core_counts_ops_and_failures():
    workload = _FakeWorkload()
    core = run_core(workload, 0.0)
    assert workload.chunks == 2
    assert (core.ops.attempted, core.ops.failed) == (30, 4)
    assert core.chunks == [(0.75, 13), (0.75, 13)]
    assert core.samples == [[0.5, 0.25]] * 2
    assert core.ops_per_s() == pytest.approx(13 / 0.75)
    assert core.rss_mb > 0


def test_timings_are_medians_over_chunks():
    core = Core(chunks=[(1.0, 10), (1.0, 30), (1.0, 20)])
    assert core.ops_per_s() == 20.0
    core.samples = [[1.0, 9.0], [2.0, 4.0], [3.0, 5.0]]
    assert core.latency(50.0) == 2.0
    assert core.latency(99.0) == 5.0


def _spans(rows):
    cols = list(zip(*rows))
    return {
        "sid": np.array(cols[0]), "parent": np.array(cols[1]), "layer": np.zeros(len(rows), int),
        "t0": np.array(cols[2], float), "t1": np.array(cols[3], float),
    }


def test_self_time_subtracts_union_of_overlapping_children():
    # Parent 1 spans [0, 10]; children on two threads overlap in [2, 5];
    # child 4 pokes past the parent's end and is clipped.
    spans = _spans([
        (1, 0, 0.0, 10.0),
        (2, 1, 1.0, 5.0),
        (3, 1, 2.0, 6.0),
        (4, 1, 8.0, 12.0),
        (5, 0, 20.0, 21.0),
        (6, 2, 1.5, 2.5),  # grandchild: counted under span 2, not span 1
    ])
    parents = spans["sid"] == 1
    assert self_times(spans, parents).tolist() == pytest.approx([10.0 - 5.0 - 2.0])
    both = np.isin(spans["sid"], [1, 5])
    assert self_times(spans, both).tolist() == pytest.approx([3.0, 1.0])


def test_worker_thread_spans_take_the_open_sweep_as_parent():
    tracer = Tracer()

    def point():
        return 1

    traced_point = tracer.wrap(point, "cli.point")

    def run_sections():
        worker = threading.Thread(target=traced_point)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return traced_point()

    traced_sweep = tracer.wrap(run_sections, "cli.run_sections")
    assert traced_sweep() == 1
    spans = tracer.spans()
    layer = {name: i for i, name in enumerate(tracer.layers)}
    sweep = spans["sid"][spans["layer"] == layer["cli.run_sections"]]
    points = spans["parent"][spans["layer"] == layer["cli.point"]]
    assert points.tolist() == [sweep[0], sweep[0]]
    assert tracer.open_sweep == 0


def test_install_skips_missing_names_and_uninstall_restores(monkeypatch):
    import json

    import tracing

    original = json.dumps
    monkeypatch.setattr(tracing, "HOOKS", (
        ("json", "dumps", None, "json.dumps"),
        ("json", "no_such_function", None, "json.gone"),
        ("json", "no_such_table", "key", "json.table"),
        ("no_such_module_for_bench", "f", None, "missing.module"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.present == {"json.dumps"}
        assert json.dumps is not original
        assert json.dumps([1]) == "[1]"
    finally:
        tracer.uninstall()
    assert json.dumps is original
    assert tracer.spans()["layer"].tolist() == [tracer.layers.index("json.dumps")]
