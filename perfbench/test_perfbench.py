"""Self-tests for the ledger's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, iterations, p99  # noqa: E402
from spans import SpanRecorder, Tracer  # noqa: E402
from streams import (  # noqa: E402
    SPILL,
    TARGET_REGION,
    TIERED,
    StreamGenerator,
)


# -- the percentile rule --------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert p99([float(i) for i in range(999)]) is None
    assert p99([]) is None
    samples = [float((7 * i) % 1000) for i in range(1000)]
    tail = p99(samples)
    assert tail == 989.0
    assert sum(1 for s in samples if s > tail) == 10


def test_iteration_count_depends_on_the_budget_only():
    assert iterations(1) == iterations(30) == 3
    assert iterations(60) == 6


def test_probe_time_stays_off_the_tick_and_run_clocks():
    from workloads import Clock

    clock = Clock()
    clock.tick(lambda: None)
    (tick,) = clock.ticks_s
    assert 0 < clock.probe_s < clock.off_clock_s
    assert tick < clock.off_clock_s


# -- self time of nested spans ----------------------------------------------------


def _recorder(times):
    ticks = iter(times)
    return SpanRecorder(clock=lambda: next(ticks))


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0, 10.0])
    outer = recorder.open("outer")        # 0
    child = recorder.open("child")        # 1
    grand = recorder.open("grandchild")   # 1.5
    recorder.close(grand)                 # 2.5
    recorder.close(child)                 # 3
    second = recorder.open("child")       # 4
    recorder.close(second)                # 5
    recorder.close(outer)                 # 10
    assert recorder.self_time(grand) == pytest.approx(1.0)
    assert recorder.self_time(child) == pytest.approx(1.0)
    assert recorder.self_time(outer) == pytest.approx(10.0 - 2.0 - 1.0)
    assert list(recorder.parent_of) == [-1, 0, 1, 0]
    summary = recorder.summary()
    assert summary["child"]["calls"] == 2
    assert summary["child"]["self_s"] == pytest.approx(2.0)
    assert recorder.durations("child") == pytest.approx([2.0, 1.0])


def test_tracer_wraps_methods_and_restores_them(tmp_path):
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

        @classmethod
        def build(cls):
            return cls()

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    results = []
    tracer.method(Layer, "outer", "layer.outer", on_result=results.append)
    tracer.method(Layer, "inner", "layer.inner")
    tracer.method(Layer, "build", "layer.build")
    assert Layer.build().outer() == 42
    assert results == [42]
    recorder = tracer.recorder
    assert recorder.names == ["layer.build", "layer.outer", "layer.inner"]
    assert list(recorder.parent_of) == [-1, -1, 1]
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    recorder.write(tmp_path)
    index = json.loads((tmp_path / "names.json").read_text())
    assert index["spans"] == 3


# -- the ground-truth generator ---------------------------------------------------


@pytest.mark.parametrize("shape", [TIERED, SPILL], ids=lambda s: s.name)
def test_ground_truth_matches_the_naive_scan(shape):
    from repro.nlp.normalize import keyword_in_text

    generator = StreamGenerator(shape, seed=7)
    keywords = generator.keywords()
    expected = Counter()
    for _ in range(5):
        _, planted = generator.next_day()
        for item in planted:
            found = [k for k in keywords if keyword_in_text(k, item.post.text)]
            assert found == ([item.keyword] if item.keyword else []), item.post.text
            if item.keyword and item.post.region == TARGET_REGION:
                expected[(item.keyword, item.post.created_at.year)] += 1
    assert generator.truth == expected
    assert sum(expected.values()) > 0


def test_generator_is_a_function_of_the_seed():
    def first_days(seed):
        generator = StreamGenerator(SPILL, seed)
        return [
            (item.post, item.keyword)
            for _ in range(3)
            for item in generator.next_day()[1]
        ]

    assert first_days(3) == first_days(3)
    assert first_days(3) != first_days(4)


def test_spill_texts_are_distinct_and_padded():
    generator = StreamGenerator(SPILL, seed=1)
    texts = [item.post.text for item in generator.next_day()[1]]
    assert len(set(texts)) == len(texts)
    assert all(len(text) == SPILL.text_chars for text in texts)


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
