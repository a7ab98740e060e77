"""S8 — sharded merged ticks vs per-feed single-runtime ticks.

The platform-scale workload: N region/platform-sharded feeds each
deliver a micro-batch per arrival round on top of an already-analysed
history.  Before sharding, the only way to consume them was one
:class:`~repro.stream.runtime.StreamRuntime` ticking once *per shard
batch* — every arrival pays its own per-post keyword probing plus a full
conditional retune (and a TARA rescore whenever the table shifts).  The
:class:`~repro.stream.sharding.ShardedStreamRuntime` ingests the same
batches as **one merged tick per round**: per-shard arena-sweep
:class:`~repro.stream.deltas.SignalDelta` jobs (dispatched through the
pluggable executor — parallel across shards on multi-core hosts, serial
on this box when it has one CPU), each shard's delta applied once to the
runtime's one tracker, and a single shared evaluation per round
regardless of shard count.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py -q

``test_shard_speedup_and_equivalence`` asserts the >= 2.5x gate at
4 shards, alert/table/TARA/SAI parity with the equivalent single-feed
run at matching evaluation points, and writes ``BENCH_shard.json``
(schema in docs/BENCHMARKS.md).  The committed record's
``extra.scaling_fixed_shard_volume`` documents how the merged-tick cost
grows as shards are added at fixed per-shard volume.
"""

import pytest

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import fleet_workload, run_shard_bench


@pytest.fixture(scope="module")
def workload():
    return fleet_workload(years=tuple(range(2012, 2024)))


@pytest.fixture(scope="module")
def shard_result(workload):
    return run_shard_bench(workload=workload)


def test_shard_speedup_and_equivalence(shard_result, bench_report):
    result = shard_result
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS8 summary: " + str(payload))

    assert result.equivalent, (
        "sharded merged run diverged from the single-feed run "
        "(alerts/table/TARA/SAI)"
    )
    # The acceptance gate: 4 shards' arrival rounds through the merged
    # sharded tick must beat the sequential per-batch single-runtime
    # path >= 2.5x (typical margin on one CPU is ~3-4.5x; multi-core
    # hosts add executor parallelism on top).
    assert result.speedup >= 2.5, payload
    assert payload["bench"] == "shard"
    assert payload["extra"]["engine_evaluations"] < (
        payload["extra"]["naive_evaluations"]
    )


def test_shard_scaling_recorded(shard_result):
    curve = shard_result.extra["scaling_fixed_shard_volume"]
    assert set(curve) == {"1", "2", "4", "8"}
    # Fixed per-shard volume: 8 shards carry 8x the posts of 1 shard;
    # the merged tick must grow clearly sub-linearly even without
    # multi-core parallelism (one shared evaluation, sweep-dominated
    # shard jobs).
    assert curve["8"] < 8 * max(curve["1"], 1e-4)
