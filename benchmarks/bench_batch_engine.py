"""S4 — the batched+cached PSP engine vs the per-keyword path.

The fleet-scale workload the seed implementation handled quadratically:
a large keyword database (>= 50 attack topics) analysed over a series of
*overlapping* sliding windows (the monitor's growing-window cadence).
The per-keyword path re-scopes the corpus and re-mines every keyword for
every window; the cached engine fills the year cells of
:class:`~repro.core.cache.CachedClient` in one batched pass per year
(:meth:`InMemoryClient.search_many`) and scores every window's SAI from
the cells' memoised signals, so window N+1 only scores the one year it
newly covers.

Both sides now ride the indexed corpus engine — date-sorted windows and
the arena sweep (see ``bench_indexed_corpus.py`` for that layer's own
gate) — so this bench isolates the batching+caching win on top of it.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_engine.py -q \
        --benchmark-json=bench_batch_engine.json

``test_s4_speedup_and_equivalence`` writes ``BENCH_batch_engine.json``
(see docs/BENCHMARKS.md) and asserts both the speedup and the
batch-vs-sequential SAI equivalence on the full workload.
"""

import pytest

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    batched_cached_sai_pass,
    fleet_workload,
    run_batch_engine_bench,
    sequential_sai_pass,
)
from repro.core.cache import CachedClient, TTLCache
from repro.social import InMemoryClient


@pytest.fixture(scope="module")
def workload():
    return fleet_workload()


def test_s4_per_keyword_baseline(benchmark, workload):
    client = InMemoryClient(workload.corpus)

    results = benchmark(
        sequential_sai_pass, client, workload.database, workload.windows
    )

    print(f"\nS4 — per-keyword path: {len(workload.database)} keywords x "
          f"{len(workload.windows)} overlapping windows, "
          f"{len(workload.corpus)} posts")
    assert len(results) == len(workload.windows)


def test_s4_batched_cached_engine(benchmark, workload):
    inner = InMemoryClient(workload.corpus)

    def run():
        # Fresh cache per round: measures one cold monitoring sequence,
        # where each window still reuses the previous windows' years.
        client = CachedClient(inner, cache=TTLCache())
        return batched_cached_sai_pass(client, workload.database, workload.windows)

    results = benchmark(run)

    print(f"\nS4 — batched+cached engine: {len(workload.database)} keywords x "
          f"{len(workload.windows)} overlapping windows, "
          f"{len(workload.corpus)} posts")
    assert len(results) == len(workload.windows)


def test_s4_speedup_and_equivalence(workload, bench_report):
    result = run_batch_engine_bench(workload)
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS4 summary: " + str(payload))

    # Identical inputs => identical SAI lists, window by window.
    assert result.equivalent, "batched engine diverged from sequential path"
    # The batched+cached engine must beat the per-keyword path on this
    # workload.  The margin narrowed when the per-keyword baseline
    # started riding the indexed engine too; the remaining win is the
    # year-cell reuse across overlapping windows.
    assert result.speedup > 1.2, payload
    assert payload["bench"] == "batch_engine"
