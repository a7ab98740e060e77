"""S5 — the indexed corpus engine vs the pre-index matching loop.

The innermost hot path of the whole reproduction: matching every attack
keyword of the database against every post of every analysis window.
The pre-index path (seed ``Corpus.matching``) re-normalizes, re-stems
and re-joins each post's text for every ``(keyword, post)`` pair; the
indexed engine precomputes one :class:`~repro.nlp.analysis.PostAnalysis`
per post, keeps the posts date-sorted (windows are bisected slices) and
matches each keyword with one arena sweep: a C-level ``str.find`` loop
over the window's slice of the joined haystacks.  The sweep is the one
matcher — hashtags, tokens, stems and phrases alike, no postings.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_indexed_corpus.py -q

``test_s5_speedup_and_equivalence`` asserts post-for-post identical
results to the naive scan, a >= 5x speedup on the 56-keyword x 5-window
acceptance workload, and writes ``BENCH_indexed_corpus.json`` (see
docs/BENCHMARKS.md for the schema).
"""

import pytest

from repro.analysis.benchjson import load_bench_result
from repro.analysis.benchkit import (
    fleet_workload,
    indexed_matching_pass,
    naive_matching_pass,
    run_indexed_corpus_bench,
)


@pytest.fixture(scope="module")
def workload():
    return fleet_workload()


def test_s5_naive_matching_loop(benchmark, workload):
    results = benchmark(
        naive_matching_pass, workload.corpus, workload.keywords, workload.windows
    )
    print(f"\nS5 — pre-index matching loop: {len(workload.database)} keywords x "
          f"{len(workload.windows)} windows, {len(workload.corpus)} posts")
    assert len(results) == len(workload.windows)


def test_s5_indexed_engine(benchmark, workload):
    results = benchmark(
        indexed_matching_pass,
        workload.corpus,
        workload.keywords,
        workload.windows,
    )
    print(f"\nS5 — indexed engine: {len(workload.database)} keywords x "
          f"{len(workload.windows)} windows, {len(workload.corpus)} posts")
    assert len(results) == len(workload.windows)


def test_s5_speedup_and_equivalence(workload, bench_report):
    result = run_indexed_corpus_bench(workload)
    path = bench_report(result)
    payload = load_bench_result(path)
    print("\nS5 summary: " + str(payload))

    assert result.equivalent, "indexed engine diverged from the naive scan"
    # The acceptance gate: one-pass indexed matching must beat the
    # pre-index Corpus.matching loop >= 5x on the fleet-scale workload
    # (typical margin is ~20-30x).
    assert result.speedup >= 5.0, payload
    assert payload["bench"] == "indexed_corpus"
