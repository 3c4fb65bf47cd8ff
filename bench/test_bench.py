"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

import run
import tracing
import workloads

SEED = 7

# A cheap slice of each pool: the first game and strat queries are the
# smallest (index 7 of game-wfs grounds on demand); the extcheck-ho pool
# starts with the stratified family, then lemma-1 and negation-free
# variants at depth 3.
TINY = {
    "game-wfs": [0, 1, 7],
    "strat-perfect": [0, 1],
    "extcheck-ho": [0, 4, 13],
}


def _tiny_pool(workload: str) -> list:
    pool = workloads.POOLS[workload](SEED)
    return [pool[i] for i in TINY[workload]]


def _run_once(pool, workdir, traced=False):
    paths = run.write_inputs(pool, workdir)
    run.use_checkout_sources()
    records, _ = run.run_passes(
        pool, paths, random.Random(SEED), traced, workdir, time.monotonic() + 120, passes=1
    )
    return records


def test_tiny_pools_pick_the_intended_queries():
    labels = {w: [q.label for q in _tiny_pool(w)] for w in TINY}
    assert [l.split("-")[2] for l in labels["game-wfs"]] == ["exh", "exh", "demand"]
    assert [l.split("-")[1] for l in labels["extcheck-ho"]] == [
        "stratified", "lemma", "positive"
    ]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_its_checker(workload, tmp_path):
    records = _run_once(_tiny_pool(workload), tmp_path)
    assert len(records) == len(TINY[workload])
    assert [r["failure"] for r in records] == [None] * len(records)
    assert all(r["elapsed"] > 0 for r in records)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_counts_repeat_across_traced_runs(workload, tmp_path):
    counts = []
    for _ in range(2):
        records = _run_once(_tiny_pool(workload), tmp_path, traced=True)
        assert [r["failure"] for r in records] == [None] * len(records)
        layers = tracing.per_layer(workload, records, 0.0)
        counts.append(
            {k: v for k, v in layers.items() if dict(tracing.PER_LAYER_METRICS)[k] != "s"
             and k not in ("layers.target_share", "trace.overhead_share")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["cli.output_bytes"] > 0
    if workload == "extcheck-ho":
        assert counts[0]["extensionality.checked_terms"] > 0
        assert counts[0]["extensionality.oracle_solves"] > 0
    else:
        assert counts[0]["grounder.clauses"] > counts[0]["grounder.dead_clauses"] > 0


def _corrupt(query):
    expected = dict(query.expected)
    if "model" in expected:
        model = dict(expected["model"])
        model["true"], model["false"] = model["false"], model["true"]
        expected["model"] = model
    else:
        expected["checked_terms"] += 1
    return dataclasses.replace(query, expected=expected)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_wrong_expected_answer_counts_as_failed(workload, tmp_path):
    pool = _tiny_pool(workload)
    pool[0] = _corrupt(pool[0])
    records = _run_once(pool, tmp_path)
    failed = [r for r in records if r["failure"] is not None]
    assert [r["label"] for r in failed] == [pool[0].label]
    assert "differs from the expected answer" in failed[0]["failure"]


def test_witness_rule_rejects_a_swapped_value():
    query = _tiny_pool("extcheck-ho")[1]
    plain, other = query.witness_sides
    witness = {
        "type": "(o -> o) -> o",
        "term": "s",
        "argument_pair": [plain, other],
        "lhs_atom": f"s {plain}",
        "rhs_atom": f"s {other}",
        "lhs_value": "false",
        "rhs_value": "undefined",
    }
    assert workloads._check_witnesses([witness], query.witness_sides) is None
    witness["lhs_value"], witness["rhs_value"] = "undefined", "false"
    assert workloads._check_witnesses([witness], query.witness_sides) is not None


def test_missing_entry_point_fails_loudly(monkeypatch):
    run.use_checkout_sources()
    import hoplog.cli

    tracing.check_entry_points()
    monkeypatch.delattr(hoplog.cli, "localize")
    with pytest.raises(RuntimeError, match="hoplog.cli.localize"):
        tracing.check_entry_points()
    monkeypatch.undo()
    import hoplog.wfs

    monkeypatch.delattr(hoplog.wfs, "WfsResult")
    with pytest.raises(RuntimeError, match="WfsResult"):
        tracing.check_entry_points()


def test_retrograde_solver_on_a_chain_and_a_cycle():
    # n0 -> n1 -> n2 (sink); n3 <-> n4 is a draw.
    status = workloads.solve_game(5, [(0, 1), (1, 2), (3, 4), (4, 3)])
    assert status == {0: "lose", 1: "win", 2: "lose", 3: "draw", 4: "draw"}


def test_universe_count_matches_the_lemma_program():
    oo = workloads.arrow("o", "o")
    signature = {"s": workloads.arrow(oo, "o"), "p": oo, "q": oo, "w": oo}
    # o -> o: p, q, w; (o -> o) -> o: s; o: s X (3) and X (s Y) (9).
    assert workloads.universe_counts(signature, 3) == {
        oo: 3, workloads.arrow(oo, "o"): 1, "o": 12
    }
    assert workloads.ext_expected(signature, 3, "v")["checked_types"] == [
        "o", "o -> o", "(o -> o) -> o"
    ]


def test_pools_depend_only_on_the_seed():
    for workload, make in workloads.POOLS.items():
        assert make(3) == make(3), workload
        assert [q.source for q in make(3)] != [q.source for q in make(4)], workload
