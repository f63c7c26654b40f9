"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end tests run ``perfbench/run.py`` briefly for each workload
(about 90 seconds in all).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import env

env.import_repro()

from perfbench import inputs, report, serve  # noqa: E402
from perfbench.outcome import Outcome  # noqa: E402
from repro.serving import AlignmentIndex  # noqa: E402


def _run(workload: str, trace: int, seconds: float = 1.0) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(env.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_declared(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = report.declared(section)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", report.workload_names())
def test_untraced_run_prints_exactly_the_end_to_end_metrics(workload):
    result = _run(workload, trace=0)
    _assert_declared(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_traced_run_prints_exactly_the_per_layer_metrics():
    result = _run("serve-closed", trace=1)
    _assert_declared(result, "per_layer")
    metrics = result["metrics"]
    for name in ("index.top_k_ms", "engine.overhead_ms", "http.overhead_ms",
                 "artifact.load_ms", "machine.gemm_gflops"):
        assert metrics[name]["value"] > 0, name
    trace = os.path.join(env.OUT, "trace-serve-closed-seed3.json")
    with open(trace, encoding="utf-8") as handle:
        names = {event["name"] for event in json.load(handle)["traceEvents"]}
    assert {"index.top_k", "engine.query", "http.query"} <= names


def test_result_line_rejects_undeclared_or_missing_metrics():
    values = dict.fromkeys(report.declared("end_to_end"), 1.0)
    json.loads(report.result_line(values, False, 1, 0, True))
    with pytest.raises(ValueError, match="undeclared"):
        report.result_line({**values, "bogus_ms": 1.0}, False, 1, 0, True)
    values.pop("setup_s")
    with pytest.raises(ValueError, match="missing"):
        report.result_line(values, False, 1, 0, True)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _pair_digest(pair) -> str:
    truth = np.array(sorted(pair.groundtruth.items()))
    return _digest(
        pair.source.adjacency.toarray(), pair.source.features,
        pair.target.adjacency.toarray(), pair.target.features, truth,
    )


def _inputs_digest(seed: int) -> dict:
    embeddings = inputs.serving_embeddings(seed)
    due, batches = inputs.open_traffic(seed, 8.0, 5.0)
    return {
        "train": _pair_digest(inputs.train_pair(seed)),
        "pretrain": _pair_digest(inputs.pretrain_pair(seed)),
        "realign": _pair_digest(inputs.realign_pair(seed)),
        "embeddings": _digest(*embeddings.source, *embeddings.target,
                              embeddings.planted),
        "closed": _digest(inputs.closed_sources(seed)),
        "open": _digest(due, batches),
    }


def test_same_seed_gives_identical_inputs_and_another_seed_changes_them():
    first, again, other = (_inputs_digest(s) for s in (5, 5, 6))
    assert first == again
    for name in first:
        assert first[name] != other[name], name


# ----------------------------------------------------------------------
# Corrupted answers are failures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    embeddings = inputs.serving_embeddings(4)
    index = AlignmentIndex(
        embeddings.source, embeddings.target, embeddings.layer_weights
    )
    return embeddings, index


def _answer(index, source):
    """An answer as the server sends it, decoded from JSON."""
    targets, scores = index.top_k([source], serve.K)
    return json.loads(json.dumps({
        "source": source, "targets": targets[0].tolist(),
        "scores": scores[0].tolist(), "latency_ms": 1.0, "cached": False,
    }))


def _record(sources, payload, status=200):
    return serve.Record(list(sources), 0.0, 0.0, 0.01, status, payload, False)


def test_closed_check_counts_a_flipped_score_bit_as_a_failure(served):
    embeddings, index = served
    good = _answer(index, 11)
    bad = _answer(index, 12)
    bits = np.float64(bad["scores"][3]).view(np.int64) ^ 1
    bad["scores"][3] = float(np.int64(bits).view(np.float64))
    outcome = Outcome()
    oks, hits = serve.check_closed(
        outcome,
        [_record([11], good), _record([12], bad), _record([13], {}, 500)],
        index, embeddings.planted,
    )
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert oks == [True, False, False]
    assert hits == [True, False, False]
    assert not outcome.correct


def test_open_check_counts_wrong_and_lost_answers_as_failures(served):
    embeddings, index = served
    sources = list(range(20, 20 + inputs.BATCH))
    answers = [_answer(index, s) for s in sources]
    # A target swapped for another keeps the list well-formed but its
    # score is no longer the pair's exact score.
    answers[0]["targets"][0] = (answers[0]["targets"][0] + 1) % 20_000
    answers[1]["targets"] = answers[1]["targets"][::-1]
    records = [_record(sources, {"results": answers}), None]
    outcome = Outcome()
    oks, recalls = serve.check_open(outcome, records, index, embeddings)
    assert outcome.attempted == 2 * inputs.BATCH
    assert outcome.failed == 2 + inputs.BATCH
    assert oks == [[False, False] + [True] * 14, [False] * inputs.BATCH]
    assert recalls[:2] == [0.0, 0.0] and recalls[2:] == [1.0] * 14
