"""The ``serve-closed`` and ``serve-open`` workloads over ``repro serve``.

The server runs in its own process (``python -m repro.cli serve`` with
its default engine settings) on an artifact of 20k source and 20k
target nodes, 3 layers of 64 dimensions, with clustered unit-row
embeddings and a planted permutation. Load comes from this process over
at most two keep-alive connections.

* ``serve-closed``: one caller, ``GET /query?k=10&mode=exact`` for
  sources that never repeat. Every answer must be bitwise equal to an
  in-process :meth:`AlignmentIndex.top_k` on the same artifact.
* ``serve-open``: batches of 16 ``mode=ann`` queries posted on a seeded
  Poisson schedule by two workers (the main thread and one more), each
  timed from its due time. Every answer is checked against the exact
  answer (well-formed, scores exact) and scored for recall@10.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.observability import MetricsRegistry, Tracer
from repro.serving import (
    AlignmentIndex,
    AnnIndex,
    QueryEngine,
    export_artifact,
    load_artifact,
)

from . import env, inputs
from .layers import Probe, durations, spanned
from .outcome import SETUP_REPEATS, Outcome, percentile

K = 10
#: serve-open: IVF clusters exported into the artifact.
ANN_CLUSTERS = 128
#: serve-open: batches per second offered (16 queries each).
RATE_PER_S = 8.0
#: The engine's default ``slow_query_ms``; an answer later than this, or
#: a failed one, misses the SLO.
SLO_S = 0.250
#: Floors for the run-level quality checks.
SUCCESS_FLOOR = 0.80
RECALL_FLOOR = 0.90
#: Tolerance on an ANN score versus the exact score of the same pair.
SCORE_TOLERANCE = 1e-9
#: Untimed queries before the window (closed) / batches (open).
WARMUP = 20
_UNTRACED = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Server process and HTTP client
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process on a free port."""

    _URL = re.compile(r"serving  : http://127\.0\.0\.1:(\d+)")

    def __init__(self, artifact: str, log_path: str) -> None:
        self._log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--artifact", artifact, "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                cwd=env.ROOT, env=env.child_env(),
            )
        self.port = self._wait_for_port(deadline=time.monotonic() + 120)

    def _log(self) -> str:
        with open(self._log_path, encoding="utf-8", errors="replace") as log:
            return log.read()

    def _wait_for_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            match = self._URL.search(self._log())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n{self._log()}")

    def stop(self) -> None:
        """SIGINT (graceful shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest finished child: the loaded server."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )

    def request(self, method: str, path: str, body: Any = None):
        """Returns ``(status, decoded JSON)``; status is None on a
        transport or decoding error."""
        try:
            if body is None:
                self._connection.request(method, path)
            else:
                self._connection.request(
                    method, path, body=json.dumps(body),
                    headers={"Content-Type": "application/json"},
                )
            response = self._connection.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as error:
            self._connection.close()
            return None, {"error": repr(error)}

    def close(self) -> None:
        self._connection.close()


@dataclass
class Record:
    """One HTTP request: when it was due, sent and answered."""

    sources: Sequence[int]
    due: float
    sent: float
    done: float
    status: Optional[int]
    payload: Dict[str, Any]
    traced: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def answers(self) -> List[Dict[str, Any]]:
        if self.status != 200:
            return []
        return self.payload.get("results", [self.payload])

    def server_latency(self) -> float:
        return max(answer["latency_ms"] for answer in self.answers) / 1e3


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    embeddings: inputs.ServingEmbeddings
    artifact: str
    server: Server
    export_s: float


def prepare(workload: str, seed: int, workdir: str) -> Prepared:
    embeddings = inputs.serving_embeddings(seed)
    artifact = os.path.join(workdir, "artifact")
    started = time.perf_counter()
    export_artifact(
        artifact, embeddings.source, embeddings.target,
        embeddings.layer_weights, pair_name=f"serving-seed{seed}",
        ann_clusters=ANN_CLUSTERS if workload == "serve-open" else None,
        ann_seed=seed,
    )
    export_s = time.perf_counter() - started
    server = Server(artifact, os.path.join(workdir, "serve.log"))
    return Prepared(embeddings, artifact, server, export_s)


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
def closed_loop(port: int, sources, seconds: float,
                tracer: Tracer) -> List[Record]:
    """One caller; the next query goes out when the last one returns.
    With ``tracer`` enabled every other request runs inside a span."""
    client = Client(port)
    records: List[Record] = []
    started = time.perf_counter()
    try:
        for position, source in enumerate(sources):
            if time.perf_counter() - started >= seconds:
                break
            traced = tracer.enabled and position % 2 == 1
            spans = tracer if traced else _UNTRACED
            sent = time.perf_counter()
            with spans.span("http.query"):
                status, payload = client.request(
                    "GET", f"/query?source={int(source)}&k={K}&mode=exact"
                )
            records.append(Record(
                [int(source)], sent, sent, time.perf_counter(), status,
                payload, traced,
            ))
    finally:
        client.close()
    return records


def open_loop(port: int, due: np.ndarray, batches: np.ndarray,
              tracer: Tracer) -> List[Optional[Record]]:
    """Two workers take batches in due order; each sleeps until its
    batch is due, so a slow answer delays the batches queued behind it:
    latency runs from the due time.

    Each batch comes from an independent user and so goes out on a
    connection of its own; at most two are open at once. (Reusing a
    keep-alive connection within ~40 ms of its last answer stalls on
    delayed ACKs; ``serve-closed`` measures that path.)"""
    records: List[Optional[Record]] = [None] * len(due)
    cursor = iter(range(len(due)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            due_at = start + float(due[position])
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sources = [int(s) for s in batches[position]]
            body = {
                "queries": [{"source": s, "k": K} for s in sources],
                "mode": "ann",
            }
            traced = tracer.enabled and position % 2 == 1
            spans = tracer if traced else _UNTRACED
            sent = time.perf_counter()
            with spans.span("http.query_batch"):
                client = Client(port)
                try:
                    status, payload = client.request("POST", "/query", body)
                finally:
                    client.close()
            records[position] = Record(
                sources, due_at, sent, time.perf_counter(), status,
                payload, traced,
            )

    helper = threading.Thread(target=worker, name="perfbench-loadgen")
    helper.start()
    try:
        worker()
    finally:
        helper.join()
    return records


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _bits(values) -> List[str]:
    return [float(value).hex() for value in values]


def check_closed(outcome: Outcome, records: List[Record],
                 index: AlignmentIndex, planted: np.ndarray):
    """Each answer must equal the in-process exact answer bit for bit.

    Returns ``(oks, hits)``: per record, whether the answer was right,
    and whether its top-1 is the planted target."""
    oks, hits = [], []
    for record in records:
        source = record.sources[0]
        answers = record.answers
        expected_targets, expected_scores = index.top_k([source], K)
        ok = bool(answers) and (
            answers[0]["source"] == source
            and answers[0]["targets"] == expected_targets[0].tolist()
            and _bits(answers[0]["scores"]) == _bits(expected_scores[0])
        )
        outcome.check(ok, f"source {source}: HTTP status {record.status}, "
                          f"answer {record.payload} differs from the "
                          "in-process exact top-k")
        oks.append(ok)
        hits.append(ok and answers[0]["targets"][0] == int(planted[source]))
    return oks, hits


def pair_scores(embeddings: inputs.ServingEmbeddings, sources, targets):
    """Σ_l θ_l ⟨h_s(l), h_t(l)⟩ for aligned (source, target) arrays."""
    return sum(
        weight * np.einsum("ij,ij->i", s_layer[sources], t_layer[targets])
        for weight, s_layer, t_layer in zip(
            embeddings.layer_weights, embeddings.source, embeddings.target
        )
    )


def check_open(outcome: Outcome, records: List[Optional[Record]],
               index: AlignmentIndex,
               embeddings: inputs.ServingEmbeddings):
    """Check every ANN answer.

    Returns ``(oks, recalls)``: per record, whether each of its queries
    was answered right; and recall@10 per query (0 for a wrong answer).

    An answer is wrong when it is missing, names the wrong source, holds
    duplicate or out-of-range targets or more than k of them, is not in
    descending score order, or carries a score that is not the exact
    score of its (source, target) pair.
    """
    answered = [
        (answer, source)
        for record in records if record is not None
        for source, answer in zip(record.sources, record.answers)
    ]
    unique = np.unique([source for _, source in answered]).astype(np.int64)
    exact: Dict[int, set] = {}
    for start in range(0, len(unique), 256):
        chunk = unique[start:start + 256]
        targets, _ = index.top_k(chunk, K)
        exact.update(
            (int(s), set(row.tolist())) for s, row in zip(chunk, targets)
        )
    oks: List[List[bool]] = []
    recalls: List[float] = []
    for record in records:
        sources = [] if record is None else record.sources
        answers = [] if record is None else record.answers
        if record is None or len(answers) != len(sources):
            for _ in range(inputs.BATCH):
                outcome.check(False, f"batch lost: {record and record.payload}")
            oks.append([False] * inputs.BATCH)
            continue
        oks.append([])
        for source, answer in zip(sources, answers):
            targets = answer["targets"]
            scores = np.asarray(answer["scores"], dtype=np.float64)
            well_formed = (
                answer["source"] == source
                and 0 < len(targets) <= K
                and len(scores) == len(targets)
                and len(set(targets)) == len(targets)
                and all(0 <= t < inputs.SERVE_NODES for t in targets)
                and bool(np.all(np.diff(scores) <= 0))
            )
            ok = well_formed and bool(np.all(np.abs(
                scores - pair_scores(
                    embeddings, np.full(len(targets), source), targets
                )
            ) <= SCORE_TOLERANCE))
            oks[-1].append(outcome.check(
                ok, f"source {source}: bad ANN answer {answer}"
            ))
            recalls.append(
                len(exact[source] & set(targets)) / K if ok else 0.0
            )
    return oks, recalls


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workdir = os.path.join(env.OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    prepared = None
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            if prepared is not None:
                prepared.server.stop()
            started = time.perf_counter()
            prepared = prepare(workload, seed, workdir)
            setups.append(time.perf_counter() - started)
        tracer = Tracer(enabled=trace)
        if workload == "serve-closed":
            return _closed(prepared, seed, seconds, tracer, setups)
        return _open(prepared, seed, seconds, tracer, setups)
    finally:
        if prepared is not None:
            prepared.server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _closed(prepared: Prepared, seed: int, seconds: float, tracer: Tracer,
            setups: List[float]) -> Outcome:
    sources = inputs.closed_sources(seed)
    closed_loop(prepared.server.port, sources[-WARMUP:], 1e9, _UNTRACED)
    records = closed_loop(
        prepared.server.port, sources[:-WARMUP], seconds, tracer
    )
    prepared.server.stop()

    outcome = Outcome()
    artifact, load_s = _load(prepared, tracer)
    index = AlignmentIndex.from_artifact(artifact)
    oks, hits = check_closed(
        outcome, records, index, prepared.embeddings.planted
    )
    success = float(np.mean(hits))
    outcome.require(success >= SUCCESS_FLOOR,
                    f"serve-closed success@1 {success:.4f} under the floor "
                    f"{SUCCESS_FLOOR}")
    latencies = [record.latency for record in records]
    if not tracer.enabled:
        outcome.values = {
            "setup_s": float(np.median(setups)),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "throughput_per_s": sum(oks) / (records[-1].done - records[0].sent),
            "quality": success,
            "peak_rss_mb": children_peak_rss_mb(),
            "slo_attainment": _slo(records, [[ok] for ok in oks]),
        }
        outcome.note(
            f"serve-closed: {len(records)} queries, p90 "
            f"{percentile(latencies, 90) * 1e3:.2f} ms"
        )
        return outcome

    outcome.values = {
        "artifact.export_ms": prepared.export_s * 1e3,
        "artifact.load_ms": load_s * 1e3,
        "http.overhead_ms": _http_overhead_ms(records),
        "trace.overhead_frac": _trace_overhead(records),
    }
    outcome.values.update(_closed_layers(artifact, records, tracer))
    outcome.tracer = tracer
    return outcome


def _load(prepared: Prepared, tracer: Tracer):
    """Load the served artifact in-process; returns it and the seconds
    :func:`load_artifact` took (a span too when tracing)."""
    started = time.perf_counter()
    with tracer.span("artifact.load"):
        artifact = load_artifact(prepared.artifact)
    return artifact, time.perf_counter() - started


def _slo(records, oks) -> float:
    """Share of queries answered correctly within the SLO; ``oks`` holds
    the check result of each query, grouped per record."""
    met = total = 0
    for record, record_oks in zip(records, oks):
        for ok in record_oks:
            total += 1
            met += ok and record.latency <= SLO_S
    return met / total


def _http_overhead_ms(records) -> float:
    """Median of client-seen time minus the server-reported latency."""
    return percentile([
        (record.done - record.sent) - record.server_latency()
        for record in records if record is not None and record.answers
    ], 50) * 1e3


def _trace_overhead(records) -> float:
    traced = [r.latency for r in records if r is not None and r.traced]
    plain = [r.latency for r in records if r is not None and not r.traced]
    return percentile(traced, 50) / percentile(plain, 50) - 1.0


def _closed_layers(artifact, records: List[Record],
                   tracer: Tracer) -> Dict[str, float]:
    """In-process replay of the traced queries against the index alone
    and through a fresh QueryEngine (default settings, like the server).
    """
    registry = MetricsRegistry()
    index = AlignmentIndex.from_artifact(artifact, registry=registry)
    sources = [record.sources[0] for record in records if record.traced]
    with Probe() as probe:
        probe.patch(AlignmentIndex, "top_k", spanned(tracer, "index.top_k"))
        for source in sources:
            index.top_k([source], K)
        scored = registry.snapshot()["serving.index.blocks_scored"]["value"]
        engine = QueryEngine(index, fingerprint=artifact.fingerprint)
        with engine:
            for source in sources:
                with tracer.span("engine.query"):
                    engine.query(source, K, mode="exact")
    spans = tracer.spans()
    main = threading.get_ident()
    direct = durations(spans, "index.top_k", thread_id=main)
    inside = [
        span.duration for span in sorted(spans, key=lambda s: s.start)
        if span.name == "index.top_k" and span.thread_id != main
    ]
    engine_s = durations(spans, "engine.query")
    dims = sum(layer.shape[1] for layer in artifact.target_embeddings)
    frac = scored / (len(sources) * index.num_blocks)
    # Computed from shapes: a padded 2-row GEMM over every scored target.
    flops = 2 * 2 * dims * index.n_target * frac * len(sources)
    return {
        "index.top_k_ms": percentile(direct, 50) * 1e3,
        "index.gflops": flops / sum(direct) / 1e9,
        "index.blocks_scored_frac": frac,
        "engine.overhead_ms": percentile(
            [e - i for e, i in zip(engine_s, inside)], 50) * 1e3,
    }


def _open(prepared: Prepared, seed: int, seconds: float, tracer: Tracer,
          setups: List[float]) -> Outcome:
    cold = inputs.zipf_ranks(seed)[-WARMUP * inputs.BATCH:]
    open_loop(prepared.server.port, np.zeros(WARMUP),
              cold.reshape(WARMUP, inputs.BATCH), _UNTRACED)
    due, batches = inputs.open_traffic(seed, RATE_PER_S, seconds)
    records = open_loop(prepared.server.port, due, batches, tracer)
    client = Client(prepared.server.port)
    _, server_metrics = client.request("GET", "/metrics")
    client.close()
    prepared.server.stop()

    outcome = Outcome()
    artifact, load_s = _load(prepared, tracer)
    index = AlignmentIndex.from_artifact(artifact)
    oks, recalls = check_open(outcome, records, index, prepared.embeddings)
    recall = float(np.mean(recalls)) if recalls else 0.0
    outcome.require(recall >= RECALL_FLOOR,
                    f"serve-open recall@10 {recall:.4f} under the floor "
                    f"{RECALL_FLOOR}")
    answered = [r for r in records if r is not None and r.answers]
    if not tracer.enabled:
        latencies = [r.latency if r else float("inf") for r in records]
        outcome.values = {
            "setup_s": float(np.median(setups)),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "throughput_per_s": sum(map(sum, oks))
            / (max(r.done for r in answered) - min(r.due for r in answered)),
            "quality": recall,
            "peak_rss_mb": children_peak_rss_mb(),
            "slo_attainment": _slo(records, oks),
        }
        outcome.note(
            f"serve-open: {len(records)} batches, p90 "
            f"{percentile(latencies, 90) * 1e3:.2f} ms"
        )
        return outcome

    counters = server_metrics.get("metrics", {})

    def counter(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0))

    admitted = counter("serving.frontdoor.admitted")
    rejected = counter("serving.frontdoor.rejected")
    cached = [
        answer["cached"] for r in answered if r.traced for answer in r.answers
    ]
    outcome.values = {
        "artifact.export_ms": prepared.export_s * 1e3,
        "artifact.load_ms": load_s * 1e3,
        "http.overhead_ms": _http_overhead_ms(records),
        "trace.overhead_frac": _trace_overhead(records),
        "frontdoor.rejected_frac": rejected / max(1.0, admitted + rejected),
        "engine.cache_hit_ratio": float(np.mean(cached)),
        "loadgen.lag_p99_ms": percentile(
            [r.sent - r.due for r in records if r is not None], 99) * 1e3,
    }
    outcome.values.update(_open_layers(artifact, records, tracer))
    outcome.tracer = tracer
    return outcome


def _open_layers(artifact, records, tracer: Tracer) -> Dict[str, float]:
    """In-process replay of the traced batches: the ANN index alone, then
    a fresh QueryEngine's ``query_many`` (cache included)."""
    registry = MetricsRegistry()
    ann = AnnIndex.from_artifact(artifact, registry=registry)
    batches = [r.sources for r in records if r is not None and r.traced]
    for batch in batches:
        with tracer.span("ann.top_k"):
            ann.top_k(batch, K, mode="ann")
    stats = registry.snapshot()
    engine = QueryEngine(
        AnnIndex.from_artifact(artifact), fingerprint=artifact.fingerprint
    )
    with engine:
        for batch in batches:
            with tracer.span("engine.query_many"):
                engine.query_many([(s, K) for s in batch], mode="ann")
    spans = tracer.spans()
    return {
        "ann.top_k_ms": percentile(durations(spans, "ann.top_k"), 50) * 1e3,
        "ann.candidates_per_query":
            stats["serving.ann.candidates_rescored"]["value"]
            / stats["serving.ann.queries"]["value"],
        "engine.query_many_ms":
            percentile(durations(spans, "engine.query_many"), 50) * 1e3,
    }
