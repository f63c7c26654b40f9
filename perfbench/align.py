"""The ``train`` and ``realign`` workloads: timed ``GAlign.align``.

``train`` runs the full unsupervised pipeline (Alg 1 training, then
Alg 2 refinement) on a 1000-node pair. ``realign`` trains a model once
during set-up on a 500-node pair and then aligns a 3000-node pair with
it (``GAlign(pretrained_model=...)``), so only refinement and the
alignment matrices run in the timed region.
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import GAlign, GAlignConfig
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor
from repro.core import refine as refine_module
from repro.core import trainer as trainer_module
from repro.core.model import MultiOrderGCN
from repro.core.refine import AlignmentRefiner
from repro.core.trainer import GAlignTrainer
from repro.graphs import AlignmentPair
from repro.metrics import success_at
from repro.observability import OpProfiler, Tracer

from . import inputs
from .layers import Probe, flops_of, peak_traced, spanned, totals
from .outcome import SETUP_REPEATS, Outcome, percentile

#: Model width; every other hyper-parameter is the paper default
#: (60 epochs, 20 refinement iterations, 2 GCN layers).
EMBEDDING_DIM = 64
#: Success@1 floors; an align under its floor counts as a failed answer.
#: Seeds 1-12 gave 0.619-0.700 (train) and 0.543-0.617 (realign).
SUCCESS_FLOOR = {"train": 0.56, "realign": 0.45}
#: Per-align latency limit for ``slo_attainment``: twice the sized time.
LIMIT_S = {"train": 20.0, "realign": 12.0}
#: The autograd ops reported one by one.
OPS = ("matmul", "spmm", "mul", "sub", "sum", "tanh")


@dataclass
class Prepared:
    pair: AlignmentPair
    pretrained: Optional[MultiOrderGCN]


def _config(seed: int, **overrides) -> GAlignConfig:
    return GAlignConfig(embedding_dim=EMBEDDING_DIM, seed=seed, **overrides)


def prepare(workload: str, seed: int) -> Prepared:
    if workload == "train":
        return Prepared(inputs.train_pair(seed), None)
    small = inputs.pretrain_pair(seed)
    model, _ = GAlignTrainer(
        _config(seed), np.random.default_rng(seed)
    ).train(small)
    return Prepared(inputs.realign_pair(seed), model)


def _galign(prepared: Prepared, config: GAlignConfig) -> GAlign:
    return GAlign(config, pretrained_model=prepared.pretrained)


def warm_up(prepared: Prepared, seed: int) -> None:
    """One cheap align of the same pair (1 epoch, 1 refinement step):
    imports, BLAS threads and the allocator's large-block threshold are
    settled before anything is timed."""
    _galign(
        prepared, _config(seed, epochs=1, refinement_iterations=1)
    ).align(prepared.pair)


def _align(prepared: Prepared, seed: int):
    galign = _galign(prepared, _config(seed))
    started = time.perf_counter()
    result = galign.align(prepared.pair)
    elapsed = time.perf_counter() - started
    return galign, result, elapsed


def _check(outcome: Outcome, workload: str, prepared: Prepared,
           result) -> tuple:
    """Success@1 of one align against the ground truth and its floor."""
    success = success_at(result.scores, prepared.pair.groundtruth, 1)
    ok = outcome.check(
        success >= SUCCESS_FLOOR[workload],
        f"{workload}: success@1 {success:.4f} under the floor "
        f"{SUCCESS_FLOOR[workload]}",
    )
    return success, ok


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    setups: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        prepared = prepare(workload, seed)
        setups.append(time.perf_counter() - started)
    warm_up(prepared, seed)
    if trace:
        return _traced(workload, prepared, seed)

    outcome = Outcome()
    samples: List[float] = []
    successes: List[float] = []
    within = 0
    window = time.perf_counter()
    # At least two aligns, then more while one more would end (by the
    # median so far) no later than half an align past the window.
    while len(samples) < 2 or (
        time.perf_counter() - window + np.median(samples) / 2 < seconds
    ):
        _, result, elapsed = _align(prepared, seed)
        success, ok = _check(outcome, workload, prepared, result)
        samples.append(elapsed)
        successes.append(success)
        within += ok and elapsed <= LIMIT_S[workload]
    nodes = prepared.pair.source.num_nodes
    outcome.values = {
        "setup_s": float(np.median(setups)),
        "latency_p50_ms": percentile(samples, 50) * 1e3,
        "throughput_per_s": nodes * len(samples) / sum(samples),
        "quality": float(np.mean(successes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "slo_attainment": within / len(samples),
    }
    outcome.note(
        f"{workload}: {len(samples)} aligns, times "
        + ", ".join(f"{s:.3f}s" for s in samples)
    )
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _score_flops(args, kwargs) -> int:
    """Eq 11: one (n_s x d) @ (d x n_t) GEMM per layer."""
    source, target = args[0], args[1]
    return sum(
        2 * s.shape[0] * s.shape[1] * t.shape[0]
        for s, t in zip(source, target)
    )


def _aggregate_flops(args, kwargs) -> int:
    """Eq 12: a scale and an add per entry per layer."""
    matrices = args[0]
    return 2 * len(matrices) * int(matrices[0].size)


def _install_spans(probe: Probe, tracer: Tracer, profiler: OpProfiler):
    def train_with_profiler(original):
        def wrapper(*args, **kwargs):
            with tracer.span("trainer.train"), profiler:
                return original(*args, **kwargs)

        return wrapper

    probe.patch(GAlign, "align", spanned(tracer, "galign.align"))
    probe.patch(GAlignTrainer, "train", train_with_profiler)
    probe.patch(MultiOrderGCN, "forward", spanned(tracer, "model.forward"))
    probe.patch(MultiOrderGCN, "embed", spanned(tracer, "model.embed"))
    probe.patch(trainer_module, "consistency_loss",
                spanned(tracer, "losses.consistency"))
    probe.patch(trainer_module, "adaptivity_loss",
                spanned(tracer, "losses.adaptivity"))
    probe.patch(Tensor, "backward", spanned(tracer, "autograd.backward"))
    probe.patch(Adam, "step", spanned(tracer, "optim.step"))
    probe.patch(AlignmentRefiner, "refine", spanned(tracer, "refine.refine"))
    probe.patch(refine_module, "weighted_propagation_matrix",
                spanned(tracer, "refine.propagation"))
    probe.patch(refine_module, "layerwise_alignment_matrices",
                spanned(tracer, "alignment.layerwise", _score_flops))
    probe.patch(refine_module, "aggregate_alignment",
                spanned(tracer, "alignment.aggregate", _aggregate_flops))
    probe.patch(refine_module, "alignment_quality",
                spanned(tracer, "refine.quality"))
    probe.patch(refine_module, "find_stable_nodes",
                spanned(tracer, "refine.find_stable_nodes"))


def _traced(workload: str, prepared: Prepared, seed: int) -> Outcome:
    outcome = Outcome()
    _, result, untraced_s = _align(prepared, seed)
    _check(outcome, workload, prepared, result)

    tracer = Tracer()
    profiler = OpProfiler(tracer=tracer)
    with Probe() as probe:
        _install_spans(probe, tracer, profiler)
        galign, result, traced_s = _align(prepared, seed)
    _check(outcome, workload, prepared, result)

    peaks: Dict[str, float] = {}
    tracemalloc.start()
    try:
        with Probe() as probe:
            probe.patch(GAlignTrainer, "train", peak_traced(peaks, "train"))
            probe.patch(AlignmentRefiner, "refine",
                        peak_traced(peaks, "refine"))
            _align(prepared, seed)
    finally:
        tracemalloc.stop()

    spans = tracer.spans()
    epochs = len(galign.training_log.total) if galign.training_log else 0
    iterations = len(galign.refinement_log.quality)
    own = totals(spans)
    inclusive = totals(spans, use_self=False)
    by_id = {span.span_id: span for span in spans}

    def per_epoch(seconds: float) -> float:
        return seconds * 1e3 / epochs if epochs else 0.0

    def per_iteration(seconds: float) -> float:
        return seconds * 1e3 / iterations

    training_forward = sum(
        span.duration for span in spans
        if span.name == "model.forward"
        and by_id.get(span.parent_id) is not None
        and by_id[span.parent_id].name == "trainer.train"
    )
    values = {
        "trainer.epoch_ms": per_epoch(inclusive["trainer.train"]),
        "model.forward_ms": per_epoch(training_forward),
        "losses.consistency_ms": per_epoch(own["losses.consistency"]),
        "losses.adaptivity_ms": per_epoch(own["losses.adaptivity"]),
        "autograd.backward_ms": per_epoch(own["autograd.backward"]),
        "optim.step_ms": per_epoch(own["optim.step"]),
        "trainer.peak_alloc_mb": peaks.get("train", 0.0),
        "refine.iteration_ms": per_iteration(inclusive["refine.refine"]),
        "refine.embed_ms": per_iteration(
            inclusive["model.embed"] + inclusive["refine.propagation"]),
        "alignment.score_ms": per_iteration(
            own["alignment.layerwise"] + own["alignment.aggregate"]),
        "refine.stable_nodes_ms": per_iteration(
            own["refine.find_stable_nodes"]),
        "refine.quality_ms": per_iteration(own["refine.quality"]),
        "refine.iterations": float(iterations),
        "refine.peak_alloc_mb": peaks["refine"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    flops, seconds = flops_of(
        spans, ("alignment.layerwise", "alignment.aggregate")
    )
    values["alignment.score_gflops"] = flops / seconds / 1e9
    values.update(_op_metrics(profiler, spans, prepared.pair, epochs))
    outcome.tracer = tracer
    outcome.values = values
    outcome.note(
        f"{workload}: untraced align {untraced_s:.3f}s, traced "
        f"{traced_s:.3f}s, {epochs} epochs, {iterations} refinement "
        "iterations"
    )
    return outcome


def _op_metrics(profiler: OpProfiler, spans, pair: AlignmentPair,
                epochs: int) -> Dict[str, float]:
    """Per-op time per epoch and GFLOP/s (the profiler's own FLOP
    estimates), op calls per epoch, and the share of op time spent in
    ops whose output is n x n."""
    values: Dict[str, float] = {}
    stats = profiler.stats()
    for op in OPS:
        rows = [stat for stat in stats if stat.op == op]
        total = sum(stat.total_time for stat in rows)
        values[f"autograd.op.{op}.ms"] = (
            sum(stat.self_time for stat in rows) * 1e3 / epochs
            if epochs else 0.0
        )
        values[f"autograd.op.{op}.gflops"] = (
            sum(stat.flops for stat in rows) / total / 1e9 if total else 0.0
        )
    forward_calls = sum(
        stat.calls for stat in stats if stat.direction == "forward"
    )
    values["autograd.ops_per_epoch"] = (
        forward_calls / epochs if epochs else 0.0
    )
    sizes = {pair.source.num_nodes, pair.target.num_nodes}
    op_time = nxn_time = 0.0
    for span in spans:
        if not span.name.startswith("op."):
            continue
        op_time += span.duration
        shape = span.attrs.get("shape") or []
        if len(shape) == 2 and shape[0] == shape[1] and shape[0] in sizes:
            nxn_time += span.duration
    values["autograd.nxn_op_share"] = nxn_time / op_time if op_time else 0.0
    return values
