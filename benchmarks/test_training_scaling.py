"""Training time and memory against graph size (BENCH_training_scaling.json).

Paper §VI-C bounds GAlign at O(ed + nd²).  The Eq 7 consistency term is
evaluated in factored form (one sparse product and two n·d² GEMMs per
layer, no n×n array), so :class:`~repro.core.GAlignTrainer` should scale
linearly in n.  At n = 100k a single dense float64 n×n buffer would need
80 GB.

For each n in ``SIZES`` (BA graphs with m = 3, 32 attributes, a 5%
structure-noise copy as the target, d = 16) the benchmark records:

* the steady-state epoch time: the median interval between consecutive
  ``trainer.epoch`` events, which leaves out set-up (propagation
  matrices, augmented views) and the first epoch;
* the ``tracemalloc`` peak of one ``GAlignTrainer.train`` call (numpy
  reports its buffers to ``tracemalloc``), in a separate run so tracing
  does not slow the timed one.

Gate: peak bytes per node at n = 100k are at most 1.5× those at n = 10k.
"""

import time
import tracemalloc

import numpy as np

from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import MetricsRegistry, write_bench_json

from conftest import BASE_SEED, print_section

SIZES = (1_000, 10_000, 100_000)
ATTACHMENT = 3
FEATURES = 32
DIM = 16
EPOCHS = 4
MAX_PEAK_GROWTH = 1.5


def make_pair(nodes: int):
    rng = np.random.default_rng(BASE_SEED)
    graph = generators.barabasi_albert(
        nodes, ATTACHMENT, rng, feature_dim=FEATURES
    )
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


def make_trainer(registry=None) -> GAlignTrainer:
    config = GAlignConfig(embedding_dim=DIM, epochs=EPOCHS, seed=0)
    return GAlignTrainer(config, np.random.default_rng(0), registry=registry)


def steady_epoch_s(pair) -> float:
    stamps = []

    def on_event(event, _payload):
        if event == "trainer.epoch":
            stamps.append(time.perf_counter())

    registry = MetricsRegistry()
    registry.add_hook(on_event)
    make_trainer(registry).train(pair)
    return float(np.median(np.diff(stamps)))


def peak_train_bytes(pair) -> int:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        make_trainer(MetricsRegistry()).train(pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_training_scales_linearly():
    rows = []
    registry = MetricsRegistry()
    for nodes in SIZES:
        pair = make_pair(nodes)
        epoch_s = steady_epoch_s(pair)
        peak = peak_train_bytes(pair)
        rows.append({
            "nodes": nodes,
            "edges": pair.source.num_edges,
            "epoch_ms": epoch_s * 1e3,
            "peak_mb": peak / 2**20,
            "peak_bytes_per_node": peak / nodes,
        })
        registry.observe(f"scaling.n{nodes}.epoch_ms", epoch_s * 1e3)
        registry.observe(f"scaling.n{nodes}.peak_mb", peak / 2**20)
        del pair

    by_nodes = {row["nodes"]: row for row in rows}
    growth = (
        by_nodes[100_000]["peak_bytes_per_node"]
        / by_nodes[10_000]["peak_bytes_per_node"]
    )
    write_bench_json("BENCH_training_scaling.json", registry, run={
        "command": "training_scaling",
        "attachment": ATTACHMENT,
        "features": FEATURES,
        "embedding_dim": DIM,
        "epochs": EPOCHS,
        "rows": rows,
        "peak_per_node_growth_10k_to_100k": growth,
        "max_peak_per_node_growth": MAX_PEAK_GROWTH,
    })

    print_section("GAlign training vs graph size (exact Eq 7, §VI-C)")
    print(f"{'n':>8} {'edges':>8} {'epoch(ms)':>10} {'peak(MB)':>9} "
          f"{'KB/node':>8}")
    for row in rows:
        print(f"{row['nodes']:>8} {row['edges']:>8} {row['epoch_ms']:>10.1f} "
              f"{row['peak_mb']:>9.1f} "
              f"{row['peak_bytes_per_node'] / 1024:>8.2f}")
    print(f"peak bytes/node growth 10k -> 100k: {growth:.2f}x "
          f"(ceiling {MAX_PEAK_GROWTH}x)")

    assert growth <= MAX_PEAK_GROWTH, (
        f"peak training memory per node grew {growth:.2f}x from n=10k to "
        f"n=100k (ceiling {MAX_PEAK_GROWTH}x): training is not O(n)"
    )
