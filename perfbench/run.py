"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics (and writes the spans
to ``perfbench/out/trace-<workload>-seed<seed>.json``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and failures go to
standard error. See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):
    # Run as a script: make the checkout root importable so the
    # ``perfbench`` package resolves.
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from perfbench import env  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        env.import_repro()
    except env.CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from perfbench import machine, report

    if args.workload not in report.workload_names():
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(report.workload_names())}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload in ("train", "realign"):
        from perfbench import align as workload
    else:
        from perfbench import serve as workload

    os.makedirs(env.OUT, exist_ok=True)
    outcome = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        row = machine.reference_row()
        outcome.values["machine.gemm_gflops"] = row["machine.gemm_gflops"]
        outcome.values["machine.memcpy_gbps"] = row["machine.memcpy_gbps"]
        outcome.note(
            f"machine: LLC {row['llc_mb']:.0f} MiB, arrays "
            f"{row['array_mb']:.0f} MiB, {row['cpus']:.0f} CPUs, GEMM "
            f"{row['machine.gemm_gflops']:.2f} GFLOP/s (computed FLOPs), "
            f"memcpy {row['machine.memcpy_gbps']:.2f} GB/s"
        )
        path = os.path.join(
            env.OUT, f"trace-{args.workload}-seed{args.seed}.json"
        )
        from repro.observability.trace import export_chrome_trace

        export_chrome_trace(path, outcome.tracer)
        outcome.note(f"trace: {len(outcome.tracer)} spans in {path}")
        values = report.per_layer_defaults()
        values.update(outcome.values)
    else:
        values = outcome.values
    for line in outcome.notes:
        print(f"perfbench: {line}", file=sys.stderr)
    print(report.result_line(
        values, bool(args.trace), outcome.attempted, outcome.failed,
        outcome.correct,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
