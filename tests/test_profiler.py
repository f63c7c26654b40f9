"""Tests for the per-op autograd profiler: observer scoping and nesting,
FLOP accounting, backward attribution, and the trace/trainer integration."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro.autograd
from repro.autograd import Tensor
from repro.autograd import ops as ops_module
from repro.core import GAlignConfig, GAlignTrainer
from repro.graphs import generators, noisy_copy_pair
from repro.observability import (
    MetricsRegistry,
    OpProfiler,
    Tracer,
    format_op_table,
    use_registry,
    use_tracer,
)


def _by_key(profiler):
    return {(stat.op, stat.direction): stat for stat in profiler.stats()}


class TestPatching:
    """Profiling rewrites nothing: it observes the primitive registry."""

    def test_class_dict_unchanged_inside_context(self):
        before = dict(Tensor.__dict__)
        with OpProfiler().enabled():
            inside = dict(Tensor.__dict__)
        assert inside.keys() == before.keys()
        for attr, value in before.items():
            assert inside[attr] is value
            assert Tensor.__dict__[attr] is value

    def test_module_functions_unchanged_inside_context(self):
        original = ops_module.spmm
        assert repro.autograd.spmm is original  # re-exported reference
        with OpProfiler().enabled():
            assert ops_module.spmm is original
            assert repro.autograd.spmm is original
        assert ops_module.spmm is original

    def test_nested_profilers_both_record(self):
        outer, inner = OpProfiler(), OpProfiler()
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        with outer.enabled():
            a @ a
            with inner.enabled():
                (a @ a).sum().backward()
        outer_stats, inner_stats = _by_key(outer), _by_key(inner)
        assert outer_stats[("matmul", "forward")].calls == 2
        assert inner_stats[("matmul", "forward")].calls == 1
        for key in (("matmul", "backward"), ("sum", "forward"),
                    ("sum", "backward")):
            assert outer_stats[key].calls == inner_stats[key].calls == 1
            assert outer_stats[key].flops == inner_stats[key].flops
        # the same profiler cannot be entered twice in one context
        with outer.enabled():
            with pytest.raises(RuntimeError, match="already observing"):
                outer.__enter__()

    def test_disabled_profiler_records_nothing(self):
        profiler = OpProfiler()
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a @ a).sum().backward()
        assert profiler.stats() == []


class TestRecording:
    def test_matmul_flops_are_exact(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((4, 5)))
            b = Tensor(np.random.default_rng(1).random((5, 6)))
            a @ b
        stat = _by_key(profiler)[("matmul", "forward")]
        assert stat.calls == 1
        assert stat.flops == 2 * 4 * 5 * 6

    def test_spmm_flops_use_nnz(self):
        sparse = sp.random(6, 4, density=0.5, format="csr",
                           random_state=np.random.default_rng(0))
        dense = Tensor(np.random.default_rng(1).random((4, 3)))
        profiler = OpProfiler()
        with profiler.enabled():
            repro.autograd.spmm(sparse, dense)
        stat = _by_key(profiler)[("spmm", "forward")]
        assert stat.flops == 2 * sparse.nnz * 3

    def test_backward_attributed_to_creating_op(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((4, 5)),
                       requires_grad=True)
            b = Tensor(np.random.default_rng(1).random((5, 6)),
                       requires_grad=True)
            loss = (a @ b).tanh().sum()
            loss.backward()
        stats = _by_key(profiler)
        forward = stats[("matmul", "forward")]
        backward = stats[("matmul", "backward")]
        assert backward.calls == forward.calls == 1
        # matmul's reverse pass is two matmuls -> 2x forward FLOPs
        assert backward.flops == 2 * forward.flops
        assert ("tanh", "backward") in stats
        assert ("sum", "backward") in stats

    def test_backward_after_exit_is_not_recorded(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((3, 3)), requires_grad=True)
            loss = (a * 2.0).sum()
        calls_inside = _by_key(profiler)[("mul", "forward")].calls
        loss.backward()  # after the context: gradients flow, no records
        assert ("mul", "backward") not in _by_key(profiler)
        assert _by_key(profiler)[("mul", "forward")].calls == calls_inside
        assert a.grad is not None

    def test_data_movement_ops_cost_zero_flops(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((4, 6)))
            a.transpose()
            a.reshape((6, 4))
            a[:2]
        stats = _by_key(profiler)
        for op in ("transpose", "reshape", "getitem"):
            assert stats[(op, "forward")].flops == 0

    def test_total_time_and_reset(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.ones((8, 8)), requires_grad=True)
            (a @ a).sum().backward()
        assert profiler.total_time() > 0.0
        assert profiler.total_time("forward") > 0.0
        assert profiler.total_time("backward") > 0.0
        assert profiler.total_flops() > 0
        profiler.reset()
        assert profiler.stats() == [] and profiler.total_time() == 0.0


class TestTraceIntegration:
    def test_ops_land_in_trace_under_open_span(self):
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer)
        with profiler.enabled():
            with tracer.span("work"):
                a = Tensor(np.ones((3, 3)), requires_grad=True)
                (a @ a).sum().backward()
        spans = {span.name: span for span in tracer.spans()}
        work = spans["work"]
        assert spans["op.matmul"].parent_id == work.span_id
        assert spans["op.matmul.backward"].parent_id == work.span_id
        assert spans["op.matmul"].attrs["flops"] == 2 * 3 * 3 * 3

    def test_trace_ops_false_keeps_trace_clean(self):
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer, trace_ops=False)
        with profiler.enabled():
            a = Tensor(np.ones((3, 3)))
            a @ a
        assert len(tracer) == 0
        assert ("matmul", "forward") in _by_key(profiler)


class TestTrainerIntegration:
    def test_training_is_profiled_and_traced(self):
        rng = np.random.default_rng(5)
        graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                           feature_kind="degree")
        pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
        config = GAlignConfig(epochs=3, embedding_dim=8,
                              num_augmentations=1, seed=0)
        registry = MetricsRegistry()
        tracer = Tracer()
        profiler = OpProfiler(tracer=tracer)
        with use_registry(registry), use_tracer(tracer):
            with profiler.enabled():
                GAlignTrainer(config, np.random.default_rng(0)).train(pair)
        spans = tracer.spans()
        epoch_spans = [s for s in spans if s.name == "trainer.epoch"]
        assert [s.attrs["epoch"] for s in epoch_spans] == [0, 1, 2]
        names = {span.name for span in spans}
        assert {"trainer.forward", "trainer.backward", "trainer.step",
                "op.matmul", "op.spmm", "op.spmm.backward"} <= names
        stats = _by_key(profiler)
        assert stats[("spmm", "forward")].calls > 0
        assert stats[("matmul", "backward")].calls > 0
        # after training the patches are gone
        assert ops_module.spmm is repro.autograd.spmm


    def test_format_op_table_lists_busiest_ops(self):
        profiler = OpProfiler()
        with profiler.enabled():
            a = Tensor(np.random.default_rng(0).random((16, 16)),
                       requires_grad=True)
            (a @ a).tanh().sum().backward()
        text = format_op_table(profiler, title="ops", limit=3)
        lines = text.splitlines()
        assert lines[0] == "ops"
        assert len(lines) == 3 + 3  # title + header + rule + limited rows
        full = format_op_table(profiler)
        assert "matmul" in full and "backward" in full


class TestIsolation:
    """An observer sees only the context that entered it."""

    def test_other_thread_is_not_profiled(self):
        a = Tensor(np.ones((3, 3)))
        profiler = OpProfiler()
        with profiler.enabled():
            worker = threading.Thread(target=lambda: a @ a)
            worker.start()
            worker.join()
        assert profiler.stats() == []

    def test_profiler_entered_in_a_thread_sees_only_that_thread(self):
        a = Tensor(np.ones((3, 3)))
        profiler = OpProfiler()
        entered, release = threading.Event(), threading.Event()

        def profiled_worker():
            with profiler.enabled():
                entered.set()
                release.wait(timeout=10)
                a.tanh()

        worker = threading.Thread(target=profiled_worker)
        worker.start()
        entered.wait(timeout=10)
        a @ a  # main thread, while the worker's profiler is entered
        release.set()
        worker.join()
        assert set(_by_key(profiler)) == {("tanh", "forward")}

    def test_nested_profilers_see_compiled_training(self):
        outer, inner = OpProfiler(trace_ops=False), OpProfiler(trace_ops=False)
        rng = np.random.default_rng(5)
        graph = generators.barabasi_albert(30, 2, rng, feature_dim=6,
                                           feature_kind="degree")
        pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
        config = GAlignConfig(epochs=3, embedding_dim=8, seed=0,
                              num_augmentations=1, compile=True)
        with outer.enabled(), inner.enabled():
            GAlignTrainer(config, np.random.default_rng(0)).train(pair)
        for profiler in (outer, inner):
            stats = _by_key(profiler)
            assert stats[("gcn_layer", "forward")].calls > 0
            assert stats[("gcn_layer", "backward")].calls > 0
        assert {key: (s.calls, s.flops) for key, s in _by_key(outer).items()} \
            == {key: (s.calls, s.flops) for key, s in _by_key(inner).items()}
