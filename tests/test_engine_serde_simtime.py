"""Byte accounting and the simulated-time model."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CostModel, schedule_makespan, schedule_tasks
from repro.engine.cluster import ClusterSpec
from repro.engine.serde import sizeof, sizeof_pairs
from repro.errors import ShapeError


class TestSizeof:
    def test_numpy_array_counts_buffer(self):
        array = np.zeros((10, 10))
        assert sizeof(array) >= array.nbytes

    def test_sparse_counts_index_structures(self):
        matrix = sp.random(50, 50, density=0.1, random_state=0, format="csr")
        expected = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert sizeof(matrix) >= expected

    def test_scalars_and_none(self):
        assert sizeof(3) == 8
        assert sizeof(3.5) == 8
        assert sizeof(True) == 8
        assert sizeof(None) == 1

    def test_strings(self):
        assert sizeof("abcd") >= 4

    def test_containers_are_additive(self):
        a, b = np.zeros(4), np.zeros(6)
        assert sizeof([a, b]) >= sizeof(a) + sizeof(b)
        assert sizeof({"x": a}) >= sizeof("x") + sizeof(a)

    def test_sizeof_pairs(self):
        pairs = [("k1", np.zeros(8)), ("k2", 1.0)]
        assert sizeof_pairs(pairs) == sizeof("k1") + sizeof(np.zeros(8)) + sizeof("k2") + 8

    def test_fallback_repr(self):
        class Odd:
            def __repr__(self):
                return "x" * 50

        assert sizeof(Odd()) >= 50

    def test_sparse_csr_measured_without_conversion(self):
        matrix = sp.random(40, 60, density=0.15, random_state=1, format="csr")
        expected = (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        )
        assert sizeof(matrix) == expected + 8  # + container overhead

    @pytest.mark.parametrize("fmt", ["csc", "coo", "lil", "dok"])
    def test_sparse_formats_match_csr_equivalent(self, fmt):
        # The historical implementation measured every sparse matrix through
        # tocsr(); the direct computation must reproduce those numbers.
        matrix = sp.random(40, 60, density=0.15, random_state=2, format=fmt)
        as_csr = matrix.tocsr()
        expected = as_csr.data.nbytes + as_csr.indices.nbytes + as_csr.indptr.nbytes
        assert sizeof(matrix) == expected + 8

    def test_empty_sparse(self):
        matrix = sp.csr_matrix((5, 7))
        assert sizeof(matrix) == matrix.indptr.nbytes + 8


class TestScheduleMakespan:
    def test_single_slot_is_sum(self):
        assert schedule_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_slots_is_max(self):
        assert schedule_makespan([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)

    def test_empty_tasks(self):
        assert schedule_makespan([], 4) == 0.0

    def test_invalid_slots(self):
        with pytest.raises(ShapeError):
            schedule_makespan([1.0], 0)

    @settings(max_examples=40, deadline=None)
    @given(
        tasks=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20),
        slots=st.integers(min_value=1, max_value=8),
    )
    def test_property_bounds(self, tasks, slots):
        makespan = schedule_makespan(tasks, slots)
        total = sum(tasks)
        longest = max(tasks, default=0.0)
        # Lower bounds: perfect parallelism and the longest single task.
        assert makespan >= total / slots - 1e-9
        assert makespan >= longest - 1e-9
        # Upper bound: serial execution.
        assert makespan <= total + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        tasks=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=15),
        slots=st.integers(min_value=1, max_value=4),
    )
    def test_property_more_slots_never_slower(self, tasks, slots):
        assert schedule_makespan(tasks, slots + 1) <= schedule_makespan(tasks, slots) + 1e-9


class TestScheduleTasks:
    def test_placements_cover_all_tasks_in_id_order(self):
        placements = schedule_tasks([2.0, 1.0, 3.0], 2)
        assert [p.task_id for p in placements] == [0, 1, 2]
        assert sorted(p.duration for p in placements) == [1.0, 2.0, 3.0]

    def test_no_overlap_within_a_slot(self):
        placements = schedule_tasks([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        by_slot: dict = {}
        for p in placements:
            by_slot.setdefault(p.slot, []).append(p)
        for slot_tasks in by_slot.values():
            slot_tasks.sort(key=lambda p: p.start)
            for earlier, later in zip(slot_tasks, slot_tasks[1:]):
                assert later.start >= earlier.end - 1e-12

    def test_makespan_agrees_with_schedule(self):
        tasks = [1.0, 2.0, 3.0, 4.0]
        placements = schedule_tasks(tasks, 2)
        assert schedule_makespan(tasks, 2) == max(p.end for p in placements)

    def test_empty_tasks_empty_schedule(self):
        assert schedule_tasks([], 4) == []

    def test_zero_slots_is_error_even_for_empty_list(self):
        with pytest.raises(ShapeError):
            schedule_tasks([], 0)
        with pytest.raises(ShapeError):
            schedule_tasks([1.0], 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative_durations(self, bad):
        with pytest.raises(ShapeError) as excinfo:
            schedule_tasks([1.0, bad], 2)
        assert "#1" in str(excinfo.value)

    def test_speculative_execution_rejects_bad_durations(self):
        from repro.engine.simtime import apply_speculative_execution

        with pytest.raises(ShapeError):
            apply_speculative_execution([1.0, float("nan"), 2.0])
        with pytest.raises(ShapeError):
            apply_speculative_execution([-0.5, 1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(
        tasks=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20),
        slots=st.integers(min_value=1, max_value=8),
    )
    def test_property_slots_within_bounds(self, tasks, slots):
        placements = schedule_tasks(tasks, slots)
        assert len(placements) == len(tasks)
        for p in placements:
            assert 0 <= p.slot < slots
            assert p.start >= 0.0


class TestCostModel:
    def test_transfer_times(self):
        cost = CostModel(1.0, 0.1, network_bytes_per_s=100.0, disk_bytes_per_s=50.0)
        assert cost.network_seconds(200) == pytest.approx(2.0)
        assert cost.disk_seconds(200) == pytest.approx(4.0)


class TestClusterSpec:
    def test_defaults_match_paper_testbed(self):
        cluster = ClusterSpec()
        assert cluster.num_nodes == 8
        assert cluster.cores_per_node == 8
        assert cluster.total_cores == 64

    def test_scaled(self):
        cluster = ClusterSpec().scaled(2)
        assert cluster.total_cores == 16
        assert cluster.memory_per_node_mb == ClusterSpec().memory_per_node_mb

    def test_validation(self):
        with pytest.raises(ShapeError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ShapeError):
            ClusterSpec(driver_memory_mb=0)

    def test_scaled_rejects_non_positive_node_counts(self):
        for bad in (0, -3):
            with pytest.raises(ShapeError) as excinfo:
                ClusterSpec().scaled(bad)
            assert "num_nodes >= 1" in str(excinfo.value)

    def test_memory_bytes(self):
        cluster = ClusterSpec(num_nodes=2, memory_per_node_mb=1.0, driver_memory_mb=2.0)
        assert cluster.aggregate_memory_bytes == 2 * 1024 * 1024
        assert cluster.driver_memory_bytes == 2 * 1024 * 1024


class TestSpeculativeExecution:
    def test_caps_stragglers(self):
        from repro.engine.simtime import apply_speculative_execution

        smoothed = apply_speculative_execution([1.0, 1.0, 1.0, 100.0])
        assert max(smoothed) == pytest.approx(3.0)

    def test_leaves_balanced_stages_alone(self):
        from repro.engine.simtime import apply_speculative_execution

        times = [1.0, 1.1, 0.9, 1.05]
        assert apply_speculative_execution(times) == times

    def test_tiny_stages_passthrough(self):
        from repro.engine.simtime import apply_speculative_execution

        assert apply_speculative_execution([5.0]) == [5.0]
        assert apply_speculative_execution([5.0, 1.0]) == [5.0, 1.0]

    def test_invalid_factor(self):
        from repro.engine.simtime import apply_speculative_execution

        with pytest.raises(ShapeError):
            apply_speculative_execution([1.0, 2.0, 3.0], straggler_factor=1.0)

    def test_even_length_uses_true_median(self):
        from repro.engine.simtime import apply_speculative_execution

        # sorted = [1, 1, 3, 100]: the true median is (1 + 3) / 2 = 2, so the
        # cap is 6.0.  The old upper-middle "median" took 3.0 (a value the
        # straggler side contributes), inflating the cap to 9.0.
        smoothed = apply_speculative_execution([1.0, 3.0, 1.0, 100.0])
        assert smoothed == [1.0, 3.0, 1.0, pytest.approx(6.0)]

    def test_straggler_cannot_inflate_its_own_cap(self):
        from repro.engine.simtime import apply_speculative_execution

        # The cap must come from the middle of the distribution, not from a
        # single upper-middle element the straggler side contributes.
        smoothed = apply_speculative_execution([1.0, 2.0, 50.0, 500.0])
        ceiling = 3.0 * 0.5 * (2.0 + 50.0)
        assert smoothed == [1.0, 2.0, 50.0, pytest.approx(ceiling)]

    def test_empty_stage_passthrough(self):
        from repro.engine.simtime import apply_speculative_execution

        assert apply_speculative_execution([]) == []
