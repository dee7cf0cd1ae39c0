"""Each DF rule fires on a minimal fixture and stays quiet on clean code."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths, lint_source


def lint(source: str, select=None):
    return lint_source(textwrap.dedent(source), path="fixture.py", select=select)


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# DF001: array captured in a worker closure


def test_df001_flags_closure_captured_array():
    findings = lint(
        """
        import numpy as np

        def job(ctx, rdd):
            projector = np.ones((100, 10))
            return rdd.map(lambda row: row @ projector)
        """
    )
    assert codes(findings) == ["DF001"]
    assert "projector" in findings[0].message
    assert "broadcast" in findings[0].message


def test_df001_flags_annotated_parameter():
    findings = lint(
        """
        import numpy as np

        def job(ctx, rdd, mean: np.ndarray):
            return rdd.map(lambda row: row - mean)
        """
    )
    assert codes(findings) == ["DF001"]


def test_df001_clean_when_broadcast():
    findings = lint(
        """
        import numpy as np

        def job(ctx, rdd):
            projector = np.ones((100, 10))
            bc = ctx.broadcast(projector)
            return rdd.map(lambda row: row @ bc.value)
        """
    )
    assert codes(findings) == []


def test_df001_ignores_module_level_constants():
    # Module globals ship with the code, not the closure.
    findings = lint(
        """
        import numpy as np

        WEIGHTS = np.ones(10)

        def job(rdd):
            return rdd.map(lambda row: row @ WEIGHTS)
        """
    )
    assert codes(findings) == []


def test_df001_sees_through_helper_functions():
    # The lambda calls a local helper that itself captures the array.
    findings = lint(
        """
        import numpy as np

        def job(ctx, rdd):
            projector = np.ones((100, 10))

            def project(row):
                return row @ projector

            return rdd.map(lambda row: project(row))
        """
    )
    assert codes(findings) == ["DF001"]


# ---------------------------------------------------------------------------
# DF002: non-monoid combiner


def test_df002_flags_subtraction_in_combiner_lambda():
    findings = lint(
        """
        def job(rdd):
            return rdd.reduce_by_key(lambda a, b: a - b)
        """
    )
    assert codes(findings) == ["DF002"]
    assert "-" in findings[0].message


def test_df002_flags_division_in_reducer_class():
    findings = lint(
        """
        from repro.engine.mapreduce.api import Reducer

        class MeanReducer(Reducer):
            def reduce(self, key, values, ctx):
                yield key, sum(values) / len(values)
        """
    )
    assert codes(findings) == ["DF002"]


def test_df002_clean_for_addition():
    findings = lint(
        """
        def job(rdd):
            return rdd.reduce_by_key(lambda a, b: a + b)
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# DF003: driver-state mutation from worker code


def test_df003_flags_list_append_from_worker():
    findings = lint(
        """
        def job(rdd):
            results = []
            rdd.foreach(lambda row: results.append(row))
            return results
        """
    )
    assert codes(findings) == ["DF003"]
    assert "append" in findings[0].message


def test_df003_flags_subscript_store():
    findings = lint(
        """
        def job(rdd):
            totals = {}

            def tally(row):
                totals[row[0]] = row[1]

            rdd.foreach(tally)
        """
    )
    assert codes(findings) == ["DF003"]


def test_df003_clean_for_accumulators():
    findings = lint(
        """
        def job(ctx, rdd):
            total = ctx.accumulator(0.0)
            rdd.foreach(lambda row: total.add(row))
            return total.value
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# DF004: per-record partial emission from a Mapper


def test_df004_flags_per_record_partial():
    findings = lint(
        """
        from repro.engine.mapreduce.api import Mapper

        KEY = "partial"

        class NaiveMapper(Mapper):
            def map(self, key, value, ctx):
                yield KEY, value.T @ value
        """
    )
    assert codes(findings) == ["DF004"]
    assert "cleanup" in findings[0].message


def test_df004_clean_for_stateful_cleanup_combiner():
    findings = lint(
        """
        from repro.engine.mapreduce.api import Mapper

        KEY = "partial"

        class StatefulMapper(Mapper):
            def setup(self, ctx):
                self.partial = None

            def map(self, key, value, ctx):
                update = value.T @ value
                self.partial = update if self.partial is None else self.partial + update
                return ()

            def cleanup(self, ctx):
                yield KEY, self.partial
        """
    )
    assert codes(findings) == []


def test_df004_clean_for_keyed_passthrough():
    # Map-only materialization keyed by the record's own key is not
    # combiner input (XJob's LatentMapper pattern).
    findings = lint(
        """
        from repro.engine.mapreduce.api import Mapper

        class MaterializeMapper(Mapper):
            def map(self, key, value, ctx):
                yield key, value @ value.T
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# DF005: uncached loop RDD; nested action


def test_df005_flags_uncached_rdd_in_loop():
    findings = lint(
        """
        def em(ctx, data):
            rdd = ctx.parallelize(data)
            for _ in range(10):
                rdd.map(lambda r: r).collect()
        """
    )
    assert codes(findings) == ["DF005"]
    assert "cache" in findings[0].message


def test_df005_clean_when_cached():
    findings = lint(
        """
        def em(ctx, data):
            rdd = ctx.parallelize(data).cache()
            for _ in range(10):
                rdd.map(lambda r: r).collect()
        """
    )
    assert codes(findings) == []


def test_df005_flags_action_inside_transformation():
    findings = lint(
        """
        def job(rdd, other):
            return rdd.map(lambda row: (row, other.count()))
        """
    )
    assert codes(findings) == ["DF005"]
    assert "count" in findings[0].message


# ---------------------------------------------------------------------------
# CT001: static contract cross-check


def test_ct001_flags_conflicting_literal_shapes():
    findings = lint(
        """
        import numpy as np
        from repro.lint.contracts import contract

        @contract(block="matrix (b, D)", mean="dense (D,)")
        def kernel(block, mean):
            return block - mean

        def driver():
            return kernel(np.zeros((4, 7)), np.zeros(3))
        """
    )
    assert codes(findings) == ["CT001"]
    assert "D" in findings[0].message


def test_ct001_clean_for_consistent_shapes():
    findings = lint(
        """
        import numpy as np
        from repro.lint.contracts import contract

        @contract(block="matrix (b, D)", mean="dense (D,)")
        def kernel(block, mean):
            return block - mean

        def driver():
            return kernel(np.zeros((4, 7)), np.zeros(7))
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# suppression comments


def test_suppression_comment_silences_one_rule():
    findings = lint(
        """
        def job(rdd):
            return rdd.reduce_by_key(lambda a, b: a - b)  # repro-lint: disable=DF002
        """
    )
    assert codes(findings) == []


def test_suppression_on_def_header_covers_the_block():
    findings = lint(
        """
        from repro.engine.mapreduce.api import Mapper

        KEY = "partial"

        class AblationMapper(Mapper):
            def map(self, key, value, ctx):  # repro-lint: disable=DF004
                yield KEY, value.T @ value
                yield KEY, value @ value.T
        """
    )
    assert codes(findings) == []


def test_suppression_does_not_silence_other_rules():
    findings = lint(
        """
        def job(rdd):
            return rdd.reduce_by_key(lambda a, b: a - b)  # repro-lint: disable=DF001
        """
    )
    assert codes(findings) == ["DF002"]


# ---------------------------------------------------------------------------
# select + syntax errors + real code


def test_select_restricts_rules():
    source = """
        def job(rdd):
            results = []
            rdd.foreach(lambda row: results.append(row))
            return rdd.reduce_by_key(lambda a, b: a - b)
    """
    assert codes(lint(source)) == ["DF003", "DF002"] or set(codes(lint(source))) == {
        "DF002",
        "DF003",
    }
    assert codes(lint(source, select={"DF002"})) == ["DF002"]


def test_syntax_error_reported_as_finding():
    findings = lint("def broken(:\n")
    assert codes(findings) == ["E999"]


def test_repo_jobs_are_clean():
    # The real job modules lint clean (ablations carry explicit suppressions).
    assert lint_paths(["src/repro/jobs"]) == []
