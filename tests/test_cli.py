"""The repro-spca command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.persistence import load_model
from repro.data.io import load_matrix


@pytest.fixture
def matrix_path(tmp_path):
    path = tmp_path / "data.npz"
    code = main(["generate", "tweets", "--rows", "300", "--cols", "80",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_generates_all_datasets(self, tmp_path, capsys):
        for dataset in ("tweets", "biotext", "diabetes", "images"):
            out = tmp_path / f"{dataset}.npz"
            assert main(["generate", dataset, "--rows", "50", "--cols", "60",
                         "--out", str(out)]) == 0
            matrix = load_matrix(out)
            assert matrix.shape == (50, 60)
        output = capsys.readouterr().out
        assert "images" in output

    def test_sparse_density_reported(self, matrix_path, capsys):
        pass  # generation already checked via fixture


class TestFit:
    def test_fit_and_save(self, matrix_path, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main(["fit", str(matrix_path), "--components", "4",
                     "--max-iterations", "5", "--out", str(model_path)])
        assert code == 0
        model = load_model(model_path)
        assert model.n_components == 4
        assert "iterations" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["mapreduce", "spark"])
    def test_fit_on_engine_backends(self, matrix_path, backend, capsys):
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--backend", backend])
        assert code == 0
        assert "simulated cluster time" in capsys.readouterr().out

    def test_fit_with_smart_init(self, matrix_path, capsys):
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--smart-init"])
        assert code == 0

    def test_resume_checkpoint_with_retired_kernel_backend(
        self, matrix_path, tmp_path, capsys
    ):
        from repro.core import DirectoryCheckpointStore
        from tests.test_checkpoint_resume import add_retired_kernel_backend

        ckpt, clean_path, resumed_path = (
            tmp_path / "ckpts", tmp_path / "clean.npz", tmp_path / "resumed.npz"
        )
        common = ["--components", "3", "--backend", "mapreduce"]
        assert main(["fit", str(matrix_path), *common, "--max-iterations", "4",
                     "--tolerance", "0", "--checkpoint", str(ckpt),
                     "--checkpoint-every", "2", "--out", str(clean_path)]) == 0
        store = DirectoryCheckpointStore(ckpt)
        assert store.iterations() == [2]
        add_retired_kernel_backend(store)
        assert main(["resume", str(matrix_path), "--checkpoint", str(ckpt),
                     "--backend", "mapreduce", "--out", str(resumed_path)]) == 0
        assert "resumed" in capsys.readouterr().out
        resumed, clean = load_model(resumed_path), load_model(clean_path)
        assert np.array_equal(resumed.components, clean.components)
        assert np.array_equal(resumed.mean, clean.mean)
        assert resumed.noise_variance == clean.noise_variance

    def test_missing_input_is_a_clean_error(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.npz"), "--components", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTransformEvaluateInfo:
    @pytest.fixture
    def model_path(self, matrix_path, tmp_path):
        path = tmp_path / "model.npz"
        main(["fit", str(matrix_path), "--components", "4",
              "--max-iterations", "5", "--out", str(path)])
        return path

    def test_transform(self, model_path, matrix_path, tmp_path, capsys):
        out = tmp_path / "latent.npz"
        assert main(["transform", str(model_path), str(matrix_path),
                     "--out", str(out)]) == 0
        latent = load_matrix(out)
        assert latent.shape == (300, 4)

    def test_evaluate(self, model_path, matrix_path, capsys):
        assert main(["evaluate", str(model_path), str(matrix_path)]) == 0
        output = capsys.readouterr().out
        assert "accuracy" in output

    def test_evaluate_with_sampling(self, model_path, matrix_path):
        assert main(["evaluate", str(model_path), str(matrix_path),
                     "--sample-fraction", "0.5"]) == 0

    def test_info_model(self, model_path, capsys):
        assert main(["info", str(model_path)]) == 0
        assert "PCA model" in capsys.readouterr().out

    def test_info_matrix(self, matrix_path, capsys):
        assert main(["info", str(matrix_path)]) == 0
        assert "matrix" in capsys.readouterr().out

    def test_info_unknown_archive(self, tmp_path, capsys):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, stuff=np.ones(2))
        assert main(["info", str(bogus)]) == 1


class TestTraceAndReport:
    @pytest.fixture
    def trace_path(self, matrix_path, tmp_path):
        path = tmp_path / "fit.trace.json"
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--backend", "mapreduce",
                     "--trace", str(path)])
        assert code == 0
        return path

    @pytest.mark.parametrize("backend", ["mapreduce", "spark"])
    def test_fit_trace_is_valid_chrome_json_that_reconciles(
        self, matrix_path, tmp_path, backend, capsys
    ):
        import json

        path = tmp_path / f"{backend}.trace.json"
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--backend", backend,
                     "--trace", str(path)])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        phases = {entry.get("ph") for entry in document["traceEvents"]}
        assert {"M", "X"} <= phases

        # Byte accounting is deterministic across runs (simulated durations
        # are measured wall times and jitter), so the trace's per-job byte
        # sums must agree exactly with a fresh identical run's EngineMetrics.
        # Duration-exact reconciliation within one run is asserted in
        # tests/test_obs_integration.py.
        from repro.cli import _make_backend
        from repro.core import SPCA, SPCAConfig
        from repro.obs import load_trace
        from repro.obs.report import job_spans

        config = SPCAConfig(n_components=3, max_iterations=3, seed=0)
        fresh = _make_backend(backend, config)
        SPCA(config, fresh).fit(load_matrix(matrix_path))
        metrics = (fresh.runtime.metrics if hasattr(fresh, "runtime")
                   else fresh.context.metrics)
        spans = job_spans(load_trace(path))
        assert [s.name for s in spans] == [j.name for j in metrics.jobs]
        for column in ("shuffle_bytes", "intermediate_bytes", "hdfs_read_bytes",
                       "hdfs_write_bytes", "broadcast_bytes"):
            trace_total = sum(int(s.attrs[column]) for s in spans)
            metrics_total = sum(int(getattr(j, column)) for j in metrics.jobs)
            assert trace_total == metrics_total, column
        assert all(s.dur >= 0.0 for s in spans)

    def test_fit_trace_jsonl_extension_selects_jsonl(self, matrix_path, tmp_path):
        import json

        path = tmp_path / "fit.jsonl"
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "2", "--trace", str(path),
                     "--backend", "spark"])
        assert code == 0
        lines = path.read_text().splitlines()
        # A .jsonl trace from `fit` is written incrementally: streaming
        # header up front, counts only in the footer.
        header = json.loads(lines[0])
        assert header == {"rec": "header", "schema": "repro.obs/1",
                          "streaming": True}
        footer = json.loads(lines[-1])
        assert footer["rec"] == "footer"
        assert footer["spans"] > 0
        # And it loads back like any other trace.
        from repro.obs import load_trace

        trace = load_trace(path)
        assert len(trace.spans) == footer["spans"]
        assert len(trace.events) == footer["events"]

    def test_trace_inspect(self, trace_path, capsys):
        assert main(["trace", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "spans" in output
        assert "job" in output and "iteration" in output

    def test_trace_convert_roundtrip(self, trace_path, tmp_path, capsys):
        from repro.obs import load_trace

        jsonl = tmp_path / "converted.jsonl"
        assert main(["trace", str(trace_path), "--to", str(jsonl)]) == 0
        back = tmp_path / "back.trace.json"
        assert main(["trace", str(jsonl), "--to", str(back)]) == 0
        original, rebuilt = load_trace(trace_path), load_trace(back)
        assert rebuilt.spans == original.spans
        assert rebuilt.events == original.events

    def test_report_prints_convergence_table(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "== jobs ==" in output
        assert "== phases ==" in output
        assert "== iterations ==" in output
        assert "objective" in output
        assert "spca.fit[" in output

    def test_report_single_section(self, trace_path, capsys):
        assert main(["report", str(trace_path), "--section", "iterations"]) == 0
        output = capsys.readouterr().out
        assert "== iterations ==" in output
        assert "== jobs ==" not in output

    def test_trace_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_critical_path_and_straggler_sections(self, trace_path, capsys):
        assert main(["report", str(trace_path),
                     "--section", "critical-path"]) == 0
        output = capsys.readouterr().out
        assert "== critical path ==" in output
        assert "by kind:" in output
        assert main(["report", str(trace_path), "--section", "stragglers"]) == 0
        assert "== stragglers ==" in capsys.readouterr().out

    def test_report_html(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["report", str(trace_path), "--html", str(out)]) == 0
        assert "html report written to" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html
        assert "Critical path" in html
        # Self-contained: no external scripts or stylesheets.
        assert "<script src" not in html
        assert "<link" not in html

    def test_report_empty_trace_degrades_gracefully(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "trace file is empty" in captured.err
        assert "== jobs ==" in captured.out

    def test_report_truncated_jsonl_degrades_gracefully(
        self, matrix_path, tmp_path, capsys
    ):
        path = tmp_path / "fit.jsonl"
        assert main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        # Chop the footer and cut the last span line in half, as if the
        # writer died mid-record.
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]))
        assert main(["report", str(truncated)]) == 0
        captured = capsys.readouterr()
        assert "malformed JSONL" in captured.err
        assert "== jobs ==" in captured.out

    def test_report_truncated_chrome_json_degrades_gracefully(
        self, trace_path, tmp_path, capsys
    ):
        text = trace_path.read_text()
        cut = tmp_path / "cut.trace.json"
        cut.write_text(text[: int(len(text) * 0.6)])
        assert main(["report", str(cut)]) == 0
        captured = capsys.readouterr()
        assert "salvaged" in captured.err
        assert "== jobs ==" in captured.out


class TestMetricsAndLive:
    @pytest.fixture
    def trace_and_metrics(self, matrix_path, tmp_path):
        trace = tmp_path / "fit.trace.json"
        metrics = tmp_path / "fit.metrics.json"
        code = main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--backend", "spark",
                     "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        return trace, metrics

    def test_fit_writes_metrics_snapshot(self, trace_and_metrics):
        import json

        _, metrics_path = trace_and_metrics
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema"] == "repro.metrics/1"
        names = {c["name"] for c in snapshot["counters"]}
        assert "spca_jobs_total" in names
        assert "spca_em_iterations_total" in names
        assert any(h["name"] == "spca_job_sim_seconds"
                   for h in snapshot["histograms"])

    def test_fit_metrics_prom_extension_selects_prometheus(
        self, matrix_path, tmp_path
    ):
        from repro.obs import parse_prometheus

        prom = tmp_path / "fit.metrics.prom"
        assert main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "2", "--backend", "mapreduce",
                     "--metrics", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE spca_jobs_total counter" in text
        samples = parse_prometheus(text)
        assert any(name == "spca_jobs_total" for name, _ in samples)

    def test_report_html_with_metrics_snapshot(self, trace_and_metrics, tmp_path):
        trace_path, metrics_path = trace_and_metrics
        out = tmp_path / "report.html"
        assert main(["report", str(trace_path), "--html", str(out),
                     "--metrics", str(metrics_path)]) == 0
        html = out.read_text()
        assert "Metrics snapshot" in html
        assert "spca_jobs_total" in html

    def test_fit_live_plain_renders_iteration_lines(self, matrix_path, capsys):
        assert main(["fit", str(matrix_path), "--components", "3",
                     "--max-iterations", "3", "--backend", "mapreduce",
                     "--live"]) == 0
        err = capsys.readouterr().err
        live_lines = [li for li in err.splitlines() if li.startswith("[live]")]
        assert len(live_lines) == 3
        assert "iter=3" in live_lines[-1]
        assert "obj=" in live_lines[-1]

    def test_diff_of_identical_traces_has_no_regressions(
        self, trace_and_metrics, capsys
    ):
        trace_path, _ = trace_and_metrics
        assert main(["diff", str(trace_path), str(trace_path),
                     "--fail-on-regression"]) == 0
        output = capsys.readouterr().out
        assert "total:sim_seconds" in output
        assert "1.000" in output

    def test_diff_flags_new_work_as_regression(
        self, trace_and_metrics, tmp_path, capsys
    ):
        trace_path, _ = trace_and_metrics
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diff", str(empty), str(trace_path),
                     "--fail-on-regression"]) == 1
        assert "new" in capsys.readouterr().out

    def test_trace_diff_alias(self, trace_and_metrics, capsys):
        trace_path, _ = trace_and_metrics
        assert main(["trace", str(trace_path), "--diff", str(trace_path)]) == 0
        assert "baseline:" in capsys.readouterr().out


class TestSelect:
    def test_select_reports_bic_table(self, matrix_path, capsys):
        code = main(["select", str(matrix_path), "--candidates", "1,2,4",
                     "--max-iterations", "20"])
        assert code == 0
        output = capsys.readouterr().out
        assert "BIC" in output
        assert "chosen d =" in output

    def test_select_malformed_candidates(self, matrix_path, capsys):
        code = main(["select", str(matrix_path), "--candidates", "a,b"])
        assert code == 2

    def test_select_invalid_candidates(self, matrix_path, capsys):
        code = main(["select", str(matrix_path), "--candidates", "0,2"])
        assert code == 2


class TestBench:
    def test_bench_prints_comparison(self, matrix_path, capsys):
        code = main(["bench", str(matrix_path), "--components", "3"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("sPCA-Spark", "MLlib-PCA", "sPCA-MapReduce", "Mahout-PCA"):
            assert name in output


class TestStream:
    @pytest.fixture
    def dense_path(self, tmp_path):
        path = tmp_path / "dense.npz"
        assert main(["generate", "images", "--rows", "300", "--cols", "30",
                     "--seed", "4", "--out", str(path)]) == 0
        return path

    def test_stream_file_and_save_model(self, dense_path, tmp_path, capsys):
        out = tmp_path / "model.npz"
        code = main(["stream", str(dense_path), "-d", "3", "--window", "60",
                     "--backend", "mapreduce", "--out", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "streamed (300, 30)" in output
        assert "5 windows, 300 rows" in output
        assert "simulated cluster time" in output
        model = load_model(out)
        assert model.components.shape == (30, 3)
        assert model.n_samples == 300

    def test_stream_matches_library_reference(self, dense_path, tmp_path):
        from repro.extensions.incremental import IncrementalPPCA
        from repro.stream import StreamConfig, reference_windows

        out = tmp_path / "model.npz"
        assert main(["stream", str(dense_path), "-d", "3", "--window", "60",
                     "--seed", "7", "--backend", "spark",
                     "--out", str(out)]) == 0
        matrix = load_matrix(dense_path)
        windows = reference_windows(
            matrix, StreamConfig(n_components=3, window=60, seed=7).spec()
        )
        oracle = IncrementalPPCA(3, seed=7).partial_fit_stream(
            (w.rows for w in windows), n_cols=30
        )
        model = load_model(out)
        assert np.array_equal(model.components, oracle.components)
        assert model.noise_variance == oracle.noise_variance

    def test_synthetic_stream_with_drift(self, tmp_path, capsys):
        code = main(["stream", "--synthetic", "24,3", "-d", "3",
                     "--window", "120", "--max-windows", "15",
                     "--drift-at", "900", "--drift-angle", "60",
                     "--drift-threshold", "15", "--drift-warmup", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "stop: max_windows" in output
        assert "drift detected at window" in output

    def test_checkpoint_then_resume(self, dense_path, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        out_a = tmp_path / "partial.npz"
        out_b = tmp_path / "final.npz"
        out_c = tmp_path / "clean.npz"
        assert main(["stream", str(dense_path), "-d", "2", "--window", "50",
                     "--max-windows", "3", "--checkpoint", str(ckpt),
                     "--out", str(out_a)]) == 0
        assert main(["stream", str(dense_path), "-d", "2", "--window", "50",
                     "--checkpoint", str(ckpt), "--resume",
                     "--out", str(out_b)]) == 0
        output = capsys.readouterr().out
        assert "resumed" in output
        assert main(["stream", str(dense_path), "-d", "2", "--window", "50",
                     "--out", str(out_c)]) == 0
        resumed, clean = load_model(out_b), load_model(out_c)
        assert np.array_equal(resumed.components, clean.components)
        assert resumed.noise_variance == clean.noise_variance

    def test_stream_trace_and_metrics(self, dense_path, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        metrics = tmp_path / "stream-metrics.json"
        code = main(["stream", str(dense_path), "-d", "2", "--window", "75",
                     "--backend", "mapreduce", "--trace", str(trace),
                     "--metrics", str(metrics)])
        assert code == 0
        assert trace.exists() and metrics.exists()
        import json

        snapshot = json.loads(metrics.read_text())
        names = {item["name"] for item in snapshot["counters"]}
        assert "spca_stream_rows_total" in names
        assert "spca_stream_windows_total" in names
        html = tmp_path / "report.html"
        assert main(["report", str(trace), "--metrics", str(metrics),
                     "--html", str(html)]) == 0
        assert "<h2>Streaming</h2>" in html.read_text()

    def test_usage_errors(self, dense_path, tmp_path, capsys):
        assert main(["stream"]) == 2
        assert main(["stream", "--synthetic", "24,3", "-d", "2",
                     "--window", "10"]) == 2  # unbounded without a bound
        assert main(["stream", str(dense_path), "--synthetic", "8,2",
                     "--max-windows", "2"]) == 2
        assert main(["stream", "--synthetic", "nope", "--max-windows",
                     "2"]) == 2
        assert main(["stream", str(dense_path), "--resume"]) == 2
