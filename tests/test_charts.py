"""Chart and CSV rendering: determinism, fit annotation, degenerate inputs."""

import copy
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import numbers
from trustnet.charts import (
    PLOT_H,
    binned_csv,
    degree_histogram_svg,
    degree_loglog_svg,
    histogram_csv,
    load_metrics,
    read_histogram,
    read_metrics,
    render_report_artifacts,
    sweep_csv,
)
from trustnet.errors import SchemaViolationError, TrustNetError


SAMPLE_HIST = {0: 9, 1: 38, 3: 102, 5: 50, 12: 19, 39: 1}


class TestSvgCharts:
    def test_bar_chart_draws_one_rect_per_populated_degree(self):
        svg = degree_histogram_svg(SAMPLE_HIST)
        assert svg.count('<rect class="bar"') == len(SAMPLE_HIST)
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_bar_chart_accepts_string_keys(self):
        text_keys = {str(k): v for k, v in SAMPLE_HIST.items()}
        hist = read_histogram(text_keys, "histogram")
        assert degree_histogram_svg(hist) == degree_histogram_svg(SAMPLE_HIST)

    def test_loglog_plots_positive_degrees_only(self):
        svg = degree_loglog_svg(SAMPLE_HIST)
        # degree 0 cannot appear on a log axis
        assert svg.count('<circle class="dot"') == len(SAMPLE_HIST) - 1

    def test_fit_line_annotated_with_slope(self):
        hist = {k: max(1, int(1000 * k**-2.1)) for k in range(1, 60)}
        svg = degree_loglog_svg(hist, gamma=2.1, k_min=10)
        assert '<path class="fit"' in svg
        assert "~k^-2.10" in svg

    def test_no_fit_line_without_gamma(self):
        svg = degree_loglog_svg(SAMPLE_HIST, gamma=None, k_min=None)
        assert '<path class="fit"' not in svg

    def test_single_point_histogram_renders(self):
        svg = degree_loglog_svg({0: 1})
        assert svg.startswith("<?xml")
        assert '<circle class="dot"' not in svg
        assert degree_histogram_svg({0: 1}).startswith("<?xml")

    def test_rendering_is_deterministic(self):
        first = degree_histogram_svg(SAMPLE_HIST)
        second = degree_histogram_svg(dict(reversed(list(SAMPLE_HIST.items()))))
        assert first == second

    def test_bad_histogram_entries_rejected(self):
        with pytest.raises(SchemaViolationError):
            read_histogram({"three": "many"}, "histogram")

    def test_count_beyond_2_53_rejected(self, tmp_path):
        # PLOT_H * count overflows to inf near the float maximum
        huge = {"1": 10**308, "2": 1}
        metrics = dict(TestReportArtifacts.METRICS, degree_histogram_api=huge)
        with pytest.raises(SchemaViolationError, match=r"may not exceed 2\*\*53"):
            render_report_artifacts(metrics, tmp_path / "charts")
        assert not (tmp_path / "charts").exists()
        with pytest.raises(SchemaViolationError):
            read_histogram({"1": 2**53 + 1}, "histogram")

    def test_count_of_2_53_renders_finite(self, tmp_path):
        top = {"1": 2**53, "2": 1}
        metrics = dict(TestReportArtifacts.METRICS, degree_histogram_api=top)
        written = render_report_artifacts(metrics, tmp_path)
        for path in written:
            assert "inf" not in path.read_text() and "nan" not in path.read_text()
        bars = degree_histogram_svg({1: 2**53, 2: 1})
        assert f'height="{PLOT_H:.2f}"' in bars

    def test_bar_chart_cost_follows_populated_degrees(self):
        started = time.perf_counter()
        svg = degree_histogram_svg({10**8: 1})
        assert time.perf_counter() - started < 1.0
        assert svg.count('<rect class="bar"') == 1
        assert svg.count('text-anchor="middle"') == 13  # degree labels


class TestCsvExports:
    def test_histogram_csv_sorted_rows(self):
        text = histogram_csv({5: 2, 1: 7}, key_label="degree")
        assert text == "degree,count\n1,7\n5,2\n"

    def test_binned_csv_frames_bins(self):
        text = binned_csv([0, 6, 11, 15], [10, 20, 30])
        assert text == "low,high,count\n0,6,10\n6,11,20\n11,15,30\n"

    def test_binned_csv_shape_mismatch_rejected(self):
        metrics = dict(
            TestReportArtifacts.METRICS,
            dunbar_bins={"boundaries": [0, 6], "counts": [1, 2, 3]},
        )
        with pytest.raises(SchemaViolationError):
            read_metrics(metrics)

    def test_sweep_csv_column_order(self):
        rows = [{"value": 0.5, "seed": 1, "giant": 0.7}]
        text = sweep_csv(rows, ["value", "seed", "giant"])
        assert text == "value,seed,giant\n0.5,1,0.7\n"


class TestReportArtifacts:
    METRICS = {
        "degree_histogram_api": {"0": 9, "3": 102, "39": 1},
        "degree_histogram_nonself": {"0": 30, "2": 70, "20": 4},
        "powerlaw_fit": {"gamma": 2.48, "k_min": 10},
        "address_delta_histogram": {"histogram": {"1": 220, "2": 90}},
        "dunbar_bins": {"boundaries": [0, 6, 11], "counts": [100, 200]},
    }

    def test_all_artifacts_written(self, tmp_path):
        written = render_report_artifacts(self.METRICS, tmp_path)
        assert [p.name for p in written] == [
            "degree_histogram.svg",
            "degree_loglog.svg",
            "degree_histogram_api.csv",
            "degree_histogram_nonself.csv",
            "address_delta_histogram.csv",
            "dunbar_bins.csv",
        ]
        assert all(p.exists() for p in written)

    def test_repeat_render_is_byte_identical(self, tmp_path):
        first = render_report_artifacts(self.METRICS, tmp_path / "a")
        second = render_report_artifacts(self.METRICS, tmp_path / "b")
        for left, right in zip(first, second):
            assert left.read_bytes() == right.read_bytes()

    def test_missing_fit_omits_reference_line(self, tmp_path):
        metrics = dict(self.METRICS, powerlaw_fit=None)
        written = render_report_artifacts(metrics, tmp_path)
        loglog = next(p for p in written if p.name == "degree_loglog.svg")
        assert '<path class="fit"' not in loglog.read_text()

    def test_absent_sections_skip_their_artifacts(self, tmp_path):
        metrics = {
            "degree_histogram_api": self.METRICS["degree_histogram_api"],
            "degree_histogram_nonself": self.METRICS["degree_histogram_nonself"],
        }
        written = render_report_artifacts(metrics, tmp_path)
        assert [p.name for p in written] == [
            "degree_histogram.svg",
            "degree_loglog.svg",
            "degree_histogram_api.csv",
            "degree_histogram_nonself.csv",
        ]

    def test_histograms_required(self, tmp_path):
        with pytest.raises(SchemaViolationError):
            render_report_artifacts({"degree_histogram_api": {}}, tmp_path)

    def test_load_metrics_validates_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaViolationError):
            load_metrics(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaViolationError):
            load_metrics(path)


# Every object in the metrics document, by its key path, and the keys it holds.
METRICS_OBJECTS = {
    (): list(TestReportArtifacts.METRICS),
    ("degree_histogram_api",): ["0", "3", "39"],
    ("degree_histogram_nonself",): ["0", "2", "20"],
    ("powerlaw_fit",): ["gamma", "k_min"],
    ("address_delta_histogram",): ["histogram"],
    ("address_delta_histogram", "histogram"): ["1", "2"],
    ("dunbar_bins",): ["boundaries", "counts"],
}
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)
keys = st.text() | st.integers().map(str) | st.integers(min_value=10**300).map(str)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_report_reader_raises_only_trustnet_errors(data):
    """One key of the metrics document replaced by, or joined by, any JSON value:
    the artifacts are written, or a TrustNetError leaves the directory unmade."""
    path = data.draw(st.sampled_from(sorted(METRICS_OBJECTS)))
    doc = copy.deepcopy(TestReportArtifacts.METRICS)
    parent = doc
    for key in path:
        parent = parent[key]
    key = data.draw(st.sampled_from(METRICS_OBJECTS[path]) | keys)
    # numbers drawn bare too, so the counts and the fit are hit often
    parent[key] = data.draw(numbers | json_values)
    with tempfile.TemporaryDirectory() as scratch:
        out = f"{scratch}/charts"
        try:
            written = render_report_artifacts(doc, out)
        except TrustNetError:
            assert not any(Path(scratch).iterdir())
            return
        assert len(written) >= 4
