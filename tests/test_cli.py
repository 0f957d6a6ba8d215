"""CLI: pipeline wiring, reproducibility headers, exit-code contract."""

import gc
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import snapshot_document
import trustnet.analytics.report
import trustnet.cli
import trustnet.growth
from trustnet.analytics.report import analyze_snapshot
from trustnet.cli import main
from trustnet.growth import preset_names
from trustnet.registry import RegistryService
from trustnet.snapshot import StatsSnapshot


@pytest.fixture()
def snapshot_path(tmp_path):
    path = tmp_path / "snapshot.json"
    code = main(
        [
            "generate",
            "--preset",
            "paper-2026",
            "--seed",
            "7",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def scenario_doc() -> dict:
    return {
        "agent_count": 30,
        "arrival_schedule": {"kind": "fixed", "value": 10.0},
        "loss_rate": 0.0,
        "behavior": {"self_trust_probability": 0.5},
        "seed": 4,
        "duration": 500.0,
    }


class TestGenerate:
    def test_requires_preset_or_config(self):
        assert main(["generate"]) == 1

    def test_help_lists_every_preset(self, capsys):
        """The --preset help is spelled out in the CLI, which does not import growth."""
        assert main(["generate", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert preset_names()
        for name in preset_names():
            assert name in help_text

    def test_reruns_are_byte_identical(self, tmp_path, snapshot_path):
        again = tmp_path / "again.json"
        assert (
            main(
                [
                    "generate",
                    "--preset",
                    "paper-2026",
                    "--seed",
                    "7",
                    "--out",
                    str(again),
                ]
            )
            == 0
        )
        assert again.read_bytes() == snapshot_path.read_bytes()

    def test_prints_reproducibility_header(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--preset",
                "paper-2026",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        out = capsys.readouterr().out
        assert "resolved configuration" in out
        assert '"seed": 3' in out

    def test_set_override_changes_output(self, tmp_path):
        base = tmp_path / "base.json"
        tweaked = tmp_path / "tweaked.json"
        main(["generate", "--preset", "paper-2026", "--seed", "7", "--out", str(base)])
        code = main(
            [
                "generate",
                "--preset",
                "paper-2026",
                "--seed",
                "7",
                "--set",
                "self_loop_probability=0.0",
                "--out",
                str(tweaked),
            ]
        )
        assert code == 0
        doc = json.loads(tweaked.read_text())
        loops = sum(1 for e in doc["trust_edges"] if e["a"] == e["b"])
        assert loops == 0
        assert base.read_bytes() != tweaked.read_bytes()

    def test_bad_override_is_usage_error(self, tmp_path):
        assert (
            main(
                [
                    "generate",
                    "--preset",
                    "paper-2026",
                    "--set",
                    "self_loop_probability",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == 1
        )

    def test_unknown_parameter_is_input_error(self, tmp_path):
        assert (
            main(
                [
                    "generate",
                    "--preset",
                    "paper-2026",
                    "--set",
                    "charisma=9",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == 2
        )

    def test_unknown_preset_is_input_error(self, tmp_path):
        assert (
            main(
                [
                    "generate",
                    "--preset",
                    "paper-1999",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": "10"},
            {"n": 50, "window": 2.5},
            {"n": 50, "seed": 1.5},
            {"n": 50, "mix": {"triadic": "x"}},
            {"n": 50, "tags_per_tagged": ["a", 1, 1]},
            {"n": 50, "tags_per_tagged": 5},
            {"n": 50, "tag_vocabulary": [["a", "x"]]},
            {"n": 50, "tag_vocabulary": [1]},
        ],
    )
    def test_mistyped_config_is_input_error(self, tmp_path, capsys, doc):
        config = tmp_path / "growth.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        # rejected before the header is printed or anything is written
        assert "resolved configuration" not in capsys.readouterr().out
        assert not out.exists()

    def test_header_echoes_float_fields_as_floats(self, tmp_path, capsys):
        config = tmp_path / "growth.json"
        config.write_text(json.dumps({"n": 50, "stub_mean": 2}))
        out = tmp_path / "x.json"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert '"stub_mean": 2.0,' in capsys.readouterr().out


class TestSimulate:
    def test_writes_snapshot_and_ground_truth(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario_doc()))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        snapshot = StatsSnapshot.from_json(out.read_text())
        assert len(snapshot.nodes) == 30
        events = (tmp_path / "sim.events.jsonl").read_text().splitlines()
        assert all(json.loads(line)["event"] for line in events)
        # config file was not mutated
        assert json.loads(config.read_text()) == scenario_doc()

    def test_reruns_are_byte_identical(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario_doc()))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_option_overrides_the_scenario_seed(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario_doc()))
        seeded = tmp_path / "seeded.json"
        args = ["simulate", "--config", str(config), "--seed"]
        assert main([*args, "5", "--out", str(seeded)]) == 0
        config.write_text(json.dumps({**scenario_doc(), "seed": 5}))
        written = tmp_path / "written.json"
        assert main(["simulate", "--config", str(config), "--out", str(written)]) == 0
        assert seeded.read_bytes() == written.read_bytes()
        capsys.readouterr()
        refused = tmp_path / "refused.json"
        assert main([*args, "-1", "--out", str(refused)]) == 2
        assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
        assert not refused.exists()

    def test_invalid_scenario_is_input_error(self, tmp_path):
        config = tmp_path / "scenario.json"
        for doc in ({"agent_count": 0}, {"agent_count": 5, "loss_rate": "x"}):
            config.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(config)]) == 2


# The scenario file README.md shows.
README_SCENARIO = {
    "agent_count": 50,
    "arrival_schedule": {"kind": "exponential", "mean": 12.0},
    "loss_rate": 0.05,
    "latency": {"kind": "uniform", "low": 20.0, "high": 80.0},
    "behavior": {
        "self_trust_probability": 0.64,
        "target_links": {"kind": "fixed", "value": 2.0},
    },
    "symmetric_nat_fraction": 0.3,
    "seed": 11,
    "duration": 900.0,
}


class TestHeaderReproducesRun:
    """The `config` a run prints, given back as --config, repeats the run byte for byte."""

    @staticmethod
    def rerun_printed_config(tmp_path, capsys, command: str, out) -> Path:
        header = capsys.readouterr().out.split("resolved configuration:\n", 1)[1]
        config = tmp_path / "printed.json"
        config.write_text(json.dumps(json.JSONDecoder().raw_decode(header)[0]["config"]))
        again = tmp_path / f"again-{out.name}"
        assert main([command, "--config", str(config), "--out", str(again)]) == 0
        return again

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "first.json"
        args = ["generate", "--preset", "paper-2026", "--set", "n=300", "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        again = self.rerun_printed_config(tmp_path, capsys, "generate", out)
        assert again.read_bytes() == out.read_bytes()

    def test_simulate(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(README_SCENARIO))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(scenario), "--out", str(out)]) == 0
        again = self.rerun_printed_config(tmp_path, capsys, "simulate", out)
        assert again.read_bytes() == out.read_bytes()
        events = again.with_name(again.stem + ".events.jsonl")
        assert events.read_bytes() == (tmp_path / "sim.events.jsonl").read_bytes()


class TestReplaceableEntryPoints:
    """The benchmark harness wraps or replaces these `trustnet.cli` attributes."""

    def test_simulate_runs_the_module_run_scenario(self, tmp_path, monkeypatch):
        results = []
        run_scenario = trustnet.cli.run_scenario

        def counted(config):
            results.append(run_scenario(config))
            return results[-1]

        monkeypatch.setattr(trustnet.cli, "run_scenario", counted)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(dict(scenario_doc(), agent_count=20)))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert len(results) == 1
        assert out.read_text(encoding="utf-8") == results[0].snapshot.to_json()
        assert len(results[0].snapshot.nodes) == 20

    def test_every_traced_cli_name_is_a_module_attribute(self):
        """The perfbench tracer looks each name up where it wraps it."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert ("trustnet.cli", "run_scenario") in tracing.FUNCTIONS
        for module, name in tracing.FUNCTIONS:
            assert callable(getattr(importlib.import_module(module), name, None)), (
                f"{module}.{name}"
            )
        for module, owner, name in tracing.METHODS:
            cls = getattr(importlib.import_module(module), owner)
            assert name in vars(cls), f"{module}.{owner}.{name}"


@pytest.mark.parametrize(
    "module, name, args, kwargs",
    [
        ("sim", "run_scenario", ("config",), {}),
        ("analytics", "analyze_snapshot", ("snapshot",), {"k_min": 3}),
        ("analytics", "consistency_audit", ("snapshot", "report"), {}),
        ("analytics", "render_table", ("report",), {}),
        ("charts", "render_report_artifacts", ("metrics", "out"), {}),
    ],
)
def test_cli_loader_forwards_one_call(monkeypatch, module, name, args, kwargs):
    """Each loader calls its module's binding of the name once, at call time."""
    calls, result = [], object()

    def target(*args, **kwargs):
        calls.append((args, kwargs))
        return result

    monkeypatch.setattr(importlib.import_module(f"trustnet.{module}"), name, target)
    assert getattr(trustnet.cli, name)(*args, **kwargs) is result
    assert calls == [(args, kwargs)]


class TestCollector:
    """main() pauses the cyclic collector for a batch command and restores it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        """Start each case with the collector on, then off; restore it after."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["generate", "--preset", "paper-2026", "--set", "n=40", "--out", "{tmp}/s.json"], 0),
            (["generate", "--preset", "paper-2026", "--set", "n=x"], 2),
            (["generate"], 1),
            (["analyze", "{tmp}/empty.json"], 2),
        ],
        ids=["success", "bad-override", "usage", "schema"],
    )
    def test_main_restores_the_collector_state(
        self, tmp_path, monkeypatch, collecting, args, code
    ):
        during = []
        generate = trustnet.growth.generate

        def recorded(config):
            during.append(gc.isenabled())
            return generate(config)

        monkeypatch.setattr(trustnet.growth, "generate", recorded)
        (tmp_path / "empty.json").write_text("{}")  # a snapshot without its fields
        assert main([arg.format(tmp=tmp_path) for arg in args]) == code
        assert gc.isenabled() is collecting
        assert during == ([False] if code == 0 else [])

    def test_serve_registry_serves_with_the_collector_on(self, monkeypatch, collecting):
        from trustnet.server import RegistryServer

        during = []

        def start(server):
            during.append(gc.isenabled())
            raise KeyboardInterrupt

        monkeypatch.setattr(RegistryServer, "start", start)
        assert main(["serve-registry", "--bind", "127.0.0.1:0"]) == 1
        assert during == [True]
        assert gc.isenabled() is collecting


class TestAnalyzeAndReport:
    def test_analyze_renders_summary_rows(self, snapshot_path, capsys):
        assert main(["analyze", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        for row in (
            "Giant component",
            "Avg. clustering coefficient",
            "Graph density (non-self)",
            "Mean degree (API)",
        ):
            assert row in out

    def test_full_pipeline_to_charts(self, tmp_path, snapshot_path):
        metrics = tmp_path / "metrics.json"
        charts = tmp_path / "charts"
        assert (
            main(["analyze", str(snapshot_path), "--out", str(metrics)]) == 0
        )
        assert main(["report", str(metrics), "--charts", str(charts)]) == 0
        names = sorted(p.name for p in charts.iterdir())
        assert "degree_histogram.svg" in names
        assert "degree_loglog.svg" in names
        assert "degree_histogram_api.csv" in names

    def test_audit_flag_reports_clean_generated_snapshot(
        self, snapshot_path, capsys
    ):
        assert main(["analyze", str(snapshot_path), "--audit"]) == 0
        assert "audit: no findings" in capsys.readouterr().out

    def test_audit_flag_prints_each_finding(self, snapshot_path, capsys):
        document = json.loads(snapshot_path.read_text())
        entries = len(document["trust_edges"])
        document["summary_trust_links"] = entries + 3
        snapshot_path.write_text(json.dumps(document))
        assert main(["analyze", str(snapshot_path), "--audit"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("audit:")] == [
            f"audit: summary-vs-list: expected {entries}, actual {entries + 3}"
            " (delta +3)"
        ]

    def test_audit_reuses_the_report(self, snapshot_path, monkeypatch):
        calls = []

        def counted(snapshot, **kwargs):
            calls.append(snapshot)
            return analyze_snapshot(snapshot, **kwargs)

        monkeypatch.setattr(trustnet.cli, "analyze_snapshot", counted)
        monkeypatch.setattr(trustnet.analytics.report, "analyze_snapshot", counted)
        assert main(["analyze", str(snapshot_path), "--audit"]) == 0
        assert len(calls) == 1

    def test_missing_snapshot_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2

    def test_schema_violation_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": []}))
        assert main(["analyze", str(bad)]) == 2

    def test_report_missing_metrics_is_input_error(self, tmp_path):
        assert main(["report", str(tmp_path / "missing.json")]) == 2


class TestSweep:
    def test_one_row_per_value_seed_pair(self, tmp_path):
        config = tmp_path / "growth.json"
        config.write_text(json.dumps({"n": 40, "seed": 0}))
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "self_loop_probability",
                "0.0,1.0",
                "--config",
                str(config),
                "--seeds",
                "0,1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("value,seed,")
        assert len(lines) == 1 + 2 * 2
        # self-loop probability must steer the self-loop column
        rows = [line.split(",") for line in lines[1:]]
        loops_off = [int(r[4]) for r in rows if r[0] == "0.0"]
        loops_on = [int(r[4]) for r in rows if r[0] == "1.0"]
        assert all(v == 0 for v in loops_off)
        assert all(v == 40 for v in loops_on)
        assert lines[0] == (
            "value,seed,node_count,edges_nonself,self_loops,"
            "mean_degree_nonself,giant_fraction,avg_clustering,gamma"
        )

    def test_range_syntax_expands_inclusively(self, tmp_path):
        config = tmp_path / "growth.json"
        config.write_text(json.dumps({"n": 30, "seed": 0}))
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "self_loop_probability",
                "0.0:1.0:0.5",
                "--config",
                str(config),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.5", "1.0"]

    def test_unknown_parameter_is_input_error(self, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "charisma",
                    "0.0,1.0",
                    "--out",
                    str(tmp_path / "s.csv"),
                ]
            )
            == 2
        )


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_bind_is_usage_error(self):
        for bind in ("nonsense", "127.0.0.1:70000", "127.0.0.1:\u00b2"):
            assert main(["serve-registry", "--bind", bind]) == 1, bind

    @pytest.mark.parametrize("k_min", ["0", "-3"])
    def test_k_min_below_one_is_usage_error(self, snapshot_path, capsys, k_min):
        assert main(["analyze", str(snapshot_path), "--k-min", k_min]) == 1
        assert "--k-min" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["generate", "--preset", "paper-2026", "--set", "window=2.5"],
            ["generate", "--preset", "paper-2026", "--set", "mix.triadic=x"],
            ["generate", "--preset", "paper-2026", "--set", "n=abc"],
            ["generate", "--preset", "paper-2026", "--set", "session_mean=inf"],
            ["generate", "--preset", "paper-2026", "--set", "stub_mean=nan"],
            ["sweep", "window", "2.5", "--seeds", "0"],
            ["sweep", "session_mean", "inf", "--seeds", "0"],
            ["sweep", "window", "abc", "--seeds", "0"],
            ["sweep", "window", "3", "--seeds", "x"],
            ["sweep", "window", "1:x:1", "--seeds", "0"],
            ["generate", "--preset", "paper-2026", "--seed", "-5"],
        ],
    )
    def test_non_number_override_is_input_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, named",
        [
            (["n", "700:600:10"], "empty value list"),
            (["n", ","], "empty value list"),
            (["n", "626", "--seeds", ","], "empty seed list"),
        ],
        ids=["descending-range", "empty-values", "empty-seeds"],
    )
    def test_empty_sweep_list_is_usage_error(self, tmp_path, capsys, args, named):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, code, message",
        [
            ("1:2", 1, "Error: range must be start:stop:step"),
            ("0:inf:1", 2, "error: range bounds must be finite, got '0:inf:1'"),
            ("1:2:0", 1, "Error: range step must be positive"),
        ],
        ids=["two-parts", "infinite-bound", "zero-step"],
    )
    def test_bad_sweep_range_is_refused(self, tmp_path, capsys, values, code, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "n", values, "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not out.exists()

    @pytest.mark.parametrize("base", ["0", "1"])
    def test_base_node_id_below_two_is_usage_error(self, monkeypatch, capsys, base):
        """Node 0 is every unregistered client's source, node 1 the registry's."""
        from trustnet.server import RegistryServer

        def start(server):
            raise AssertionError("the daemon started")

        monkeypatch.setattr(RegistryServer, "start", start)
        args = ["serve-registry", "--bind", "127.0.0.1:0", "--base-node-id", base]
        assert main(args) == 1
        assert "--base-node-id" in capsys.readouterr().err

    def test_base_node_id_beyond_32_bits_is_usage_error(self, monkeypatch, capsys):
        from trustnet.server import RegistryServer

        def start(server):
            raise AssertionError("the daemon started")

        monkeypatch.setattr(RegistryServer, "start", start)
        args = ["serve-registry", "--bind", "127.0.0.1:0", "--base-node-id", str(2**32)]
        assert main(args) == 1
        assert "--base-node-id" in capsys.readouterr().err

    def test_malformed_event_log_is_input_error(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        log_path.write_text('{"event":"heartbeat","address":5,"t":0}\n')
        args = ["serve-registry", "--bind", "127.0.0.1:0", "--log", str(log_path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_log_from_another_base_node_id_is_input_error(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        registry = RegistryService(base_node_id=2, event_log=log_path)
        registry.register(bytes(32))
        registry.close()
        args = ["serve-registry", "--bind", "127.0.0.1:0", "--log", str(log_path)]
        assert main([*args, "--base-node-id", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "0:0000.0000.0005" in err and "0:0000.0000.0002" in err
        assert "line 1" in err

    def test_malformed_json_config_is_input_error(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["simulate", "--config", str(config)]) == 2


def _huge_number_snapshot() -> bytes:
    doc = snapshot_document(StatsSnapshot(0.0, 0, [], [], [], 0))
    doc["generated_at"] = 10**400
    return json.dumps(doc).encode("utf-8")


def _metrics_document(**fields) -> bytes:
    doc = {"degree_histogram_api": {"0": 1}, "degree_histogram_nonself": {"0": 1}}
    return json.dumps({**doc, **fields}).encode("utf-8")


MALFORMED_METRICS = {
    "histogram-list": (
        _metrics_document(degree_histogram_api=[1]),
        "degree_histogram_api must be an object",
    ),
    "count-1e400": (
        _metrics_document(degree_histogram_api={"3": 1.5}).replace(b"1.5", b"1e400"),
        "degree_histogram_api[3] must be a finite number",
    ),
    "count-10**308": (
        _metrics_document(degree_histogram_api={"1": 10**308, "2": 1}),
        "degree_histogram_api[1] may not exceed 2**53",
    ),
    "count-1.5": (
        _metrics_document(degree_histogram_api={"3": 1.5}),
        "degree_histogram_api[3] must be an integer",
    ),
    "key-negative": (
        _metrics_document(degree_histogram_nonself={"-5": 1}),
        "degree_histogram_nonself key '-5'",
    ),
    "key-leading-zero": (
        _metrics_document(degree_histogram_api={"7": 3, "007": 5}),
        "degree_histogram_api key '007'",
    ),
    "gamma-text": (
        _metrics_document(powerlaw_fit={"gamma": "x", "k_min": 10}),
        "powerlaw_fit.gamma must be a finite number",
    ),
    "gamma-negative": (
        _metrics_document(
            degree_histogram_nonself={"10": 5, "1000": 1},
            powerlaw_fit={"gamma": -1000.0, "k_min": 10},
        ),
        "powerlaw_fit.gamma must be positive",
    ),
    "dunbar-without-counts": (
        _metrics_document(dunbar_bins={"boundaries": [0, 6]}),
        "missing required field 'dunbar_bins.counts'",
    ),
    "delta-histogram-number": (
        _metrics_document(address_delta_histogram={"histogram": 5}),
        "address_delta_histogram.histogram must be an object",
    ),
}

MALFORMED_INPUTS = {
    "invalid-utf8": b'{"n": "\xff"}',
    "nested-30000-deep": b"[" * 30_000 + b"]" * 30_000,
    "not-json": b"{not json",
}
INPUT_COMMANDS = {
    "generate": ["generate", "--config", "{input}", "--out", "{out}"],
    "sweep": ["sweep", "window", "3", "--config", "{input}", "--out", "{out}"],
    "simulate": ["simulate", "--config", "{input}", "--out", "{out}"],
    "analyze": ["analyze", "{input}", "--out", "{out}"],
    "report": ["report", "{input}", "--charts", "{out}"],
}
SERVE_WITH_LOG = ["serve-registry", "--bind", "127.0.0.1:0", "--log", "{input}"]
MALFORMED_INPUT_CASES = [
    pytest.param(INPUT_COMMANDS[command], body, "is not valid JSON", id=f"{command}-{kind}")
    for command in INPUT_COMMANDS
    for kind, body in MALFORMED_INPUTS.items()
] + [
    pytest.param(
        INPUT_COMMANDS["analyze"],
        _huge_number_snapshot(),
        "generated_at must be a finite number",
        id="analyze-number-1e400",
    ),
    pytest.param(
        SERVE_WITH_LOG,
        b'{"event":"heartbeat","address":"0:0000.0000.0002","t":1' + b"0" * 400 + b"}\n",
        "t must be a finite number",
        id="serve-registry-log-number-1e400",
    ),
] + [
    pytest.param(INPUT_COMMANDS["report"], body, message, id=f"report-{kind}")
    for kind, (body, message) in MALFORMED_METRICS.items()
]


@pytest.mark.parametrize("args, body, message", MALFORMED_INPUT_CASES)
def test_malformed_input_document_exits_2(tmp_path, capsys, args, body, message):
    """Each input document, malformed, exits 2 with one error line."""
    document, out = tmp_path / "input.json", tmp_path / "out"
    document.write_bytes(body)
    argv = [arg.format(input=document, out=out) for arg in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args", [*INPUT_COMMANDS.values(), SERVE_WITH_LOG], ids=[*INPUT_COMMANDS, "serve-registry"]
)
def test_directory_input_exits_2(tmp_path, capsys, args):
    """An input path that names a directory exits 2 with one error line."""
    out = tmp_path / "out"
    assert main([arg.format(input=tmp_path, out=out) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_serve_registry_stops_on_sigint_when_started_with_it_ignored():
    """A shell's `cmd &` starts the daemon with SIGINT ignored; SIGINT still stops it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "trustnet.cli", "serve-registry", "--bind", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        for line in proc.stdout:
            if "listening" in line:
                break
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
