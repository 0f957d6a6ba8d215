"""Command-line entry point: registry server, simulator, generator, analytics.

Every subcommand prints its fully-resolved configuration before doing any
work, so a run can be reproduced from its own output. Exit codes: 0 success,
1 usage error, 2 input or schema error.
Randomized subcommands take their seed from the resolved configuration and
print it; no seed is ever derived from the clock. No subcommand mutates its
input files.

The default output directory is the current directory, overridable with the
TRUSTNET_DATA_DIR environment variable.

Each command imports the subsystems it runs, in its body, so a call pays for
no other command's imports:

    generate, sweep      growth (sweep also analytics and charts)
    analyze              snapshot and analytics
    report               charts
    simulate             the simulator, and with it cryptography
    serve-registry       the registry and server

Only `simulate` loads cryptography: the registry reads no more of a handshake
frame than its overlay header and type byte. The work functions
`analyze_snapshot`, `consistency_audit`, `render_table`,
`render_report_artifacts` and `run_scenario` stay module attributes that each
command looks up when it runs, so a caller can wrap or replace them. One
factory, _loader, makes each of them: on every call it imports the module
that defines the function and forwards to that module's binding of the name.

`main` pauses the cyclic garbage collector for the call and restores its
earlier state on return: a batch command's snapshot, trace and report data
hold no reference cycles, so each collection would free nothing and cost
tens of milliseconds. `serve-registry`, the one long-lived command, turns
the collector back on before it serves.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

import click

from .errors import ConfigInvalidError, TrustNetError

DATA_DIR_ENV = "TRUSTNET_DATA_DIR"


def _data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "."))


def _print_header(subcommand: str, resolved: dict) -> None:
    click.echo(f"[trustnet {subcommand}] resolved configuration:")
    click.echo(json.dumps(resolved, indent=2, sort_keys=True))


def _loader(module: str, name: str):
    """A function that imports trustnet.<module> when called and forwards to its
    binding of name. The analytics package's own binding is not
    analytics.report's, so a caller that wraps both names sees one call."""

    def load(*args, **kwargs):
        return getattr(importlib.import_module(f"trustnet.{module}"), name)(*args, **kwargs)

    load.__name__ = load.__qualname__ = name
    return load


@click.group()
@click.version_option(package_name="trustnet")
def cli() -> None:
    """Trust-gated overlay network: registry, simulator, generator, analytics."""


# --- serve-registry ---


@cli.command("serve-registry")
@click.option("--bind", default="127.0.0.1:4444", show_default=True,
              help="host:port for the packet service and stats endpoint.")
@click.option("--base-node-id", default=2, show_default=True,
              type=click.IntRange(min=2, max=0xFFFFFFFF),
              help="First node id to allocate; node 0 is the source address of "
                   "unregistered clients and node 1 the registry's.")
@click.option("--log", "log_path", default=None, type=click.Path(),
              help="Append-only event log; each mutation is flushed, not fsynced.")
def serve_registry(bind: str, base_node_id: int, log_path: str) -> None:
    """Run the registry until interrupted."""
    import signal

    from .registry import RegistryService
    from .server import STATS_PATH, RegistryServer

    host, _, port_text = bind.rpartition(":")
    # isdigit() alone accepts digits such as "²" that int() refuses
    if not (host and port_text.isascii() and port_text.isdigit() and int(port_text) <= 65535):
        raise click.UsageError(f"--bind must be host:port with port 0-65535, got {bind!r}")
    resolved = {
        "bind": bind,
        "base_node_id": base_node_id,
        "event_log": log_path,
        "stats_path": STATS_PATH,
    }
    _print_header("serve-registry", resolved)
    registry = (
        RegistryService.restore(log_path, base_node_id=base_node_id)
        if log_path is not None
        else RegistryService(base_node_id=base_node_id)
    )
    server = RegistryServer(registry=registry, host=host, port=int(port_text))
    gc.enable()  # main() pauses it for batch commands; a daemon's cycles need collecting
    # A shell's `cmd &` starts the daemon with SIGINT ignored; restore the
    # handler that raises KeyboardInterrupt so SIGINT stops it either way.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    server.start()
    try:
        # Inside the try: a SIGINT sent on reading this line is an ordinary stop.
        click.echo(f"registry listening on {server.endpoint[0]}:{server.port}")
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        click.echo("interrupted; shutting down")
    finally:
        server.stop()


# --- simulate ---


run_scenario = _loader("sim", "run_scenario")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="Scenario document (JSON).")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Snapshot output path.")
@click.option("--events", "events_path", default=None, type=click.Path(),
              help="Ground-truth event log output path.")
def simulate(config_path: str, seed: int, out_path: str, events_path: str) -> None:
    """Run one scenario; write the snapshot and its ground-truth event log."""
    from .sim import SimConfig

    config = SimConfig.read(config_path)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
        config.validate()
    out = Path(out_path) if out_path else _data_dir() / "scenario_snapshot.json"
    events = (
        Path(events_path)
        if events_path
        else out.with_name(out.stem + ".events.jsonl")
    )
    resolved = {
        "config": config.to_dict(),
        "out": str(out),
        "events": str(events),
    }
    _print_header("simulate", resolved)
    result = run_scenario(config)
    result.snapshot.write(out)
    result.write_events(events)
    click.echo(
        f"wrote {out} ({len(result.snapshot.nodes)} nodes, "
        f"{len(result.snapshot.trust_edges)} trust records) and {events}"
    )


# --- generate ---


@cli.command()
# Spelled out, not read from growth.preset_names(), so that importing the CLI
# does not import growth; a test checks that the list is complete.
@click.option("--preset", "preset_name", default=None, help="Named preset (paper-2026).")
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="Growth configuration document (JSON).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--set", "overrides", multiple=True, metavar="FIELD=VALUE",
              help="Dotted field override, e.g. mix.triadic=0.5 (repeatable).")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Snapshot output path.")
@click.option("--trace", "trace_path", default=None, type=click.Path(),
              help="Also write the growth event trace.")
def generate(preset_name, config_path, seed, overrides, out_path, trace_path):
    """Generate one synthetic network snapshot."""
    from . import growth

    if preset_name is None and config_path is None:
        raise click.UsageError("provide --preset or --config")
    if config_path is not None:
        config = growth.GrowthConfig.read(config_path)
    else:
        config = growth.preset(preset_name)
    for override in overrides:
        field, _, value = override.partition("=")
        if not _:
            raise click.UsageError(f"--set needs FIELD=VALUE, got {override!r}")
        config = growth.set_parameter(config, field, value)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
        config.validate()
    out = Path(out_path) if out_path else _data_dir() / "generated_snapshot.json"
    resolved = {"config": config.to_dict(), "out": str(out)}
    if trace_path:
        resolved["trace"] = str(trace_path)
    _print_header("generate", resolved)
    snapshot, trace = growth.generate(config)
    snapshot.write(out)
    if trace_path:
        trace.write(trace_path)
    click.echo(
        f"wrote {out} ({len(snapshot.nodes)} nodes, "
        f"{len(snapshot.trust_edges)} trust records)"
    )


# --- analyze ---

analyze_snapshot = _loader("analytics", "analyze_snapshot")
consistency_audit = _loader("analytics", "consistency_audit")
render_table = _loader("analytics", "render_table")


@cli.command()
@click.argument("snapshot_path", type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Write the metrics document (JSON) here.")
@click.option("--k-min", default=10, show_default=True, type=click.IntRange(min=1),
              help="Tail threshold for the heavy-tail fit (at least 1).")
@click.option("--audit/--no-audit", default=False,
              help="Also print structural audit findings.")
def analyze(snapshot_path: str, out_path: str, k_min: int, audit: bool) -> None:
    """Compute the full metrics report for one snapshot."""
    from .snapshot import StatsSnapshot

    resolved = {"snapshot": snapshot_path, "out": out_path, "k_min": k_min}
    _print_header("analyze", resolved)
    snapshot = StatsSnapshot.read(snapshot_path)
    report = analyze_snapshot(snapshot, k_min=k_min)
    if out_path:
        Path(out_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    click.echo(render_table(report))
    if audit:
        findings = consistency_audit(snapshot, report)
        if findings:
            for finding in findings:
                click.echo(f"audit: {finding}")
        else:
            click.echo("audit: no findings")
    if out_path:
        click.echo(f"wrote {out_path}")


# --- report ---


render_report_artifacts = _loader("charts", "render_report_artifacts")


@cli.command()
@click.argument("metrics_path", type=click.Path())
@click.option("--charts", "charts_dir", default=None, type=click.Path(),
              help="Output directory for charts and histogram exports.")
def report(metrics_path: str, charts_dir: str) -> None:
    """Render charts and histogram exports from a metrics document."""
    from .charts import load_metrics

    out_dir = Path(charts_dir) if charts_dir else _data_dir() / "charts"
    resolved = {"metrics": metrics_path, "charts": str(out_dir)}
    _print_header("report", resolved)
    metrics = load_metrics(metrics_path)
    written = render_report_artifacts(metrics, out_dir)
    for path in written:
        click.echo(f"wrote {path}")


# --- sweep ---


SWEEP_COLUMNS = (
    "value",
    "seed",
    "node_count",
    "edges_nonself",
    "self_loops",
    "mean_degree_nonself",
    "giant_fraction",
    "avg_clustering",
    "gamma",
)


def _parse_values(text: str) -> list[float]:
    from .growth import parse_scalar

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError("range must be start:stop:step")
        start, stop, step = (parse_scalar("range bound", "float", p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigInvalidError(f"range bounds must be finite, got {text!r}")
        if step <= 0:
            raise click.UsageError("range step must be positive")
        count = int((stop - start) / step + 1e-9) + 1
        return [round(start + i * step, 10) for i in range(count)]
    return [parse_scalar("value", "float", p) for p in text.split(",") if p != ""]


def _parse_seeds(text: str) -> list[int]:
    from .growth import parse_scalar

    return [parse_scalar("seed", "int", p) for p in text.split(",") if p != ""]


@cli.command()
@click.argument("parameter")
@click.argument("values")
@click.option("--preset", "preset_name", default="paper-2026", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--seeds", default="0", show_default=True,
              help="Comma-separated seed list.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Results CSV path.")
def sweep(parameter, values, preset_name, config_path, seeds, out_path):
    """Sweep one growth parameter; one CSV row per (value, seed)."""
    from . import growth
    from .charts import sweep_csv

    if config_path is not None:
        base = growth.GrowthConfig.read(config_path)
    else:
        base = growth.preset(preset_name)
    value_list = _parse_values(values)
    if not value_list:
        raise click.UsageError(f"VALUES {values!r} gives an empty value list")
    seed_list = _parse_seeds(seeds)
    if not seed_list:
        raise click.UsageError(f"--seeds {seeds!r} gives an empty seed list")
    out = Path(out_path) if out_path else _data_dir() / "sweep.csv"
    resolved = {
        "base_config": base.to_dict(),
        "parameter": parameter,
        "values": value_list,
        "seeds": seed_list,
        "out": str(out),
    }
    _print_header("sweep", resolved)
    rows = []
    for value, seed, metrics in growth.sweep(base, parameter, value_list, seed_list):
        fit = metrics.powerlaw_fit
        cells = (
            value,
            seed,
            metrics.node_count,
            metrics.edge_count_nonself,
            metrics.self_loop_count,
            f"{metrics.mean_degree_nonself:.6f}",
            f"{metrics.giant_fraction:.6f}",
            f"{metrics.avg_clustering_all:.6f}",
            f"{fit.gamma:.6f}" if fit is not None else "",
        )
        rows.append(dict(zip(SWEEP_COLUMNS, cells)))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(sweep_csv(rows, SWEEP_COLUMNS), encoding="utf-8")
    click.echo(f"wrote {out} ({len(rows)} rows)")


# --- entry point ---


def main(argv=None) -> int:
    """Run the CLI, mapping exception classes onto the exit-code contract.

    The cyclic garbage collector is paused for the call (see the module
    docstring) and left as it was found, however the call ends.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (TrustNetError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    finally:
        if collecting:
            gc.enable()
        else:
            gc.disable()


if __name__ == "__main__":
    sys.exit(main())
