"""Import boundaries: each CLI command loads only the subsystems it runs.

Every case runs in a fresh interpreter, because the test process itself has
long since imported cryptography. numpy and scipy stay watched: no command
may load them. Only `simulate` loads cryptography; the registry daemon relays
handshake frames without loading it or the channel. No command loads
`_hashlib`, and no module in `src/` imports `hashlib`. `import trustnet.cli`
loads none of growth, analytics and charts, and each pipeline command loads
only its own one of them. Every module but a package's re-exporting
`__init__.py` uses each name it imports, no two config errors in `src/`
are raised with the same message, and no handler in `src/` swallows an
exception silently unless it is listed with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# `_hashlib` links the system libcrypto, a second OpenSSL beside the one built
# into cryptography.
HEAVY = ("scipy", "numpy", "cryptography", "_hashlib")
PIPELINE = ("trustnet.growth", "trustnet.analytics", "trustnet.charts")
WATCHED = HEAVY + PIPELINE + (
    "trustnet.sim", "trustnet.server", "trustnet.registry", "trustnet.channel"
)

PUBLIC_NAMES = [
    "AgentIdentity", "Beacon", "BehaviorPolicy", "Distribution", "GrowthConfig",
    "HandshakeInitiator", "HandshakeResponder", "PacketHeader", "RegistryService",
    "ScenarioResult", "SecureSession", "SimConfig", "StatsSnapshot", "TrustRecord",
    "VirtualAddress", "decode_packet", "encode_packet", "generate", "preset",
    "preset_names", "relay_via_beacon", "run_handshake", "run_scenario",
    "transport_deliver", "__version__",
]


def run_fresh(code: str, cwd: Path) -> dict:
    """Run `code` in a fresh interpreter; it sets `result`, returned with the watched modules."""
    script = (
        f"import json, sys\nresult = None\n{code}\n"
        f"print(json.dumps({{'result': result, "
        f"'loaded': [m for m in {WATCHED!r} if m in sys.modules]}}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(args: list[str], cwd: Path) -> list[str]:
    """Run `trustnet.cli.main(args)` in a fresh interpreter; the watched modules it loaded."""
    done = run_fresh(f"from trustnet.cli import main\nresult = main({args!r})", cwd)
    assert done["result"] == 0
    return done["loaded"]


# A 40-agent lossy scenario: too small a graph to fit a tail.
SCENARIO = {
    "agent_count": 40,
    "arrival_schedule": {"kind": "fixed", "value": 10.0},
    "loss_rate": 0.05,
    "seed": 11,
    "duration": 600.0,
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict:
    """The watched modules each command loaded.

    simulate on SCENARIO, generate -> analyze --out -> report at n = 626, the
    paper's census size, analyze --audit on the simulated snapshot, and a
    one-point sweep at n = 626.
    """
    work = tmp_path_factory.mktemp("commands")
    (work / "scenario.json").write_text(json.dumps(SCENARIO))
    loaded = {
        "simulate": run_command(["simulate", "--config", "scenario.json", "--out",
                                 "sim.json"], work),
        "generate": run_command(["generate", "--preset", "paper-2026", "--set", "n=626",
                                 "--seed", "7", "--out", "snapshot.json"], work),
        "analyze": run_command(["analyze", "snapshot.json", "--out", "metrics.json"],
                               work),
        "report": run_command(["report", "metrics.json", "--charts", "charts"], work),
        "analyze-audit": run_command(["analyze", "sim.json", "--audit"], work),
        "sweep": run_command(["sweep", "n", "626", "--seeds", "7", "--out", "sweep.csv"],
                             work),
    }
    # analyze and sweep fit a tail; the simulated snapshot has none to fit
    assert json.loads((work / "metrics.json").read_text())["powerlaw_fit"] is not None
    assert (work / "sweep.csv").read_text().splitlines()[1].split(",")[-1] != ""
    return loaded


def test_importing_the_cli_loads_no_subsystem_it_may_not_run(tmp_path):
    assert run_fresh("import trustnet.cli", tmp_path)["loaded"] == []


def test_importing_growth_loads_no_cryptography(tmp_path):
    assert run_fresh("import trustnet.growth", tmp_path)["loaded"] == ["trustnet.growth"]


@pytest.mark.parametrize(
    "command", ["generate", "analyze", "report", "analyze-audit", "sweep"]
)
def test_command_loads_no_heavy_dependency(loaded, command):
    assert not set(loaded[command]) & set(HEAVY)


def test_simulate_loads_cryptography_and_not_hashlib(loaded):
    assert "cryptography" in loaded["simulate"]
    assert "_hashlib" not in loaded["simulate"]


@pytest.mark.parametrize(
    "command, runs",
    [
        ("generate", "trustnet.growth"),
        ("analyze", "trustnet.analytics"),
        ("analyze-audit", "trustnet.analytics"),
        ("report", "trustnet.charts"),
    ],
)
def test_pipeline_command_loads_only_its_subsystem(loaded, command, runs):
    assert [m for m in loaded[command] if m in PIPELINE] == [runs]


# Two agents with opaque keys register, then pass a REQUEST/ACCEPT/CONFIRM
# triple of opaque bodies through the relay, which records their trust pair.
REGISTRY_SESSION = """
from trustnet.overlay import (
    FRAME_ACCEPT, FRAME_CONFIRM, FRAME_REQUEST, PORT_TRUST_HANDSHAKE, PacketHeader,
    encode_packet,
)
from trustnet.server import RegistryClient, RegistryServer, fetch_stats

with RegistryServer() as server:
    a, b = RegistryClient(server.endpoint), RegistryClient(server.endpoint)
    a.register(bytes(32))
    b.register(bytes([1]) * 32)
    relayed = []
    for sender, receiver, kind in (
        (a, b, FRAME_REQUEST), (b, a, FRAME_ACCEPT), (a, b, FRAME_CONFIRM)
    ):
        header = PacketHeader(src=sender.address, dst=receiver.address,
                              src_port=PORT_TRUST_HANDSHAKE,
                              dst_port=PORT_TRUST_HANDSHAKE)
        datagram = encode_packet(header, bytes([kind]) + bytes(64))
        sender.send_datagram(datagram)
        relayed.append(receiver.recv_datagram() == datagram)
    a.close()
    b.close()
    result = [relayed, len(fetch_stats(server.endpoint).trust_edges)]
"""


def test_registry_daemon_loads_no_cryptography(tmp_path):
    done = run_fresh(REGISTRY_SESSION, tmp_path)
    assert done["result"] == [[True, True, True], 1]
    assert not set(done["loaded"]) & {"cryptography", "_hashlib", "trustnet.channel"}


def test_star_import_resolves_every_public_name(tmp_path):
    done = run_fresh(
        "from trustnet import *\nimport trustnet\n"
        "result = [trustnet.__all__, [n for n in trustnet.__all__ if n not in globals()]]",
        tmp_path,
    )
    names, unresolved = done["result"]
    assert names == PUBLIC_NAMES
    assert unresolved == []


def test_unknown_public_name_raises_attribute_error(tmp_path):
    done = run_fresh(
        "import trustnet\n"
        "try:\n    trustnet.no_such_name\nexcept AttributeError as exc:\n    result = str(exc)",
        tmp_path,
    )
    assert done["result"] == "module 'trustnet' has no attribute 'no_such_name'"


def imported_names(tree: ast.Module):
    """(line, name) of each name an import statement binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize(
    "module",
    sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py") if p.name != "__init__.py"),
)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(line, name) for line, name in imported_names(tree) if name not in used] == []


def test_no_module_imports_hashlib():
    """`hashlib` loads `_hashlib`, which maps the system libcrypto beside the
    OpenSSL built into cryptography: 3.7 MB more RSS in every `simulate`
    process. Hash with `trustnet.channel.sha256`, which gives the same bytes."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import)
            and any(alias.name.partition(".")[0] == "hashlib" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "hashlib")
    ]
    assert found == []


def config_error_messages(tree: ast.Module):
    """(line, source of the message) of each `raise ConfigInvalidError(message)`."""
    for node in ast.walk(tree):
        call = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "ConfigInvalidError" and call.args):
            yield node.lineno, ast.unparse(call.args[0])


def test_no_config_error_message_is_raised_twice():
    """A rule written out twice can drift apart; state it once as a growth.Rule."""
    raised: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, message in config_error_messages(tree):
            raised.setdefault(message, []).append(f"{path.relative_to(SRC)}:{line}")
    assert {message: at for message, at in raised.items() if len(at) > 1} == {}


# Each `except` in src/ whose whole body is `continue`, `pass` or a bare
# `return`, as (module, function, exception, why it may stay silent).
SILENT_HANDLERS = [
    ("trustnet.growth", "parse_scalar", "(TypeError, ValueError, OverflowError)",
     "falls through to the raise after it, which names the field and the value"),
    ("trustnet.server", "_udp_loop", "socket.timeout",
     "a poll tick: the loop wakes to check its stop flag"),
    ("trustnet.server", "_udp_loop", "OSError",
     "the socket is closed; not yet counted among the datagram outcomes"),
    ("trustnet.server", "_tcp_loop", "socket.timeout",
     "a poll tick: the loop wakes to check its stop flag"),
    ("trustnet.server", "_tcp_loop", "OSError",
     "the socket is closed; not yet counted among the stats-read outcomes"),
    ("trustnet.server", "_tcp_loop", "OSError",
     "a client's request line could not be read; not yet counted"),
    ("trustnet.server", "_tcp_loop", "OSError",
     "the stats reply could not be sent; not yet counted"),
]


def silent_handlers(node: ast.AST, function: str = "<module>"):
    """(function, exception) of each handler under node whose whole body is
    `continue`, `pass` or a bare `return`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from silent_handlers(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler) and all(
            isinstance(statement, (ast.Continue, ast.Pass))
            or (isinstance(statement, ast.Return) and statement.value is None)
            for statement in child.body
        ):
            yield function, ast.unparse(child.type) if child.type else "(bare)"
        yield from silent_handlers(child, function)


def test_every_silent_handler_is_listed_with_its_reason():
    """A handler that drops an error without a trace hides a fault; list it
    in SILENT_HANDLERS with its reason, or make it count or raise."""
    found = [
        (".".join(path.relative_to(SRC).with_suffix("").parts), function, exception)
        for path in sorted(SRC.rglob("*.py"))
        for function, exception in silent_handlers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(found) == sorted(entry[:3] for entry in SILENT_HANDLERS)
