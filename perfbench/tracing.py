"""Layer spans recorded from outside the program.

install() replaces each public function a layer's callers use with a timing
wrapper, under the name those callers look it up by, so that
`trustnet.sim.decode_packet` and `trustnet.server.decode_packet` are told
apart. Each span records its id, its parent's id (per thread), its name, and
its start and end. Spans stay in memory and are written once, when the CLI
call returns. A few counters are read at the same boundaries: the event-loop
queue peak, the relay phase table, and the registry server's lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

perf_counter = time.perf_counter

# (module, attribute) pairs: module-level functions, wrapped where called.
FUNCTIONS = [
    ("trustnet.growth", "generate"),
    ("trustnet.cli", "analyze_snapshot"),
    ("trustnet.cli", "consistency_audit"),
    ("trustnet.cli", "render_table"),
    ("trustnet.cli", "render_report_artifacts"),
    ("trustnet.cli", "run_scenario"),
    ("trustnet.analytics.report", "analyze_snapshot"),
    ("trustnet.analytics.report", "build_graph"),
    ("trustnet.analytics.report", "degree_histogram"),
    ("trustnet.analytics.report", "summarize_histogram"),
    ("trustnet.analytics.report", "components"),
    ("trustnet.analytics.report", "clustering"),
    ("trustnet.analytics.report", "random_clustering_baseline"),
    ("trustnet.analytics.report", "fit_heavy_tail"),
    ("trustnet.analytics.report", "tag_stats"),
    ("trustnet.analytics.report", "address_delta_histogram"),
    ("trustnet.analytics.report", "dunbar_bins"),
    ("trustnet.analytics.report", "hub_table"),
    ("trustnet.sim", "encode_packet"),
    ("trustnet.sim", "decode_packet"),
    ("trustnet.registry", "encode_packet"),
    ("trustnet.registry", "decode_packet"),
    ("trustnet.server", "encode_packet"),
    ("trustnet.server", "decode_packet"),
    ("trustnet.channel", "verify_signature"),
    ("trustnet.channel", "exchange"),
    ("trustnet.channel", "generate_exchange_key"),
    ("trustnet.channel", "derive_session"),
]

# (module, class, method) triples: methods and classmethods.
METHODS = [
    ("trustnet.overlay", "VirtualAddress", "from_text"),
    ("trustnet.snapshot", "StatsSnapshot", "to_json"),
    ("trustnet.snapshot", "StatsSnapshot", "from_json"),
    ("trustnet.growth", "TagModel", "draw"),
    ("trustnet.growth", "GrowthTrace", "replay"),
    ("trustnet.growth", "GrowthTrace", "write"),
    ("trustnet.channel", "AgentIdentity", "sign"),
    ("trustnet.channel", "SecureSession", "seal"),
    ("trustnet.channel", "SecureSession", "open"),
    ("trustnet.registry", "RegistryService", "register"),
    ("trustnet.registry", "RegistryService", "heartbeat"),
    ("trustnet.registry", "RegistryService", "resolve"),
    ("trustnet.registry", "RegistryService", "relay_handshake"),
    ("trustnet.registry", "RegistryService", "public_key_of"),
    ("trustnet.registry", "RegistryService", "snapshot"),
    ("trustnet.sim", "EventLoop", "run_until"),
    ("trustnet.sim", "_Scenario", "select_targets"),
    ("trustnet.server", "RegistryServer", "_handle_datagram"),
    ("trustnet.server", "RegistryServer", "_control_op"),
]


class TimingLock:
    """Drop-in for the server's threading.Lock that times waits and holds."""

    def __init__(self, recorder: "Recorder") -> None:
        self._lock = threading.Lock()
        self._recorder = recorder
        self._acquired_at = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = perf_counter()
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._acquired_at = perf_counter()
            self._recorder.lock_waits.append(self._acquired_at - start)
        return got

    def release(self) -> None:
        held = perf_counter() - self._acquired_at
        self._lock.release()
        self._recorder.lock_holds.append((threading.current_thread().name, held))

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = {"sim.scheduled": 0, "sim.queue_peak": 0}
        self.lock_waits: list[float] = []
        self.lock_holds: list[tuple[str, float]] = []
        self.import_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._servers: list = []
        self._results: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced

    def write(self, path: str) -> None:
        counters = dict(self.counters)
        for result in self._results:
            counters["registry.relay_phase_entries"] = len(result.registry._relay_phase)
        for server in self._servers:
            counters["server.relay_phase_entries"] = len(server.registry._relay_phase)
            counters["server.nodes"] = server.registry.node_count
        doc = {
            "import_s": self.import_s,
            "spans": self.spans,
            "counters": counters,
            "lock_waits": self.lock_waits,
            "lock_holds": self.lock_holds,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary listed above; call after importing trustnet.cli."""
    import importlib

    for module_name, attr in FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(f"{module_name}.{attr}", getattr(module, attr)))

    for module_name, class_name, attr in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[attr]
        name = f"{class_name}.{attr}"
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(name, original.__func__)))
        else:
            setattr(cls, attr, recorder.wrap(name, original))

    from trustnet import cli, server, sim

    keep_result = cli.run_scenario

    def run_scenario(config):
        result = keep_result(config)
        recorder._results.append(result)
        return result

    cli.run_scenario = run_scenario

    schedule = sim.EventLoop.schedule
    counters = recorder.counters

    def counted_schedule(self, delay, action):
        schedule(self, delay, action)
        counters["sim.scheduled"] += 1
        if len(self._queue) > counters["sim.queue_peak"]:
            counters["sim.queue_peak"] = len(self._queue)

    sim.EventLoop.schedule = counted_schedule

    run_until = sim.EventLoop.run_until

    def counted_run_until(self, end):
        run_until(self, end)
        counters["sim.left_in_queue"] = len(self._queue)

    sim.EventLoop.run_until = counted_run_until

    server_init = server.RegistryServer.__init__

    def timed_init(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        self._lock = TimingLock(recorder)
        recorder._servers.append(self)

    server.RegistryServer.__init__ = timed_init
