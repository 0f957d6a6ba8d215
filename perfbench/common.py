"""Shared plumbing: checkout layout, child processes, statistics, records.

Every call into trustnet runs in a fresh interpreter started from this
checkout's `src/`, so the benchmark measures what a user of the command line
sees. Children are reaped with wait4(2), which returns their own peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RUNNER = BENCH_DIR / "runner.py"
CALL_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed check)."""


def require_source() -> None:
    """Refuse to run without the program's source in this checkout."""
    if not (SRC / "trustnet" / "cli.py").is_file():
        raise BenchError(f"no trustnet source under {SRC}; nothing to measure")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TRUSTNET_DATA_DIR", None)
    return env


@dataclass
class CallResult:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str


@dataclass
class Tally:
    """Operations attempted and failed, with a line per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self, name: str, result: CallResult) -> CallResult:
        self.check(f"{name} exits 0", result.returncode == 0,
                   f"exit {result.returncode}: {result.stdout[-400:]}")
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def run_child(argv: list[str], cwd: Path, timeout: float = CALL_TIMEOUT_S) -> CallResult:
    """Run one child to completion; wall time, own peak RSS, exit code, stdout."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path = cwd / ".stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(args: list[str], **files: Path | None) -> list[str]:
    """Command line that runs `trustnet.cli.main(args)` in a fresh interpreter.

    `files` maps runner.py options (spans, pings, timing) to their paths.
    """
    argv = [sys.executable, str(RUNNER)]
    for option, path in files.items():
        if path is not None:
            argv += [f"--{option}", str(path)]
    return argv + ["--"] + list(args)


def run_cli(args: list[str], cwd: Path, **kwargs) -> CallResult:
    return run_child(cli_argv(args, **kwargs), cwd)


def import_time_s(cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports trustnet.cli and exits."""
    return run_child([sys.executable, "-c", "import trustnet.cli"], cwd).wall_s


def stop_process(proc: subprocess.Popen, grace_s: float = 30.0):
    """SIGINT (the daemon's shutdown path), then SIGKILL; returns rusage.

    The child is reaped here with wait4(2), never by Popen, so its rusage
    (peak RSS) survives; os.kill on an unreaped zombie is harmless.
    """
    os.kill(proc.pid, signal.SIGINT)
    deadline = time.monotonic() + grace_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return usage


# --- statistics ---


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


# --- records ---


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """SHA-256 over every file of src/trustnet, so a run names its code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "trustnet").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    versions = {}
    for name in ("click", "cryptography", "numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "dependencies": versions,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "traffic": "loopback only (127.0.0.1)",
        "cpu_pinning": "none",
        "host": "shared; other tenants may run at the same time",
    }


def check_digests(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Compare with digests an earlier run of this checkout recorded.

    Returns one message per file whose digest changed for the same workload
    and seed; records the digests when the pair is new.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    book_path = OUT / "digests.json"
    book = json.loads(book_path.read_text()) if book_path.exists() else {}
    key = f"{workload}|{seed}"
    known = book.get(key)
    if known is None:
        book[key] = digests
        tmp = book_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        tmp.replace(book_path)
        return []
    return [
        f"{name}: {known.get(name)} before, {value} now"
        for name, value in sorted(digests.items())
        if known.get(name) != value
    ]
