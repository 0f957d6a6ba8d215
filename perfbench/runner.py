"""Run `trustnet.cli.main` in this fresh interpreter, optionally traced.

    python3 perfbench/runner.py [--spans FILE] [--pings FILE] [--timing FILE] -- <cli args>

--spans installs the layer wrappers of tracing.py before the CLI runs and
writes the recorded spans to FILE when it returns; a daemon started this way
writes them when SIGINT stops it. --pings keeps the simulator's result and
writes the decrypted ping plaintexts to FILE, for the benchmark's check.
--timing writes the import time and the duration of the main() call alone.
The exit code is the CLI's own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--pings")
    parser.add_argument("--timing")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    recorder = None
    if opts.spans:
        import tracing

        recorder = tracing.Recorder()
    started = time.perf_counter()
    import trustnet.cli as cli

    imported = time.perf_counter()
    entry = cli.main
    if recorder is not None:
        recorder.import_s = imported - started
        tracing.install(recorder)
        entry = recorder.wrap("trustnet.cli.main", cli.main)

    results = []
    if opts.pings:
        run_scenario = cli.run_scenario

        def keep_result(config):
            result = run_scenario(config)
            results.append(result)
            return result

        cli.run_scenario = keep_result
    called = time.perf_counter()
    try:
        code = entry(args)
    finally:
        if opts.timing:
            with open(opts.timing, "w", encoding="utf-8") as handle:
                json.dump({"import_s": imported - started,
                           "main_s": time.perf_counter() - called}, handle)
        if recorder is not None:
            recorder.write(opts.spans)
    if opts.pings:
        pings = [
            [src, dst, plaintext.decode("utf-8", "replace")]
            for result in results
            for src, dst, plaintext in result.pings
        ]
        with open(opts.pings, "w", encoding="utf-8") as handle:
            json.dump(pings, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
