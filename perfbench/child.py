"""One benchmark operation in a fresh process.

Usage: python3 child.py SPEC.json
       python3 child.py --reference

SPEC holds ``commands`` (a list of ``[command, config]`` pairs run through
``bcsgap.cli.main`` in order) and ``trace`` (whether to install the span
recorder).  The process first times a fixed reference loop that gauges the
host's speed, before any bcsgap code is imported.  It then imports the
package and builds params, potential and grid for every config (set-up),
and runs the commands (the timed pipeline).  It writes ``result.json`` into
the working directory, with monotonic clock readings the parent compares
against its own, so set-up time counts from process spawn; the parent takes
the reference loop's duration out of it.  With ``--reference`` the process
only times the reference loop and prints its seconds; the parent runs that
right after each operation, so the host's speed is gauged on both sides of
the pipeline without bcsgap in the process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss does not, and would report the
    parent's size at fork when that is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_s() -> float:
    """Seconds for a fixed workload that gauges the CPU speed right now.

    A Python loop of small-array numpy calls, the same kind of work as the
    pipeline's hot paths.  No bcsgap code has run when it is timed, so a change to
    the package cannot move it, while a slower or faster host moves both
    alike.
    """
    import numpy as np

    a = np.linspace(0.01, 1.0, 160)
    m = np.full((160, 160), 1.0 / 160)
    x = a
    start = time.perf_counter()
    for _ in range(8_000):
        x = m @ (np.tanh(x + a) / np.sqrt(x * x + a))
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result: dict = {}
    try:
        result["reference_s"] = _reference_s()
        from bcsgap import cli

        start = time.monotonic()
        for path in sorted({cfg for _, cfg in spec["commands"]}):
            cli.build_inputs(cli.parse_config(path))
        result["setup_end"] = time.monotonic()
        result["build_inputs_s"] = result["setup_end"] - start

        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        result["exit_codes"] = [cli.main([cmd, cfg]) for cmd, cfg in spec["commands"]]
        result["wall_s"] = time.monotonic() - start
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.dump("spans.npz")
    except Exception:
        result["error"] = traceback.format_exc()
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    if sys.argv[1] == "--reference":
        print(_reference_s())
        raise SystemExit(0)
    raise SystemExit(main(sys.argv[1]))
