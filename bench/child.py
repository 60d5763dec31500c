"""One measured process of the benchmark: `python3 child.py <spec.json>`.

The spec names a mode and an output file; the parent reads the file after
this process has exited.  Modes:

  setup    time `import skewtor.cli` plus `registry()`
  cli      one command line on the real stdout, as `skewtor <argv>` would run
  verify   `skewtor verify <suite> --json` for each suite in order, in-process
  queries  a list of command lines, one after the other, each under a deadline

With `"trace": true` the spans of `spans.Tracer` are recorded and their
metrics written with the results.

Durations are CPU seconds of the main thread (`time.thread_time`; the
process clock is only sampled at timer ticks while the deadline timer runs),
and the deadline is a CPU-time timer.  The program runs in one thread and is
CPU-bound, so on an idle machine these equal wall time; on a shared virtual
machine they leave out the time the host gives to other guests, which can
otherwise change a run's timings by a factor of two.  `mode_queries` checks
that no other thread did measurable work.

The speed of a CPU second still swings by a factor of two within seconds on
such a host, so except in `verify` mode (the traced run) a `calib.Clock`
samples the host's speed every PROBE_EVERY_S CPU seconds (between queries,
or from a CPU-time timer while one command line runs).  The times written
are then reference seconds: CPU seconds scaled by the samples either side,
without the samples' own time; `cpu_s` is the unscaled total.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time

from calib import Clock
from spans import Tracer

# CPU seconds of the measured work between two samples of the host's speed
PROBE_EVERY_S = 0.25


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


def run_cli(main, argv):
    """(exit code, stdout) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:          # argparse usage errors
        code = exc.code
    return code, out.getvalue()


def mode_setup():
    clock = Clock()
    clock.sample()
    import skewtor.cli  # noqa: F401
    from skewtor.registry import registry
    registry()
    clock.sample()
    return {"setup_s": clock.scaled, "cpu_s": clock.raw}


def mode_cli(spec):
    """A cold command line, timed from the start of this process on.

    A CPU-time timer samples the host's speed while the program is imported
    and runs.
    """
    clock = Clock(start=0.0)
    signal.signal(signal.SIGVTALRM, lambda signum, frame: clock.sample())
    signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        import skewtor.cli
        code = skewtor.cli.main(spec["argv"])
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    clock.sample()
    return {"code": code, "s": clock.scaled, "cpu_s": clock.raw}


def peak_rss_mb():
    """High-water resident set of this process since it was executed."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def mode_verify(spec, main):
    suites = []
    t0 = time.thread_time()
    for suite in spec["suites"]:
        s0 = time.thread_time()
        code, text = run_cli(main, ["verify", suite, "--json"])
        suites.append({"suite": suite, "code": code, "s": time.thread_time() - s0,
                       "report": json.loads(text) if code in (0, 1) else None})
    return {"cpu_s": time.thread_time() - t0, "suites": suites}


def mode_queries(spec, main):
    """Closed loop: the next query starts when the previous one has ended.

    A query still running after `deadline` reference seconds (CPU seconds
    at the host speed of the last sample) is abandoned and recorded with
    code None.  The host's speed is sampled between queries; a query's time
    is scaled by the samples either side of it.
    """
    deadline = spec["deadline"]
    if deadline:
        signal.signal(signal.SIGPROF, _alarm)
    records = []
    clock = Clock()
    p0 = time.process_time()
    clock.sample()
    for group, argv in spec["queries"]:
        q0 = time.thread_time()
        if q0 - clock.mark >= PROBE_EVERY_S:
            clock.sample()
            q0 = time.thread_time()
        try:
            if deadline:
                signal.setitimer(signal.ITIMER_PROF, deadline / clock.speed())
            try:
                code, text = run_cli(main, argv)
            finally:
                if deadline:
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline:
            code, text = None, ""
        q1 = time.thread_time()
        records.append({"group": group, "s": q1 - q0, "stretch": len(clock.factors),
                        "code": code, "out": text})
    clock.sample()
    other = time.process_time() - p0 - clock.raw - clock.probe_s
    if other > 0.05 * clock.raw + 0.1:
        raise RuntimeError(f"{other:.3f} CPU s ran outside the main thread; "
                           "thread CPU time would leave it out")
    for r in records:
        r["s"] *= clock.factors[r.pop("stretch")]
    return {"s": clock.scaled, "cpu_s": clock.raw, "records": records}


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "setup":
        result = mode_setup()
    elif spec["mode"] == "cli":
        result = mode_cli(spec)
    else:
        if spec.get("model_path"):
            os.environ["SKEWTOR_MODEL_PATH"] = spec["model_path"]
        import skewtor.cli
        from skewtor.registry import registry
        registry()
        tracer = Tracer() if spec.get("trace") else None
        if tracer:
            tracer.install()
        run = {"verify": mode_verify, "queries": mode_queries}[spec["mode"]]
        result = run(spec, skewtor.cli.main)
        if tracer:
            tracer.uninstall()
            result["trace"] = tracer.metrics()
            result["trace_self_s"] = tracer.total_self_s()
            result["trace_overhead_s"] = tracer.overhead_s
    result["peak_rss_mb"] = peak_rss_mb()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
