"""Benchmark worker: set stratakit up in a fresh process, then run passes.

run.py starts it with PYTHONPATH set to the checkout's src directory:

    python3 bench/worker.py --setup-only
    python3 bench/worker.py OPS_JSON SECONDS TRACE [SPANS_TSV]

The first form reports only the set-up time.  The second runs passes over
the operations in OPS_JSON until the next pass would end after SECONDS (at
least one pass); with TRACE 1 every untraced pass is followed by a traced
one.  The last line of stdout is one JSON object with the per-operation wall
times and host speed factors.

The host's speed drifts by a third or more over tens of seconds, with CPU
time tracking wall time, so a wall time alone does not repeat.  While an
operation runs, SpeedProbe times a fixed pure-Python kernel every
PROBE_INTERVAL seconds of CPU; an operation's speed factor is
the mean of PROBE_REF_S / (kernel time) over its samples, and wall time
times that factor is the time the operation would take at the reference
speed.
"""

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import workloads

# A two-vertex semisimple algebra: decomposing its regular module is the
# first call that factors a minimal polynomial, which imports sympy.
SEMISIMPLE = "field Q\nvertices 1 2\n"

# A typical SpeedProbe kernel time on the reference host (2 cores, Python
# 3.11); it only sets the scale of the scaled times.
PROBE_REF_S = 0.00105
PROBE_INTERVAL = 0.05
# An operation with fewer samples than this takes its pass's factor.
PROBE_MIN_SAMPLES = 5

# Seconds after start by which every operation must have ended, so that the
# worker exits well inside the 180 s a benchmark run may take.
RUN_DEADLINE = 150.0


class OpTimeout(BaseException):
    """Raised by SIGALRM in an operation that ran past its limit."""


def _alarm(signum, frame):
    raise OpTimeout


def _kernel():
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i, i % 5)] = [acc.numerator % 97 for _ in range(8)]
    return table


class SpeedProbe:
    """Times _kernel from SIGPROF while armed; samples are kernel seconds."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def arm(self):
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL, PROBE_INTERVAL)

    def disarm(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def _trimmed_mean(values):
    values = sorted(values)
    k = len(values) // 10
    return statistics.mean(values[k:len(values) - k])


def speed_factors(per_op):
    """Each operation's speed factor: the mean of PROBE_REF_S / sample over
    its samples, dropping the top and bottom tenth (a sample the OS
    interrupted).  The mean, not the median, because the speed can change
    within one operation.  Operations with too few samples take their pass's
    factor."""
    every = [s for samples in per_op for s in samples]
    fallback = _trimmed_mean([PROBE_REF_S / s for s in every]) if every else 1.0
    return [_trimmed_mean([PROBE_REF_S / x for x in s])
            if len(s) >= PROBE_MIN_SAMPLES else fallback for s in per_op]


def setup(probe):
    """Seconds to import stratakit and finish its lazy sympy import, and the
    speed factor while it ran."""
    probe.arm()
    t0 = time.perf_counter()
    import stratakit
    a = stratakit.parse(SEMISIMPLE).build()
    stratakit.decompose(stratakit.regular_module(a))
    elapsed = time.perf_counter() - t0
    probe.disarm()
    return elapsed, speed_factors([probe.samples])[0]


def execute(op):
    """Run one operation through the public API; return what it produced."""
    import stratakit.cli
    if op["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = stratakit.cli.main(op["argv"])
        return rc, out.getvalue()
    f = stratakit.parse_file(op["file"])
    if op["kind"] == "build":
        a = f.build()
        return a.dim, a.max_len
    try:
        f.build(degree_cap=op["degree_cap"])
    except stratakit.errors.NotAdmissible:
        return "NotAdmissible"
    return "built"


def verify(op, outcome):
    ref = op["ref"]
    if op["kind"] == "cli":
        return workloads.check_report(ref, *outcome)
    if op["kind"] == "build":
        return workloads.check_build(ref, *outcome)
    return None if outcome == ref["raises"] else f"{outcome}, expected {ref['raises']}"


def timed(op, deadline, probe):
    """(seconds charged, error or None).  A failure is charged its limit."""
    limit = min(op["limit"], deadline - time.perf_counter())
    if limit <= 0:
        return op["limit"], "not started before the run deadline"
    gc.collect()
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        # each CLI invocation starts with an empty sympy cache
        sympy.core.cache.clear_cache()
    error = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    probe.arm()
    t0 = time.perf_counter()
    try:
        outcome = execute(op)
    except OpTimeout:
        error = f"ran past its {limit:.1f} s limit"
    except SystemExit as exc:
        error = f"exited with {exc.code}"
    except Exception as exc:        # any crash is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probe.disarm()
    elapsed = time.perf_counter() - t0
    if error is None:
        error = verify(op, outcome)
    return (op["limit"] if error else elapsed), error


def run_pass(ops, deadline, probe, tracer=None):
    """Wall seconds, errors and speed factors of one pass; a failed
    operation is charged its limit at factor 1."""
    times, errors, samples = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        first = len(probe.samples)
        t, err = timed(op, deadline, probe)
        if tracer is not None:
            tracer.end_op()
        times.append(t)
        errors.append(err)
        samples.append(probe.samples[first:])
    speed = [1.0 if err else f for err, f in zip(errors, speed_factors(samples))]
    return {"times": times, "errors": errors, "speed": speed}


def main(argv):
    start = time.perf_counter()
    probe = SpeedProbe()
    setup_s, setup_speed = setup(probe)
    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0
    ops_path, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    deadline = start + RUN_DEADLINE
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    passes, traced, summaries = [], [], []
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, deadline, probe))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, deadline, probe, tracer))
            finally:
                tracer.remove()
            summaries.append(tracer.summary(traced[-1]["speed"]))
        took = time.perf_counter() - t0
        if time.perf_counter() - loop_start + took > seconds:
            break
    if tracer is not None and len(argv) > 3:
        tracer.write_spans(argv[3])
    result = {"setup_s": setup_s, "setup_speed": setup_speed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "ops": [op["id"] for op in ops], "passes": passes,
              "traced": traced, "summaries": summaries}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
