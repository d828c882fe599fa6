"""One closed-loop pass over a workload's operations, in a fresh interpreter.

Reads a JSON job {"ops": [...], "gensets": [...], "trace": bool} on stdin and
writes one JSON result on stdout.  A single caller issues each operation when
the last one returns; between operations it times `calibrate`'s unit of
fixed work, about every 50 ms of operation time.  With "trace" set, each operation and every public
call it makes is a span (id, name, start, end, parent id, operation id) kept
in memory and returned at the end, and `ops.probe` adds the per-layer calls
and counts after each operation.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

import calibrate
import ops

# Operations and spans are timed in this thread's CPU time.  The worker is one
# thread that computes and does no I/O, so this is its wall time minus the
# time the host took the CPU away (steal), which on a shared machine arrives as
# stalls of up to tens of milliseconds and would otherwise own the tail.
clock = time.thread_time


class Tracer:
    """Spans as tuples (id, name, start, end, parent id, operation id), kept
    in memory; a span is stored when it closes, its id is given when it
    opens so that calls made inside it can name it as their parent."""

    def __init__(self):
        self.spans = []
        self.next_id = 0

    def new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def caller(self, parent, op_id):
        def call(name, fn, *args):
            sid, t0 = self.new_id(), clock()
            try:
                return fn(*args)
            finally:
                self.spans.append((sid, name, t0, clock(), parent, op_id))
        return call


def main() -> int:
    job = json.load(sys.stdin)
    ctx = {"gensets": job.get("gensets", [])}
    tracer = Tracer() if job["trace"] else None
    outputs, kept, errors, latencies = [], [], [], []
    counts = {}
    gc.collect()
    cal = [calibrate.sample()]
    since = 0.0
    for i, op in enumerate(job["ops"]):
        fn = ops.OPS[op["verb"]]
        if tracer:
            sid = tracer.new_id()
            call = tracer.caller(sid, i)
        else:
            call = ops.direct
        t0 = clock()
        try:
            text, state = fn(call, op, ctx)
        except Exception as e:  # a failed operation is counted, not fatal
            text = state = None
            errors.append([i, f"{type(e).__name__}: {e}"])
        t1 = clock()
        latencies.append(t1 - t0)
        since += t1 - t0
        if since >= calibrate.EVERY_S:
            cal.append(calibrate.sample())
            since = 0.0
        if tracer:
            tracer.spans.append((sid, "op." + op["verb"], t0, t1, None, i))
        if text is None:
            outputs.append(None)
            kept.append(None)
            continue
        if tracer:
            sid, t0 = tracer.new_id(), clock()
            for name, value in ops.probe(tracer.caller(sid, i), op, state).items():
                # a count named *_max keeps the run's maximum, any other the sum
                counts[name] = max(counts.get(name, 0), value) if name.endswith("_max") \
                    else counts.get(name, 0) + value
            tracer.spans.append((sid, "probe", t0, clock(), None, i))
        outputs.append(text)
        kept.append(ops.keep(op, state))
    cal.append(calibrate.sample())
    json.dump({
        "latencies": latencies,
        "cal": cal,
        "outputs": outputs,
        "kept": kept,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "counts": counts,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
