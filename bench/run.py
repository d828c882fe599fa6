"""sigcalc benchmark: seeded fixed-work workloads, checked outputs, and a
traced per-layer run.

    python3 bench/run.py --workload {ranks,realize,words} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports `sigcalc` from `src/`.  One
run makes a seeded list of distinct operations, sized from S (see
README.md), and sends it through one single-threaded worker process in a
closed loop.  Operations are timed in the worker's CPU time and brought to
the reference speed by `calibrate.py`.  The outputs are checked after the
pass.  The last line of standard output is a JSON object {"correct",
"attempted", "failed", "metrics"}: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Trace spans and one line per run go
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Length of a run's operation list per second of --seconds.  On the reference
# machine one pass then takes about --seconds for ranks, 1.2 times that for
# realize and 2 times that for words, whose operations spread widest in cost
# and so need the most samples.  The list, not a clock, ends a pass: every run of a
# workload does the same work however fast the code is.
OPS_PER_SECOND = {"ranks": 450, "realize": 60, "words": 40}
# The tail is the highest percentile with ten samples beyond it; below forty
# samples that would be no tail.
MIN_OPS = 40
TAIL_BEYOND = 10

# setup_s: the median of several fresh interpreters importing sigcalc.cli and
# building its parser, the fixed cost every CLI call pays.
SETUP_LAUNCHES = 11
SETUP_CODE = "import sigcalc.cli as c; c.build_parser()"

DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Spans whose summed busy seconds are per-layer metrics (name + "_s").
LAYER_SPANS = (
    "cli.load_signature",
    "signature.validate",
    "signature.decompose",
    "normalizer.rho",
    "normalizer.normalize",
    "ordinal.render",
    "build.realize",
    "genset.signature_of",
    "genset.is_fast",
    "plmap.orbitals",
    "genset.to_json",
    "cli.load_genset",
    "words.pl_eval",
    "words.pred_C",
    "words.pred_D",
    "words.pred_T",
    "plmap.then",
    "plmap.inverse",
)
LAYER_COUNTS = {"plmap.breakpoints": "count", "plmap.denominator_bits_max": "bits"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(start: float) -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - start))


def setup_seconds() -> tuple:
    """(median launch wall time, calibration factor of the launches)."""
    times, cal = [], []
    for _ in range(SETUP_LAUNCHES):
        cal.append(calibrate.sample())
        t0 = time.perf_counter()
        # No timeout here: waiting with one polls in sleeps of up to 50 ms,
        # which would round every launch up to that grain.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), calibrate.factor(cal)


def run_worker(job: dict, start: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=_remaining(start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def make_ops(workload: str, seed: int, seconds: int):
    import inputs

    count = max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))
    if workload == "ranks":
        return [], inputs.ranks_ops(seed, count)
    if workload == "realize":
        return [], inputs.realize_ops(seed, count)
    return inputs.words_ops(seed, count)


def end_to_end(result: dict, ok: list, setup: tuple) -> tuple:
    """Metrics at the reference speed, and a note with the measured values."""
    lat = sorted(result["latencies"][i] for i in ok)
    n = len(lat)
    raw = {
        "setup_s": setup[0],
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[max(0, n - TAIL_BEYOND - 1)] * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    f = calibrate.factor(result["cal"])
    metrics = dict(raw, setup_s=raw["setup_s"] * setup[1], ops_per_s=raw["ops_per_s"] / f,
                   latency_p50_ms=raw["latency_p50_ms"] * f,
                   latency_tail_ms=raw["latency_tail_ms"] * f)
    note = (f"latency_tail_ms is p{100 * (n - TAIL_BEYOND) / n:.2f} of {n} samples; "
            f"calibration factor {f:.4f} (setup {setup[1]:.4f}); measured "
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return metrics, note


def per_layer(traced: dict, plain: dict) -> tuple:
    """Per-layer metrics at the reference speed, and a note on the overhead."""
    f = calibrate.factor(traced["cal"])
    busy = dict.fromkeys(LAYER_SPANS, 0.0)
    for _sid, name, t0, t1, _parent, _op in traced["spans"]:
        if name in busy:
            busy[name] += (t1 - t0) * f
    metrics = {name + "_s": (value, "s") for name, value in busy.items()}
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (traced["counts"].get(name, 0), unit)
    t_traced = sum(traced["latencies"]) * f
    t_plain = sum(plain["latencies"]) * calibrate.factor(plain["cal"])
    metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    note = (f"trace overhead: traced {t_traced:.4f} s - plain {t_plain:.4f} s = "
            f"{t_traced - t_plain:+.4f} s ({(t_traced - t_plain) / t_plain:+.2%})")
    return metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_SECOND))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sigcalc" / "__init__.py").is_file():
        print(f"error: no sigcalc sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    start = time.monotonic()
    gensets, ops = make_ops(args.workload, args.seed, args.seconds)
    job = {"ops": ops, "gensets": gensets, "trace": False}
    try:
        if args.trace:
            plain = run_worker(job, start)
            result = run_worker(dict(job, trace=True), start)
        else:
            setup = setup_seconds()
            result = run_worker(job, start)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    ctx = checks.context(gensets, args.seed)
    wrong = []
    for i, (op, text, kept) in enumerate(zip(ops, result["outputs"], result["kept"])):
        if text is not None:
            reason = checks.check(op, text, kept, ctx)
            if reason:
                wrong.append([i, reason])
            elif args.trace and plain["outputs"][i] != text:
                wrong.append([i, "traced and plain passes disagree"])
    for i, reason in result["errors"] + wrong:
        print(f"failed: op {i} ({ops[i]['verb']}): {reason}", file=sys.stderr)
    bad = {i for i, _ in result["errors"] + wrong}
    ok = [i for i in range(len(ops)) if i not in bad]
    if not ok:
        print("error: every operation failed", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, note = per_layer(result, plain)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "op"], "spans": result["spans"]}))
        note += f"; spans in {trace_file.relative_to(ROOT)}"
    else:
        e2e, note = end_to_end(result, ok, setup)
        values = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    line = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(dict(line, workload=args.workload, seed=args.seed,
                                 seconds=args.seconds, trace=args.trace)) + "\n")
    print(f"# {args.workload} seed {args.seed}: {note}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
