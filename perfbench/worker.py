"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --pass I [--speed]
                                [--trace] [--spans FILE]
    python3 perfbench/worker.py --setup-only [--speed]

The first statements import modwron from the checkout's `src/` and take the
time on the system-wide monotonic clock, so the parent can compute setup
time from its own clock reading taken just before it started this process.
Prints one JSON line: the ready time, each check's outcome and duration,
the pass wall time, the peak resident set, and (traced) the per-layer
metrics of the pass.  With --speed it also times a burst of host-speed
probes right after the import, and samples the host speed during the pass
(perfbench/speed.py); the check and pass times are then seconds at the
reference speed, and the measured ones are reported as raw_*.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import modwron  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def environment():
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "gmpy2": find_spec("gmpy2") is not None}


def ordered_checks(workload, seed, pass_no):
    """The checks in the order that the seed gives pass `pass_no` of a run.
    modwron fills caches on first use, so the check that runs first among
    those sharing a cache pays for it; each pass takes another order, so
    that medians over passes do not hinge on one order."""
    todo = workloads.checks(workload)
    random.Random("%d.%d" % (seed, pass_no)).shuffle(todo)
    return todo


def run_pass(todo, tracer):
    """Runs the checks; returns the pass start and end and, per check,
    [id, ok, start, end, detail]."""
    results = []
    t0 = perf_counter()
    for check_id, thunk in todo:
        if tracer is not None:
            tracer.check = check_id
        c0 = perf_counter()
        try:
            ok, detail = thunk()
        except Exception as e:  # a raising check is a failed check
            ok, detail = False, "raised %s: %s" % (type(e).__name__, e)
        results.append([check_id, bool(ok), c0, perf_counter(), detail])
    return t0, perf_counter(), results


def structural_violations(workload, recorded):
    zero = workloads.STRUCTURAL_ZEROS[workload]
    hits = sorted({s[spans.NAME] for s in recorded
                   if s[spans.NAME] == zero
                   or s[spans.NAME].startswith(zero + ".")})
    return ["%s records %s" % (workload, name) for name in hits]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--speed", action="store_true")
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(modwron.__file__)) != \
            os.path.join(SRC, "modwron"):
        print("modwron was imported from %s, not from %s"
              % (modwron.__file__, SRC), file=sys.stderr)
        return 2
    out = {"ready": READY}
    if args.speed:
        out["setup_probe_s"] = speed.probe_time()
    if args.setup_only:
        print(json.dumps(out))
        return 0
    todo = ordered_checks(args.workload, args.seed, args.pass_no)
    tracer = spans.Tracer() if args.trace else None
    sampler = speed.Sampler() if args.speed else None
    if tracer is not None:
        tracer.install()
    if sampler is not None:
        sampler.start()
    try:
        t0, t1, timed = run_pass(todo, tracer)
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    if sampler is None:
        wall = t1 - t0
        results = [[c, ok, end - start, detail]
                   for c, ok, start, end, detail in timed]
    else:
        wall = sampler.normalize(t0, t1)
        results = [[c, ok, sampler.normalize(start, end), detail]
                   for c, ok, start, end, detail in timed]
        out.update(raw_wall_s=t1 - t0,
                   raw_max_check_s=max(end - start for _, _, start, end, _
                                       in timed),
                   speed_samples=len(sampler.samples))
    out.update(wall_s=wall, checks=results,
               rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               env=environment())
    if tracer is not None:
        out["layers"] = spans.summarise(tracer.spans, wall, len(results))
        out["det_calls_by_check"] = spans.det_calls_by_check(tracer.spans)
        out["violations"] = structural_violations(args.workload, tracer.spans)
        if args.spans:
            spans.write_spans(args.spans, tracer.spans, dict(
                out["env"], workload=args.workload, seed=args.seed,
                pass_no=args.pass_no,
                order=[c[0] for c in todo], pass_start=t0))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
