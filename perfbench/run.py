"""The modwron benchmark: closed-loop verification workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; modwron is imported from its `src/`.
Each pass over a workload's checks runs in a fresh single-threaded
interpreter (perfbench/worker.py), one after another, until --seconds have
been spent.  The seed fixes the order of the checks in each pass; the
passes of a run take different orders.  BENCHMARK.json lists
symquot_weber and identities_ssing (the checks of identities and
ssing_primes in one pass); `all` runs the four single workloads.

--trace 0 reports the end-to-end metrics: setup_s (interpreter start to
`import modwron` done, median of every process started), wall_s (one pass),
max_check_s (slowest check of a pass), each the median over passes, and
peak_rss_mb (ru_maxrss of a pass process, median).  The three times are
seconds at the reference host speed of perfbench/speed.py: each process
samples the host's speed with a fixed probe and scales what it measured by
it, so that the shared host's slow phases do not show as program changes.
The measured medians are printed beside them.  fail_ratio is printed with
them; it is also `failed / attempted` in the result line.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/spans.py, averaged over the traced passes, with
trace.overhead_ratio = median traced wall / median untraced wall - 1.  The
spans of the last traced pass are written to .perfbench_out/.

Prints the metrics by name with their units, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  Exits 1
if any output check fails and 2 if the checkout has no modwron source.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import speed
from spans import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
ALL = ("symquot_weber", "etapower_ch", "identities", "ssing_primes")
WORKLOADS = ALL + ("identities_ssing",)

SETUP_SAMPLES = 7     # setup-only processes per untraced run, after a warm-up
MIN_PASSES = 3        # untraced passes per untraced run
MIN_PAIRS = 2         # (untraced, traced) pass pairs per traced run
PROCESS_TIMEOUT = 150


class BenchError(Exception):
    pass


def spawn(args):
    """Run one worker; returns its result with setup_s and process_s."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT)
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    res = json.loads(lines[-1])
    res["raw_setup_s"] = res["setup_s"] = res["ready"] - t
    if "setup_probe_s" in res:
        res["setup_s"] *= speed.factor(res["setup_probe_s"])
    res["process_s"] = end - t
    return res


def run_passes(workload, seed, seconds, trace):
    """Untraced passes, or alternating untraced and traced ones, for about
    `seconds` seconds, and never fewer than the minimum."""
    spans_file = os.path.join(OUT_DIR, workload + ".spans.jsonl")
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        base = ["--workload", workload, "--seed", str(seed),
                "--pass", str(len(plain))]
        plain.append(spawn(base if trace else base + ["--speed"]))
        last = plain[-1]["process_s"]
        if trace:
            traced.append(spawn(base + ["--trace", "--spans", spans_file]))
            last += traced[-1]["process_s"]
        done = len(traced) >= MIN_PAIRS if trace else len(plain) >= MIN_PASSES
        if done and time.monotonic() - t0 + last > seconds:
            return plain, traced


def end_to_end(plain, setups):
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(p["wall_s"] for p in plain), "s"),
        "max_check_s": (median(max(c[2] for c in p["checks"])
                               for p in plain), "s"),
        "peak_rss_mb": (median(p["rss_kib"] for p in plain) / 1024, "MiB"),
    }


def per_layer(plain, traced):
    out = {}
    for name, unit in layer_metrics():
        if name == "trace.overhead_ratio":
            value = (median(p["wall_s"] for p in traced)
                     / median(p["wall_s"] for p in plain) - 1)
        else:
            value = sum(p["layers"][name] for p in traced) / len(traced)
        out[name] = (value, unit)
    return out


def declared(kind):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read the %s metrics of BENCHMARK.json: %s"
                         % (kind, e))


def run_workload(workload, seed, seconds, trace):
    spawn(["--setup-only"])  # warm-up: a fresh checkout compiles bytecode
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    else:
        setups = [spawn(["--setup-only", "--speed"])
                  for _ in range(SETUP_SAMPLES)]
    plain, traced = run_passes(workload, seed, seconds, trace)
    checks = [c for p in plain + traced for c in p["checks"]]
    failures = ["%s: %s" % (c[0], c[3]) for c in checks if not c[1]]
    violations = [v for p in traced for v in p["violations"]]
    attempted = len(checks) + len(traced)
    failed = len(failures) + len(violations)
    env = plain[0]["env"]
    print("== %s  seed %d  trace %d  passes %d+%d  checks %d  "
          "(python %s, nproc %d, gmpy2 %s)"
          % (workload, seed, trace, len(plain), len(traced), len(checks),
             env["python"], env["nproc"], "yes" if env["gmpy2"] else "no"))
    print("   order of the first pass: %s"
          % " ".join(c[0] for c in plain[0]["checks"]))
    for line in failures + violations:
        print("   FAIL %s" % line)
    if trace:
        metrics = per_layer(plain, traced)
        print("   det calls per check: %s" % (" ".join(
            "%s=%d" % kv for kv in sorted(
                traced[0]["det_calls_by_check"].items())) or "none"))
        print("   self-time share: %s" % " ".join(
            "%s=%.3f" % (name.split(".")[0], v) for name, (v, _)
            in metrics.items() if name.endswith(".self_share")))
    else:
        setups += plain
        metrics = end_to_end(plain, [p["setup_s"] for p in setups])
        print("   measured medians: setup_s %.6g  wall_s %.6g  "
              "max_check_s %.6g  (speed samples per pass %d)"
              % (median(p["raw_setup_s"] for p in setups),
                 median(p["raw_wall_s"] for p in plain),
                 median(p["raw_max_check_s"] for p in plain),
                 median(p["speed_samples"] for p in plain)))
    if sorted((n, u) for n, (_, u) in metrics.items()) != \
            sorted(declared("per_layer" if trace else "end_to_end")):
        raise BenchError("metrics differ from BENCHMARK.json")
    for name, (value, unit) in metrics.items():
        print("   %-40s %14.6g %s" % (name, value, unit))
    if not trace:
        print("   %-40s %14.6g %s" % ("fail_ratio", failed / attempted, "1"))
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "modwron",
                                       "__init__.py")):
        print("error: no modwron source under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = ALL if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else name + "."
            metrics.update((prefix + k, {"value": v, "unit": u})
                           for k, (v, u) in m.items())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
