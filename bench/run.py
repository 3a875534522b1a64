#!/usr/bin/env python3
"""ctcsim benchmark: three workloads, timed end to end and traced per module.

    python3 bench/run.py --workload loop_grid --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --out bench/BENCH_0.json

Run from the root of a checkout; ctcsim is imported from its `src/`.  One
process does one operation at a time (closed loop, one client, no worker
threads; BLAS pinned to one thread).  A run generates its inputs from
--seed, times an untimed warm-up in fresh interpreters for `setup_s`, then
repeats the workload's fixed job list until --seconds have passed, and checks
every output after the timed phase.

--trace 0 reports the end-to-end metrics; --trace 1 runs every job untraced
and traced back to back and reports per-layer metrics from the traced runs.  Every run
writes a result file (machine facts, seeds, input digests, all metrics) under
bench/out/, and prints one JSON line last: correct, attempted, failed, metrics.
`--workload all` runs every workload both ways, one child process at a time,
and merges the result files into --out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_blas_threads()

WORKLOADS = ("loop_grid", "catalog_scan", "cli_batch")
SETUP_PROBES = 7
STARTUP_PROBES = 3
PROBE_TIMEOUT_S = 120
FP_TOL = 1e-12
MAX_REPORTED_FAILURES = 20


def workload_module(name):
    return __import__(name)


def make_workload(cs, name, seed, smoke, workdir):
    return workload_module(name).Workload(cs, seed, smoke=smoke, workdir=str(workdir))


def new_workdir(name):
    path = harness.OUT / ("work-%s-%d" % (name, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter up to the end of the warm-up operation


def setup_probe(args):
    cs = harness.import_ctcsim()
    workdir = new_workdir(args.workload)
    try:
        wl = make_workload(cs, args.workload, args.seed, args.smoke, workdir)
        wl.run_op(wl.warmup_job())
        done = time.monotonic()
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(done))


def measure_setup(args, probes):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(probes):
        # CLOCK_MONOTONIC is shared by every process on the machine
        t0 = time.monotonic()
        r = subprocess.run(cmd, env=harness.child_env(), cwd=str(harness.ROOT),
                           capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if r.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % r.stderr.strip()[-2000:])
        samples.append(float(r.stdout.strip().splitlines()[-1]) - t0)
    return samples


def measure_cli_startup(probes):
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctcsim.cli"], env=harness.child_env(),
                       cwd=str(harness.ROOT), check=True, timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# timed passes and output bookkeeping


def same(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    numbers = (int, float, complex)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return abs(a - b) <= FP_TOL * max(1.0, abs(b))
    return a == b


class Book:
    """First output and fingerprint of every job; failures per attempt."""

    def __init__(self, n_jobs):
        self.first = [None] * n_jobs
        self.fp = [None] * n_jobs
        self.attempts = [0] * n_jobs
        self.bad = [0] * n_jobs
        self.notes = [[] for _ in range(n_jobs)]

    def record(self, wl, i, out):
        self.attempts[i] += 1
        if isinstance(out, Exception):
            self.bad[i] += 1
            self.notes[i].append("%s: %s" % (type(out).__name__, out))
            return
        fp = wl.fingerprint(out)
        if self.fp[i] is None:
            self.first[i], self.fp[i] = out, fp
        elif not same(fp, self.fp[i]):
            self.bad[i] += 1
            self.notes[i].append("output differs from an earlier run of the same job")


def run_job(wl, book, i, in_process, tracer=None):
    """Run job i once, record its output, and return its latency."""
    job = wl.jobs[i]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run_op(job, in_process)
        else:
            with tracer.span("op:" + job["kind"]):
                out = wl.run_op(job, in_process)
    except Exception as err:  # an operation failure is counted, not fatal
        out = err
    latency = time.perf_counter() - t0
    book.record(wl, i, out)
    return latency


def one_pass(wl, book, latencies):
    p0 = time.perf_counter()
    for i in range(len(wl.jobs)):
        latencies.append((i, run_job(wl, book, i, False)))
    return time.perf_counter() - p0


def paired_pass(wl, book, latencies, tracer):
    """Run every job untraced and traced back to back; return both total times.

    Pairing each job with itself keeps the host's speed drift out of the
    tracing overhead; which run goes first alternates from job to job.
    """
    plain = traced = 0.0
    for i in range(len(wl.jobs)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                latency = run_job(wl, book, i, True)
                latencies.append((i, latency))
                plain += latency
                continue
            tracer.install()
            try:
                traced += run_job(wl, book, i, True, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def timed_phase(cs, wl, seconds, trace):
    """Repeat the job list until `seconds` have passed (at least once).

    With tracing, each pass is a paired pass and calls the cli in-process.
    """
    import tracing

    book = Book(len(wl.jobs))
    latencies, walls, traced_walls, layers = [], [], [], []
    first_tracer = None
    start = time.perf_counter()
    while True:
        if trace:
            tracer = tracing.Tracer(cs)
            plain, traced = paired_pass(wl, book, latencies, tracer)
            walls.append(plain)
            traced_walls.append(traced)
            layers.append(tracing.layer_metrics(tracer, wl.sweep_steps))
            first_tracer = first_tracer or tracer
        else:
            walls.append(one_pass(wl, book, latencies))
        if time.perf_counter() - start >= seconds:
            break
    rss = getattr(wl, "child_rss_mb", None) or harness.peak_rss_mb()
    return book, latencies, walls, traced_walls, layers, first_tracer, rss


def check_outputs(wl, book, ref, in_process):
    """Run the correctness checks; returns (failed attempts, messages)."""
    if max(book.attempts) == 1 and hasattr(wl, "repeat_jobs"):
        for i in wl.repeat_jobs():
            try:
                out = wl.run_op(wl.jobs[i], in_process)
            except Exception as err:  # counted as a failure of that job
                out = err
            book.record(wl, i, out)
            book.attempts[i] -= 1  # a check, not a timed attempt
    failed, messages = 0, []
    for i, job in enumerate(wl.jobs):
        fails = list(book.notes[i])
        bad = book.bad[i]
        if book.first[i] is not None:
            check = wl.check(job, book.first[i], ref)
            if check:
                fails += check
                bad = book.attempts[i]
        failed += min(bad, book.attempts[i])
        messages += ["job %d (%s): %s" % (i, job["kind"], f) for f in fails]
    return failed, messages


# ---------------------------------------------------------------------------
# one workload run


def run_workload(args, ref=None):
    """Measure one workload; returns the result dict written to the result file."""
    setup = None if args.trace else measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    cs = harness.import_ctcsim()
    workdir = new_workdir(args.workload)
    try:
        wl = make_workload(cs, args.workload, args.seed, args.smoke, workdir)
        module = workload_module(args.workload)
        ref = ref or module.Reference()
        wl.run_op(wl.warmup_job(), bool(args.trace))
        book, lat, walls, traced_walls, layers, tracer, rss = timed_phase(
            cs, wl, args.seconds, bool(args.trace))
        failed, messages = check_outputs(wl, book, ref, bool(args.trace))
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(book.attempts)
    n_jobs = len(wl.jobs)
    by_job = [[] for _ in range(n_jobs)]
    for i, t in lat:
        by_job[i].append(t)
    per_job = [statistics.median(ts) if ts else 0.0 for ts in by_job]
    lat = [t for _, t in lat]
    tail_p = harness.tail_percentile(n_jobs)
    if args.trace:
        startup = measure_cli_startup(1 if args.smoke else STARTUP_PROBES)
        metrics = {k: statistics.median([layer[k] for layer in layers]) for k in layers[0]}
        metrics["cli.startup_s"] = statistics.median(startup)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        metrics["cli.report.bytes"] = float(sum(
            len(out.get("stdout", b"")) for out in book.first if isinstance(out, dict)))
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * harness.nearest_rank(lat, tail_p),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = harness.END_TO_END_UNITS
    spans_file = None
    if tracer is not None and not args.smoke:
        spans_file = harness.OUT / ("%s-seed%d-spans.npz" % (args.workload, args.seed))
        tracer.save(spans_file)
    inputs = wl.inputs()
    return {
        "workload": args.workload,
        "why": module.WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": harness.machine_facts(cs),
        "inputs": {
            "digest": harness.digest(inputs),
            "jobs_per_pass": n_jobs,
            "job_kinds": dict(Counter(j["kind"] for j in wl.jobs)),
        },
        "passes": {"untraced_s": walls, "traced_s": traced_walls},
        "latency": {"samples": len(lat), "tail_percentile": tail_p,
                    "per_job_median_ms": [round(1000 * t, 3) for t in per_job]},
        "setup_s_samples": setup,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": messages[:MAX_REPORTED_FAILURES],
        "spans_file": None if spans_file is None else str(spans_file.relative_to(harness.ROOT)),
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_per_run", "_per_step")):
        return "ratio"
    return "count"


def print_result(res):
    print("%s seed=%d trace=%d: %d jobs/pass, passes %s, inputs %s"
          % (res["workload"], res["seed"], res["trace"], res["inputs"]["jobs_per_pass"],
             len(res["passes"]["untraced_s"]) + len(res["passes"]["traced_s"]),
             res["inputs"]["digest"][:16]))
    for name, m in res["metrics"].items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    if not res["trace"]:
        lat = res["latency"]
        print("  op_tail_ms is p%.2f of %d operation latencies"
              % (lat["tail_percentile"], lat["samples"]))
    print("  correct=%s attempted=%d failed=%d" % (res["correct"], res["attempted"],
                                                  res["failed"]))
    for msg in res["failures"]:
        print("  FAIL " + msg)


def final_line(res):
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


# ---------------------------------------------------------------------------
# every workload, both ways, into one file


def run_all(args):
    out = Path(args.out) if args.out else harness.OUT / ("all-seed%d.json" % args.seed)
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            part = harness.OUT / ("part-%s-%d-%d.json" % (name, trace, os.getpid()))
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            if args.smoke:
                cmd.append("--smoke")
            subprocess.run(cmd, cwd=str(harness.ROOT), env=harness.child_env(),
                           stdout=sys.stderr)
            with open(part, encoding="utf-8") as fh:
                runs.append(json.load(fh))
            part.unlink()
    combined = {
        "command": "python3 bench/run.py --workload all --seed %d --seconds %d"
                   % (args.seed, args.seconds),
        "machine": runs[0]["machine"],
        "purpose": purpose_shares(runs),
        "runs": runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1)
        fh.write("\n")
    for res in runs:
        print_result(res)
    for name, text in combined["purpose"].items():
        print("purpose %s: %s" % (name, text))
    print("wrote %s" % out)
    ok = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {"%s.%s" % (r["workload"], k): v for r in runs if not r["trace"]
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def purpose_shares(runs):
    """Check each workload's stated purpose against its traced layers."""
    by = {(r["workload"], r["trace"]): {k: m["value"] for k, m in r["metrics"].items()}
          for r in runs}
    out = {}
    if ("loop_grid", 1) in by:
        t = by["loop_grid", 1]
        share = (t["engine.projection_table.busy_s"] + t["engine.loop_histories.busy_s"]) \
            / t["trace.wall_s"]
        out["loop_grid"] = ("projection_table + loop_histories busy = %.1f%% of traced wall"
                            % (100 * share))
    if ("catalog_scan", 1) in by:
        t = by["catalog_scan", 1]
        share = t["analysis.input_bias.busy_s"] / t["trace.wall_s"]
        out["catalog_scan"] = "input_bias busy = %.1f%% of traced wall" % (100 * share)
    if ("cli_batch", 1) in by:
        # wall_s comes from another run and the host drifts between runs, so
        # the share is taken of the same run's start-up plus in-process pass
        t = by["cli_batch", 1]
        startups = t["cli.startup_s"] * t["cli.main.calls"]
        share = (startups + t["cli.serialize.self_s"]) / (startups + t["trace.wall_s"])
        out["cli_batch"] = ("startup x invocations + serialize self = %.1f%% of "
                            "startup x invocations + traced pass" % (100 * share))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default under bench/out/)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    harness.import_ctcsim()  # exits 2 without printing a result if src/ is missing
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args)
    out = Path(args.out) if args.out else harness.OUT / (
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
        fh.write("\n")
    print_result(res)
    print(final_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
