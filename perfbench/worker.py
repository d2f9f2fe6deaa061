"""One benchmark process: set up a workload and, with --time, time it.

Started by run.py, which makes this process's CPU time up to its "ready"
line, scaled by the yardstick, one set-up sample. Protocol: the worker
prints `ready {...}` with the set-up components (CPU seconds). With --time it then checks the
warm-up outputs, times the calls and prints one JSON line with the
measurements. Everything else goes to stderr.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

_t0 = time.thread_time()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import schurroots  # noqa: E402
from schurroots import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

IMPORT_S = time.thread_time() - _t0

# The tail is the highest nearest-rank percentile with at least this many
# calls beyond it, that is the (TAIL_BEYOND + 1)-th slowest call.
TAIL_BEYOND = 10


def tail_rank(count):
    """1-based rank, fastest first, of the tail among `count` calls; None
    when there are too few."""
    return count - TAIL_BEYOND if count > TAIL_BEYOND else None


def nearest_rank(values, p):
    """The smallest value with at least p% of the values at or below it."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * p // 100))  # ceil(n p / 100)
    return ordered[int(k) - 1]


def _call(argv):
    """One cli.main call looked up at call time, so tracing can wrap it.
    Returns None, or what went wrong."""
    try:
        rc = cli.main(list(argv))
    except Exception as exc:  # a crash is a failed call, not a benchmark error
        return f"{type(exc).__name__}: {exc}"
    return None if rc == 0 else f"exit code {rc}"


def _warm(job):
    """One warm-up call: (outputs, None), or (None, what went wrong)."""
    err = _call(job.argv)
    return (None, err) if err is not None else _read(job)


def _read(job):
    """(outputs, None), or (None, error) when the call left no output."""
    try:
        return checks.read_outputs(job), None
    except OSError as exc:
        return None, f"no output: {exc}"


class Runner:
    def __init__(self, args):
        self.args = args
        self.jobs = []
        self.reference = []
        self.reference_errors = []
        self.failures = {}
        # No yardstick runs inside the calls of a traced run: they would
        # land in its spans.
        self.period = None if args.trace else yardstick.PERIOD_S

    def setup(self):
        """Write the inputs and warm every config up once, each warm-up
        timed by a yardstick meter. run.py takes the yardstick runs out of
        the set-up sample; it scales the part up to here by the median
        taken after the inputs, the warm-ups by the meter."""
        t0 = time.thread_time()
        self.jobs = workloads.build_jobs(schurroots, self.args.workload,
                                         self.args.seed, self.args.workdir)
        t1 = time.thread_time()
        speed, spent = yardstick.measure_median()
        meter = yardstick.Meter(self.period)
        warmup = scaled = 0.0
        for job in self.jobs:
            (outputs, err), job_scaled, job_cpu = meter.time(_warm, job)
            warmup += job_cpu
            scaled += job_scaled
            self.reference.append(outputs)
            self.reference_errors.append([] if err is None else [f"warm-up: {err}"])
        return {"import_s": IMPORT_S, "inputs_s": t1 - t0,
                "warmup_s": warmup, "warmup_scaled_s": scaled,
                "yardstick_s": spent + meter.spent, "yardstick_after_inputs_s": speed}

    def check_references(self):
        for k, (job, outputs) in enumerate(zip(self.jobs, self.reference)):
            if outputs is None:
                continue
            try:
                self.reference_errors[k] += checks.check_outputs(
                    schurroots, job, *outputs)
            except (KeyError, IndexError, TypeError, ValueError,
                    schurroots.SchurRootsError) as exc:
                self.reference_errors[k].append(f"unreadable output: {exc!r}")
        for job, errs in zip(self.jobs, self.reference_errors):
            for err in errs:
                self._fail(job, err)

    def _fail(self, job, message):
        key = f"{job.tag}: {message}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def plan(self, passes, first_pass=0):
        """Job indices of `passes` whole passes, each in its seeded order."""
        return [k for p in range(first_pass, first_pass + passes)
                for k in workloads.pass_order(self.args.seed, p, len(self.jobs))]

    def timed_calls(self, plan):
        """Closed loop, one client: each call starts when the previous one
        has returned and its output has been read back. Returns per-call
        (scaled seconds, CPU seconds, ok); see yardstick.py."""
        samples = []
        meter = yardstick.Meter(self.period)
        for k in plan:
            job = self.jobs[k]
            err, scaled, cpu = meter.time(_call, job.argv)
            if err is None and self.reference[k] is not None:
                outputs, err = _read(job)
                if err is None and (checks.comparable(outputs)
                                    != checks.comparable(self.reference[k])):
                    err = "output differs from the warm-up output"
            ok = err is None and not self.reference_errors[k]
            if err is not None:
                self._fail(job, err)
            samples.append((scaled, cpu, ok))
        return samples


def end_to_end(samples):
    """End-to-end metrics from (scaled seconds, CPU seconds, ok) samples,
    and the detail beside them: the same figures from the unscaled CPU
    times, which drift with the machine's speed."""
    ok = sum(1 for *_, good in samples if good)
    rank = tail_rank(len(samples))
    if rank is None:
        raise RuntimeError(f"{len(samples)} calls are too few for a tail percentile")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timings(times_ms):
        return {
            "calls_per_s": ok / (sum(times_ms) / 1e3),
            "call_ms_p50": nearest_rank(times_ms, 50.0),
            "call_ms_tail": sorted(times_ms)[rank - 1],
        }

    scaled = timings([s * 1e3 for s, _, _ in samples])
    units = {"calls_per_s": "1/s", "call_ms_p50": "ms", "call_ms_tail": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (rss_mib, "MiB")
    return metrics, {"samples": len(samples), "ok_calls": ok,
                     "tail_percentile": 100.0 * rank / len(samples),
                     "cpu": timings([c * 1e3 for _, c, _ in samples])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--time", action="store_true",
                    help="after set-up, check the warm-up outputs and time the calls")
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(schurroots.__file__)) != os.path.join(SRC, "schurroots"):
        sys.exit(f"schurroots was imported from {schurroots.__file__}, not from {SRC}")

    runner = Runner(args)
    parts = runner.setup()
    parts["cpu_s"] = time.thread_time()  # of the main thread since launch
    print("ready " + json.dumps(parts), flush=True)
    if not args.time:
        return
    runner.check_references()

    result = {"failures": runner.failures}
    if args.trace:
        plain = runner.timed_calls(runner.plan(1))
        tracer = tracing.Tracer(schurroots)
        tracer.install()
        try:
            traced = runner.timed_calls(runner.plan(1, first_pass=1))
        finally:
            tracer.uninstall()
        samples = plain + traced
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
        overhead = (statistics.median(s for s, _, _ in traced)
                    - statistics.median(s for s, _, _ in plain)) * 1e3
        metrics["trace.overhead_ms"] = (overhead, "ms")
        result.update(passes=2, samples=len(samples), spans=len(tracer.spans),
                      ok_calls=sum(1 for *_, good in samples if good))
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        passes = workloads.pass_count(args.workload, args.seconds, len(runner.jobs))
        samples = runner.timed_calls(runner.plan(passes))
        metrics, detail = end_to_end(samples)
        result.update(detail, passes=passes)
    result["attempted"] = len(samples)
    result["failed"] = sum(1 for *_, good in samples if not good)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["provenance"] = {
        "kernel_backend": schurroots.backend_name(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jobs": [job.tag for job in runner.jobs],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
