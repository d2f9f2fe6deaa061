"""Benchmark of the schurroots CLI: solve, verify and sweep on seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zoo-solve --seed 1 --seconds 3 --trace 0

Runs SETUPS fresh worker processes, one after the other. Each one imports
the package from ./src, writes the workload's config files and warms every
config up once; its CPU time from launch to its "ready" line, scaled by
yardstick runs (see yardstick.py), is one set-up sample. The last worker
then checks every output and times `schurroots.cli.main` in-process. The
last line on stdout is the result as one JSON object; see
perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import yardstick

SETUPS = 3
DEADLINE_S = 170.0
WORK = ".perfbench-work"
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zoo-solve", "zoo-verify", "rect-solve", "wide-sweep")
# BLAS and OpenMP pools pinned to one thread; set before NumPy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root):
    """HEAD of the checkout, or None when it is not a git repository (git
    is kept from looking for one in the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src):
    """SHA-256 over the package sources, to identify the code measured."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


class Worker:
    """One worker process; `ready_s` is the launch-to-ready time."""

    def __init__(self, cmd, env, deadline):
        self.cmd = cmd
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, env=env, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                     self.proc.kill)
        self.timer.start()
        line = self._expect("ready ")
        self.ready_s = time.perf_counter() - start
        self.parts = json.loads(line[len("ready "):])

    def _expect(self, prefix):
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            self.close()
            raise RuntimeError(f"worker said {line.strip()!r} instead of {prefix.strip()!r}"
                               f" (exit code {self.proc.returncode}): {' '.join(self.cmd)}")
        return line

    def finish(self):
        """The worker's last stdout line, once it has exited with code 0."""
        last = self.proc.stdout.read().strip().splitlines()
        self.close()
        if self.proc.returncode != 0 or not last:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return last[-1]

    def close(self):
        self.timer.cancel()
        try:
            self.proc.wait(timeout=max(self.timer.interval, 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_sample(parts, before):
    """The worker's CPU seconds from launch to ready without its yardstick
    runs, scaled to the reference speed: launch, import and inputs by the
    yardstick medians before the launch and after the inputs, the warm-ups
    by the worker."""
    rest = parts["cpu_s"] - parts["yardstick_s"] - parts["warmup_s"]
    return (yardstick.scale(rest, before, parts["yardstick_after_inputs_s"])
            + parts["warmup_scaled_s"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schurroots", "__init__.py")):
        sys.exit(f"no schurroots package under {src}: run from a checkout root")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, WORK, f"{tag}-{os.getpid()}")
    outdir = os.path.join(root, WORK, "results")
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    # One worker at a time, so nothing else runs while a set-up sample or a
    # call is timed; the last one goes on to the timed calls.
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    samples, wall, parts, runner = [], [], [], None
    try:
        for k in range(SETUPS):
            cmd = base + ["--workdir", os.path.join(workdir, str(k))]
            timed = k == SETUPS - 1
            if timed:
                cmd.append("--time")
                if args.trace:
                    cmd += ["--trace-out", os.path.join(outdir, tag + ".spans.jsonl.gz")]
            before, _ = yardstick.measure_median()
            worker = Worker(cmd, env, deadline)
            if timed:
                runner = worker
            else:
                worker.close()
            samples.append(setup_sample(worker.parts, before))
            wall.append(worker.ready_s - worker.parts["yardstick_s"])
            parts.append(worker.parts)
        last = runner.finish()
    except (RuntimeError, OSError) as exc:
        if runner is not None:
            runner.proc.kill()
        sys.exit(f"benchmark failed: {exc}")
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(last)
    metrics = result["metrics"]
    if args.trace:
        for key in ("import_s", "inputs_s", "warmup_s"):
            value = statistics.median(p[key] for p in parts)
            metrics[f"setup.{key}"] = {"value": value, "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}

    provenance = dict(result["provenance"])
    provenance.update({
        "git_sha": git_sha(root),
        "src_sha256": source_digest(src),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "setup_samples_s": samples,
        "setup_wall_s": wall,
        "setup_parts": parts,
        "load": "closed loop, one client, in-process cli.main calls",
    })
    detail = {k: result[k] for k in ("samples", "passes", "ok_calls", "attempted",
                                     "failed", "failures")}
    for key in ("tail_percentile", "cpu", "spans"):
        if key in result:
            detail[key] = result[key]
    detail["failed_frac"] = result["failed"] / result["attempted"]
    full = {"detail": detail, "provenance": provenance, "metrics": metrics}
    with open(os.path.join(outdir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2, sort_keys=True)

    for failure, count in sorted(result["failures"].items()):
        print(f"FAILED x{count}: {failure}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"{name:<44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<44s} {detail['failed_frac']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    print(json.dumps({k: v for k, v in full.items() if k != "metrics"}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
