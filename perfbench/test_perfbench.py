"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import json
import os
import sys
import time

import numpy as np
import pytest

import schurroots as sr
from schurroots import cli

import checks
import tracing
import worker
import workloads
import yardstick

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_conftest():
    path = os.path.join(REPO, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("zoo_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_the_test_zoo():
    conf = _load_conftest()
    rng = np.random.default_rng(conf.ZOO_SEED)
    expected = []
    while len(expected) < conf.ZOO_SIZE:
        model = conf.random_admissible_model(rng)
        if model is not None:
            expected.append(model)
    got = workloads.model_zoo(sr)
    assert workloads.ZOO_SEED == conf.ZOO_SEED
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.a1, b.a1)
        assert np.array_equal(a.b.coefficients, b.b.coefficients)


def test_wide_models_are_seeded_and_admissible():
    first = workloads.wide_models(sr, 3)
    again = workloads.wide_models(sr, 3)
    assert [m.n for m in first] == list(workloads.WIDE_SIZES)
    for a, b in zip(first, again):
        assert np.array_equal(a.a1, b.a1)
    for model in first:
        for side in (1, -1):
            assert sr.admissibility(model, sr.make_contour(model, side)).admissible


def _bindings():
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if module is not None and name.startswith("schurroots")
            for attr, value in vars(module).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    from_file = sr.config.RunConfig.__dict__["from_file"]
    tracer = tracing.Tracer(sr)
    tracer.install()
    try:
        import schurroots._kernels as kernels
        assert hasattr(sr.riccati.adaptive_quad, "__wrapped__")
        assert hasattr(sr.rootsolver.resolvent_sum, "__wrapped__")
        assert hasattr(kernels.polyval_matrix, "__wrapped__")
        assert hasattr(sr.cli.solve_basic, "__wrapped__")
        assert hasattr(sr.contour.admissibility, "__wrapped__")
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert sr.config.RunConfig.__dict__["from_file"] is from_file


def _friedrichs_job(tmp_path):
    return workloads.build_jobs(sr, "zoo-solve", 0, str(tmp_path))[0]


def test_traced_solve_counts_spans(tmp_path):
    job = _friedrichs_job(tmp_path)
    tracer = tracing.Tracer(sr)
    tracer.install()
    try:
        assert cli.main(job.argv) == 0
    finally:
        tracer.uninstall()
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer.spans,
                                                          tracer.counts).items()}
    assert metrics["cli.main.calls"] == 1
    assert metrics["rootsolver.solve_basic.calls"] == 2
    assert metrics["riccati.compute_Y.calls"] == 0
    assert metrics["rootsolver.picard_iters"] > 0
    assert metrics["kernels.resolvent_sum.work"] > 0
    for name, value in metrics.items():
        if name.endswith(".self_ms"):
            assert value <= metrics[name[:-len("self_ms")] + "ms"] + 1e-9
    root_ms = metrics["cli.main.ms"]
    assert metrics["rootsolver.solve_basic.ms"] < root_ms


def test_checks_pass_good_and_catch_bad_output(tmp_path):
    job = _friedrichs_job(tmp_path)
    assert cli.main(job.argv) == 0
    report, table = checks.read_outputs(job)
    assert checks.check_outputs(sr, job, report, table) == []

    data = json.loads(report)
    data["solutions"]["+1"]["z"][0][0][1] += 1e-6
    errors = checks.check_outputs(sr, job, json.dumps(data).encode(), table)
    assert any("Friedrichs" in e for e in errors)
    assert any("conj" in e for e in errors)

    data = json.loads(report)
    data["provenance"]["wall_time_s"] = 123.0
    retimed = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()
    assert checks.comparable((retimed, None)) == checks.comparable((report, None))


def test_tail_keeps_ten_samples_beyond():
    assert worker.tail_rank(10) is None
    assert worker.tail_rank(21) == 11
    assert worker.tail_rank(400) == 390
    values = list(range(1, 101))
    assert worker.nearest_rank(values, 90.0) == 90
    assert worker.nearest_rank(values[:21], 50.0) == 11
    metrics, detail = worker.end_to_end([(k / 1e3, 2 * k / 1e3, True)
                                         for k in range(1, 34)])
    assert metrics["call_ms_tail"][0] == 23.0
    assert metrics["call_ms_p50"][0] == 17.0
    assert detail["cpu"]["call_ms_tail"] == 46.0
    assert detail["tail_percentile"] == 100.0 * 23 / 33


def test_yardstick_scales_to_the_reference_speed():
    ref = yardstick.REFERENCE_MS / 1e3
    assert yardstick.scale(0.5, ref, ref) == 0.5
    # twice as slow on average over the two yardstick runs: half the time
    assert yardstick.scale(0.5, 1.5 * ref, 2.5 * ref) == 0.25
    assert yardstick.measure() > 0


def test_meter_takes_its_yardstick_runs_out_of_a_call():
    meter = yardstick.Meter(period=0.02)

    def busy(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass
        return "done"

    start = time.thread_time()
    result, scaled, cpu = meter.time(busy, 0.2)
    total = time.thread_time() - start
    assert result == "done"
    inside = meter.spent - meter.first - meter.last
    assert inside > 0  # yardstick runs were taken during the call
    assert 0 < cpu < 0.2 < total
    assert abs(cpu + inside + meter.last - total) < 0.01
    assert scaled > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = set(tracing.layer_metrics([], {}))
    layer |= {"setup.import_s", "setup.inputs_s", "setup.warmup_s", "trace.overhead_ms"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    e2e, _ = worker.end_to_end([(0.01, 0.01, True)] * 20)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e) | {"setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pass_count_puts_the_tail_beyond_the_median(name):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    jobs = {"wide-sweep": 3, "rect-solve": 20, "zoo-verify": 11}.get(name, 21)
    passes = workloads.pass_count(name, seconds, jobs)
    assert worker.tail_rank(passes * jobs) > -(-passes * jobs // 2)
    if name == "wide-sweep":
        # one n = 16 call per pass, the slowest third of the calls
        assert worker.tail_rank(passes * jobs) > 2 * passes


def test_zoo_verify_configs_do_not_depend_on_the_seed(tmp_path):
    configs = []
    for seed in (1, 2):
        jobs = workloads.build_jobs(sr, "zoo-verify", seed, str(tmp_path / str(seed)))
        configs.append([open(job.argv[2], encoding="utf-8").read() for job in jobs])
    assert configs[0] == configs[1]
