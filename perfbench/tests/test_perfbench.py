"""Tests of the benchmark itself: configs, metric names, span arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibration as cal
import corpus
import harness
import tracer as tr
import vmstat.cli as cli
import vmstat.mc as mc

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


def _config(exp, seed=0, replicas=None):
    _, parsed = cli.parse_config(exp.data(seed, replicas))
    return mc.ExperimentConfig(**parsed)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_configs_parse(name):
    assert name in {w["name"] for w in BENCH["workloads"]}
    for exp in harness.WORKLOADS[name]:
        cfg = _config(exp, seed=7)
        assert cfg.seed == 7
        assert cfg.mode == json.loads((harness.CONFIGS / exp.config).read_text())["mode"]


def test_tripling_variant_is_accepted():
    (exp,) = [e for e in harness.WORKLOADS["simulate"] if e.m == 3]
    cfg = _config(exp)
    assert cfg.system.m == 3 and cfg.kernel.base.m == 3


def test_end_to_end_names_and_units_match_benchmark_json():
    assert set(harness.E2E_UNITS) == set(E2E)
    for name, unit in harness.E2E_UNITS.items():
        assert E2E[name]["unit"] == unit
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"


def _tiny_traced_run():
    """One traced iteration of a small circle experiment; returns metrics and bytes."""
    (exp,) = [e for e in harness.WORKLOADS["simulate"] if e.name == "clt_doubling"]
    data = exp.data(0, replicas=4)
    data["n"] = 64
    untraced = harness.mc_iteration([data])[0].to_json_bytes()
    t = tr.Tracer()
    patched = tr.instrument(t)
    try:
        with t.record(0):
            traced = harness.mc_iteration([data])[0].to_json_bytes()
    finally:
        tr.restore(patched)
    return tr.iteration_metrics(t, 0), untraced, traced


def test_traced_metric_names_match_benchmark_json():
    metrics, untraced, traced = _tiny_traced_run()
    emitted = set(metrics) | {"trace.overhead_frac", "trace.coverage_gaps"}
    assert emitted == set(PER_LAYER)
    for name in emitted:
        assert PER_LAYER[name]["unit"] == harness.unit_of(name)
    assert untraced == traced
    assert tr.leftover_wrappers() == []
    assert metrics["dynamics.gen_traj.calls"] == 4
    assert metrics["fourier.evaluate.exp_count"] == 4 * 64 * (2 + 2 + 1 + 1)


def test_expected_layers_cover_every_layer():
    covered = {layer for layers in harness.EXPECTED_LAYERS.values() for layer in layers}
    assert covered == set(tr.LAYERS)


def _synthetic(spans):
    """Tracer holding (name, start, end, parent, extra) spans of iteration 0."""
    t = tr.Tracer()
    for name, start, end, parent, extra in spans:
        code = t.name_code.setdefault(name, len(t.names))
        if code == len(t.names):
            t.names.append(name)
        t.code.append(code)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.iteration.append(0)
        t.extra.append(extra)
    return t


def test_self_times_on_nested_trace():
    # root [0,10] > a [1,5] > b [2,3]; root > c [6,9]
    start, end, parent = [0.0, 1.0, 2.0, 6.0], [10.0, 5.0, 3.0, 9.0], [-1, 0, 1, 0]
    assert tr.self_times(start, end, parent).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_iteration_metrics_on_synthetic_trace():
    t = _synthetic([
        (tr.ITERATION, 0.0, 10.0, -1, 0),
        ("dynamics.eval", 1.0, 5.0, 0, 0),
        ("kernels.kernel_mean", 1.5, 2.0, 1, 111),
        ("dynamics.eval", 2.5, 4.5, 1, 0),
        ("fourier.evaluate", 3.0, 4.0, 3, 12),
        ("dynamics.eval", 5.5, 6.0, 0, 0),
        ("kernels.kernel_mean", 5.6, 5.8, 5, 111),
        ("hoeffding.is_symmetric", 6.0, 9.0, 0, 0),
        ("hoeffding.asymmetry_witness", 7.0, 8.0, 7, 0),
        ("martingale.law", 9.0, 9.5, 0, 0),
    ])
    m = tr.iteration_metrics(t, 0)
    assert m["dynamics.eval.calls"] == 3
    # (4 - 0.5 - 2) + (2 - 1) + (0.5 - 0.2)
    assert m["dynamics.eval.self_s"] == pytest.approx(2.8)
    assert m["fourier.evaluate.exp_count"] == 12
    assert m["dynamics.eval.law_rechecks"] == 2
    assert m["dynamics.eval.law_recheck_s"] == pytest.approx(0.7)
    assert m["dynamics.eval.law_recheck_useful_ratio"] == 0.5
    assert m["hoeffding.symmetry_fallback_ratio"] == 1.0
    assert m["martingale.law_s"] == pytest.approx(0.5)
    assert m["trace.spans"] == 9
    # root covers 10 s; its children cover 4 + 0.5 + 3 + 0.5
    assert m["trace.unattributed_frac"] == pytest.approx(0.2)


def test_scaled_time_on_synthetic_samples():
    # samples of 1, 2 and 4 units; the work runs from 10 to 20 around the last two
    samples = [(0.0, 1.0), (12.0, 14.0), (16.0, 20.0)]
    work, scaled = cal.scaled_time(samples, 10.0, 20.0, ref=2.0)
    assert work == pytest.approx(4.0)
    # 2 units ended by the 2-unit sample at speed 1; 2 units ended by the 4-unit one at half speed
    assert scaled == pytest.approx(2.0 + 2.0 * 2.0 / 4.0)
    # no sample inside: the latest one before scales the whole interval
    assert cal.scaled_time(samples, 1.0, 5.0, ref=2.0) == pytest.approx((4.0, 8.0))
    with pytest.raises(ValueError):
        cal.scaled_time([(5.0, 6.0)], 1.0, 4.0)


def test_calibration_leaves_results_unchanged():
    (exp,) = [e for e in harness.WORKLOADS["simulate"] if e.name == "clt_markov"]
    data = exp.data(0, replicas=3)
    plain = harness.mc_iteration([data])[0].to_json_bytes()
    c = cal.Calibration(period=0.001)
    with c:
        t0 = time.perf_counter()
        sampled = harness.mc_iteration([data])[0].to_json_bytes()
        t1 = time.perf_counter()
    assert sampled == plain
    assert len(c.samples) > 2
    work, scaled = c.scaled(t0, t1)
    assert 0.0 < work < t1 - t0 and scaled > 0.0


def test_corpora_match_the_acceptance_suite():
    helpers = pytest.importorskip("helpers", reason="needs tests/ on the path")
    rng = helpers.rng_for(1009)
    want = [helpers.random_canonical_pair_kernel(rng, n_pairs=3) for _ in range(corpus.C09_KERNELS)]
    got = corpus.c09_corpus()
    assert [f.to_json_dict() for f in got] == [f.to_json_dict() for f in want]

    rng = helpers.rng_for(1002)
    chain = helpers.random_ergodic_chain(rng, 4)
    want = []
    for i in range(corpus.C02_KERNELS):
        d = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.40, 0.30, 0.15]))
        if i % 5 == 0:
            want.append(helpers.random_symmetric_markov_kernel(rng, d, chain, max_terms=20))
        else:
            want.append(helpers.random_symmetric_circle_kernel(rng, d, max_terms=20))
    got = corpus.c02_corpus()
    assert [f.to_json_dict() for f in got] == [f.to_json_dict() for f in want]


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
