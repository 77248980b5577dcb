"""Monte Carlo harness: KS machinery, summaries, reproducibility."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vmstat._seeding import derive_seed, reference_seed, stream
from vmstat.dynamics import MAX_N
from vmstat.fourier import FourierPoly
from vmstat.hoeffding import is_canonical
from vmstat.kernels import CircleBase, KernelTerm, MarkovBase, SeparableKernel
from vmstat.markov import MarkovChain, StateFunction
from vmstat.martingale import LimitLaw, sample_limit_law
from vmstat.mc import (
    MODES,
    ExperimentConfig,
    canonical_json_bytes,
    derive_law,
    ks_critical,
    ks_one_sample_gaussian,
    ks_two_sample,
    moment_summary,
    replica_seed,
    run_experiment,
    write_replicas_csv,
    write_summary_csv,
)

from helpers import norm_ppf, rng_for

CIRCLE = CircleBase(2)


def clt_kernel() -> SeparableKernel:
    e1 = FourierPoly({1: 1.0, -1: 1.0})
    one = FourierPoly.constant(1.0)
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, one)),
                                       KernelTerm(1.0, (one, e1))))


def degen_kernel() -> SeparableKernel:
    e1 = FourierPoly({1: 1.0})
    em1 = FourierPoly({-1: 1.0})
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),
                                       KernelTerm(1.0, (em1, e1))))


class TestSeeding:
    def test_derive_seed_is_stable_and_spread(self):
        a = derive_seed(12345, 0)
        assert a == derive_seed(12345, 0)
        outs = {derive_seed(12345, r) for r in range(1000)}
        assert len(outs) == 1000
        assert derive_seed(12345, 0) != derive_seed(12346, 0)

    def test_reference_seed_differs_from_replicas(self):
        master = 777
        ref = reference_seed(master)
        assert ref not in {derive_seed(master, r) for r in range(10_000)}

    def test_stream_reproducible(self):
        a = stream(99).random(8)
        b = stream(99).random(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
    def test_stream_is_philox_keyed_by_the_seed(self, key):
        # stream hands Philox its key words without an entropy-seeded SeedSequence
        def flat(state):
            inner = state.pop("state")
            items = {**state, **inner}
            return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in items.items()}

        ours, want = stream(key), np.random.Generator(np.random.Philox(key=key))
        assert flat(ours.bit_generator.state) == flat(want.bit_generator.state)
        raw = ours.bit_generator.random_raw(9), want.bit_generator.random_raw(9)
        assert raw[0].tobytes() == raw[1].tobytes()
        assert ours.random(5).tobytes() == want.random(5).tobytes()

    def test_import_leaves_numpy_random_unloaded(self):
        # stream makes its seed-sequence class on first use, so starting a
        # command does not import numpy.random
        code = "import sys, vmstat, vmstat.cli; print('numpy.random' in sys.modules)"
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(0, -1)


class TestKsCritical:
    def test_pinned_quantiles(self):
        assert abs(ks_critical(0.05) - 1.358) < 5e-4
        assert abs(ks_critical(0.01) - 1.628) < 5e-4

    def test_closed_form(self):
        for alpha in (0.2, 0.1, 0.02):
            assert abs(ks_critical(alpha)
                       - math.sqrt(-math.log(alpha / 2.0) / 2.0)) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            ks_critical(0.0)
        with pytest.raises(ValueError):
            ks_critical(1.0)


class TestOneSampleKs:
    def test_stratified_grid_statistic_exact(self):
        # quantiles at (i - 1/2)/N make the empirical CDF straddle the
        # target by exactly 1/(2N) at every jump
        N = 200
        samples = np.array([norm_ppf((i - 0.5) / N) for i in range(1, N + 1)])
        res = ks_one_sample_gaussian(samples, variance=1.0, alpha=0.05)
        assert abs(res["statistic"] - 0.5 / N) < 1e-9
        assert res["pass"]

    def test_scales_with_variance(self):
        N = 150
        base = np.array([norm_ppf((i - 0.5) / N) for i in range(1, N + 1)])
        res = ks_one_sample_gaussian(3.0 * base, variance=9.0, alpha=0.05)
        assert abs(res["statistic"] - 0.5 / N) < 1e-9

    def test_rejects_wrong_variance(self):
        rng = rng_for(701)
        x = rng.normal(size=2000) * 2.0
        assert not ks_one_sample_gaussian(x, variance=1.0, alpha=0.01)["pass"]

    def test_level_calibration(self):
        # under the null the rejection rate stays near alpha
        alpha, reps, n = 0.05, 200, 400
        fails = 0
        for r in range(reps):
            x = stream(derive_seed(4242, r)).normal(size=n) * math.sqrt(2.0)
            if not ks_one_sample_gaussian(x, variance=2.0, alpha=alpha)["pass"]:
                fails += 1
        assert fails <= 2 * alpha * reps

    def test_point_mass_variance_zero(self):
        zeros = np.zeros(50)
        res = ks_one_sample_gaussian(zeros, variance=0.0)
        assert res["pass"]
        res = ks_one_sample_gaussian(zeros + 1e-3, variance=0.0)
        assert not res["pass"]

    def test_report_fields(self):
        res = ks_one_sample_gaussian(np.zeros(10) + 0.1, variance=1.0, alpha=0.05)
        for key in ("name", "statistic", "threshold", "alpha", "n", "pass"):
            assert key in res


class TestTwoSampleKs:
    def test_identical_samples_pass(self):
        x = np.linspace(-1, 1, 500)
        res = ks_two_sample(x, x.copy(), alpha=0.01)
        assert res["statistic"] == 0.0
        assert res["pass"]

    def test_disjoint_samples_fail(self):
        res = ks_two_sample(np.zeros(100), np.ones(100) + 1.0, alpha=0.01)
        assert abs(res["statistic"] - 1.0) < 1e-12
        assert not res["pass"]

    def test_statistic_matches_direct_computation(self):
        rng = rng_for(702)
        a = rng.normal(size=300)
        b = rng.normal(size=450) + 0.2
        res = ks_two_sample(a, b)
        grid = np.concatenate([a, b])
        direct = max(
            abs(np.mean(a <= t) - np.mean(b <= t)) for t in grid
        )
        assert abs(res["statistic"] - direct) < 1e-12

    def test_null_calibration(self):
        alpha, reps = 0.01, 100
        passes = 0
        for r in range(reps):
            g = stream(derive_seed(737, r))
            if ks_two_sample(g.normal(size=2000), g.normal(size=2000),
                             alpha=alpha)["pass"]:
                passes += 1
        assert passes >= 98


class TestSummary:
    def test_jackknife_matches_sem_for_mean(self):
        rng = rng_for(703)
        x = rng.normal(size=500)
        out = moment_summary(x)
        assert abs(out["mean"]["value"] - float(np.mean(x))) < 1e-12
        sem = float(np.std(x, ddof=1) / math.sqrt(len(x)))
        assert abs(out["mean"]["stderr"] - sem) < 1e-10

    def test_second_and_abs_moments(self):
        x = np.array([1.0, -2.0, 3.0])
        out = moment_summary(x)
        assert abs(out["second_moment"]["value"] - (1 + 4 + 9) / 3) < 1e-12
        assert abs(out["first_abs_moment"]["value"] - 2.0) < 1e-12


class TestConfig:
    def test_mode_and_domain_validation(self):
        f = clt_kernel()
        with pytest.raises(ValueError):
            ExperimentConfig(f, "bogus", 64)
        with pytest.raises(ValueError):
            ExperimentConfig(f, "clt", 0)
        with pytest.raises(ValueError):
            ExperimentConfig(f, "clt", MAX_N + 1)
        with pytest.raises(ValueError):
            ExperimentConfig(f, "clt", 64, replicas=0)
        with pytest.raises(ValueError):
            ExperimentConfig(f, "clt", 64, alpha=1.5)

    def test_integer_fields_must_be_integers(self):
        # a float count or seed would escape as a TypeError, a bool would be written
        for bad in ({"n": 64.5}, {"replicas": 4.5}, {"seed": 1.5}, {"n": True}, {"seed": True}):
            fields = {"n": 64, **bad}
            with pytest.raises(ValueError, match="must be an integer"):
                ExperimentConfig(clt_kernel(), "clt", **fields)
        cfg = ExperimentConfig(clt_kernel(), "clt", np.int64(64), replicas=np.int32(4),
                               seed=np.uint64(2 ** 64 - 1))
        assert canonical_json_bytes(cfg.to_json_dict()) == canonical_json_bytes(
            ExperimentConfig(clt_kernel(), "clt", 64, replicas=4, seed=2 ** 64 - 1).to_json_dict())
        assert all(type(v) is int for v in (cfg.n, cfg.replicas, cfg.seed))

    def test_circle_system_validated(self):
        with pytest.raises(ValueError):
            CircleBase(m=1)
        # an experiment has no window: its trajectories are 64 digits wide
        with pytest.raises(TypeError, match="window"):
            ExperimentConfig(clt_kernel(), "clt", 64, window=64)
        cfg = ExperimentConfig(clt_kernel(), "clt", 64)
        assert cfg.to_json_dict()["system"] == {"kind": "circle", "m": 2}
        assert tuple(cfg.system) == (2, 64)
        f = SeparableKernel(1, CircleBase(257), (KernelTerm(1.0, (FourierPoly({1: 1.0}),)),))
        with pytest.raises(ValueError, match="between 2 and 256"):
            ExperimentConfig(f, "slln", 64)

    @pytest.mark.parametrize("mode", ["slln", "clt", "degen"])
    def test_master_seed_fits_in_64_bits(self, mode):
        # rejected when the config is built, before any law or replica
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="master seed must fit in 64 bits"):
                ExperimentConfig(degen_kernel(), mode, 64, seed=seed)
        assert ExperimentConfig(degen_kernel(), mode, 64, seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_law_derivation_clt(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 64)
        law = derive_law(cfg)
        assert law.kind == "gaussian"
        assert abs(law.variance - 8.0) < 1e-9

    def test_law_derivation_degen(self):
        cfg = ExperimentConfig(degen_kernel(), "degen", 64)
        law = derive_law(cfg)
        assert law.kind == "wcs"
        assert np.allclose(law.lambdas, [1.0, 1.0], atol=1e-9)

    def test_explicit_comparison_wins(self):
        law = LimitLaw.gaussian(5.0)
        cfg = ExperimentConfig(clt_kernel(), "clt", 64,
                               comparison=law)
        assert derive_law(cfg) == law

    def test_clt_comparison_must_be_gaussian(self):
        wcs = LimitLaw.weighted_chi_square([1.0, 1.0])
        with pytest.raises(ValueError, match="comparison"):
            ExperimentConfig(clt_kernel(), "clt", 64, comparison=wcs)
        # the two-sample test of degen samples either kind
        for law in (wcs, LimitLaw.gaussian(2.0)):
            cfg = ExperimentConfig(degen_kernel(), "degen", 64, comparison=law)
            assert derive_law(cfg) == law
        # the slln band reads no law
        with pytest.raises(ValueError, match="comparison"):
            ExperimentConfig(clt_kernel(), "slln", 64, comparison=wcs)

    def test_markov_degen_needs_explicit_law(self):
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(2, MarkovBase(chain),
                            (KernelTerm(1.0, (u, u)),))
        cfg = ExperimentConfig(f, "degen", 64)
        with pytest.raises(ValueError):
            derive_law(cfg)


class TestRunExperiment:
    def test_clt_small_run_passes(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 512,
                               replicas=400, seed=5)
        res = run_experiment(cfg)
        assert res.passed
        assert res.law.variance == pytest.approx(8.0, abs=1e-9)
        assert len(res.values) == 400
        assert abs(res.summary["second_moment"]["value"] - 8.0) < 1.5

    def test_replica_values_are_seeded_independently(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 256,
                               replicas=600, seed=8)
        res = run_experiment(cfg)
        v = res.values
        rho = float(np.corrcoef(v[:-1], v[1:])[0, 1])
        assert abs(rho) < 4.0 / math.sqrt(len(v))
        assert replica_seed(cfg, 3) == derive_seed(8, 3)

    def test_degen_two_sample_route(self):
        cfg = ExperimentConfig(degen_kernel(), "degen", 512,
                               replicas=400, seed=5)
        res = run_experiment(cfg)
        assert res.passed
        assert res.test["name"] == "ks_two_sample"
        assert abs(res.summary["mean"]["value"] - 2.0) < 0.3

    def test_slln_band_test(self):
        e1 = FourierPoly({1: 1.0})
        em1 = FourierPoly({-1: 1.0})
        one = FourierPoly.constant(1.0)
        f = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (e1, em1)),
            KernelTerm(1.0, (em1, e1)),
            KernelTerm(0.7, (one, one)),
        ))
        cfg = ExperimentConfig(f, "slln", 20_000,
                               replicas=40, seed=2)
        res = run_experiment(cfg)
        assert res.test["name"] == "slln_within_band"
        assert res.passed
        assert abs(res.summary["mean"]["value"] - 0.7) < 0.02

    def test_growth_mode(self):
        # the growth diagnostic draws no trajectory: it is the CLI's growth
        # command, not an experiment mode
        assert MODES == ("slln", "clt", "degen")
        with pytest.raises(ValueError, match="mode must be one of"):
            ExperimentConfig(degen_kernel(), "growth", 256, replicas=1)

    def test_markov_clt_run(self):
        chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(chain),
                            (KernelTerm(1.0, (u,)),))
        cfg = ExperimentConfig(f, "clt", 1024,
                               replicas=300, seed=6)
        res = run_experiment(cfg)
        assert res.passed
        assert res.law.variance == pytest.approx(3.0, abs=1e-12)
        assert abs(res.summary["second_moment"]["value"] - 3.0) < 0.5


class TestDeterminism:
    def test_same_config_same_bytes(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 128,
                               replicas=60, seed=3)
        a = run_experiment(cfg).to_json_bytes()
        b = run_experiment(cfg).to_json_bytes()
        assert a == b

    def test_workers_do_not_change_bytes(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 128,
                               replicas=64, seed=3)
        a = run_experiment(cfg, workers=1).to_json_bytes()
        b = run_experiment(cfg, workers=4).to_json_bytes()
        assert a == b

    def test_workers_do_not_change_markov_bytes(self):
        # each worker steps its own chunk of replicas in lockstep
        chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(chain), (KernelTerm(1.0, (u,)),))
        cfg = ExperimentConfig(f, "clt", 300, replicas=64, seed=3)
        a = run_experiment(cfg, workers=1).to_json_bytes()
        b = run_experiment(cfg, workers=2).to_json_bytes()
        assert a == b

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        seen = []

        class InProcessPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("vmstat.mc.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        cfg = ExperimentConfig(clt_kernel(), "clt", 64,
                               replicas=40, seed=3)
        serial = run_experiment(cfg, workers=1).to_json_bytes()
        assert run_experiment(cfg, workers=16).to_json_bytes() == serial
        assert seen == [2]
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert run_experiment(cfg, workers=16).to_json_bytes() == serial
        assert seen == [2]

    def test_canonicity_checked_once_per_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr("vmstat.dynamics.is_canonical",
                            lambda f, *a, **k: calls.append(f) or is_canonical(f, *a, **k))
        cfg = ExperimentConfig(degen_kernel(), "degen", 64,
                               replicas=8, seed=2)
        run_experiment(cfg, workers=1)
        assert len(calls) == 1

    def test_timing_not_serialized(self):
        cfg = ExperimentConfig(clt_kernel(), "clt", 64,
                               replicas=8, seed=1)
        res = run_experiment(cfg)
        assert res.timing > 0.0
        assert b"timing" not in res.to_json_bytes()

    def test_canonical_json_shape(self):
        b = canonical_json_bytes({"b": 1, "a": [1.5, None]})
        assert b == b'{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'

    def test_reference_sample_is_seed_stable(self):
        law = LimitLaw.weighted_chi_square([1.0, 1.0])
        a = sample_limit_law(law, 1000, reference_seed(5))
        b = sample_limit_law(law, 1000, reference_seed(5))
        assert np.array_equal(a, b)


class TestCsv:
    def test_replicas_and_summary_files(self, tmp_path):
        cfg = ExperimentConfig(clt_kernel(), "clt", 64,
                               replicas=10, seed=4)
        res = run_experiment(cfg)
        rp = tmp_path / "replicas.csv"
        sp = tmp_path / "summary.csv"
        write_replicas_csv(res, rp)
        write_summary_csv(res, sp)
        lines = rp.read_text().strip().splitlines()
        assert lines[0] == "replica,seed,value"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert int(first[1]) == replica_seed(cfg, 0)
        assert abs(float(first[2]) - res.values[0]) < 1e-12
        stext = sp.read_text()
        assert stext.splitlines()[0] == "metric,value,stderr"
        assert "second_moment" in stext
