"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Each criterion states its tolerance and runtime budget inline;
nothing here is weakened relative to the library's documented claims.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from vmstat._seeding import derive_seed
from vmstat.fourier import FourierPoly, apply_koopman, apply_transfer
from vmstat.hoeffding import hoeffding_components, is_canonical, symmetric_parts
from vmstat.kernels import (
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    diag_restrict,
    kernel_add,
    kernel_mean,
    kernels_allclose,
    partition_restrict,
    projective_bound,
    zero_kernel,
)
from vmstat.markov import MarkovChain, StateFunction, mixing_coefficients
from vmstat.martingale import (
    GROWTH_CONSTANT_D2,
    adjoint_series_sum,
    clt_variance,
    growth_bound,
    growth_ratios,
    martingale_coboundary_d2,
    reconstruct_from_parts,
    spectral_decompose,
)
from vmstat.dynamics import gen_madic_trajectory, normalized_stat, vstat_fast, vstat_naive
from vmstat.mc import ExperimentConfig, run_experiment

from helpers import (
    c02_kernels,
    c09_kernels,
    random_canonical_pair_kernel,
    random_ergodic_chain,
    random_poly,
    random_state_function,
    rng_for,
)

CIRCLE = CircleBase(2)


def report(num: int, ok: bool, desc: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def clt_example_kernel() -> SeparableKernel:
    e1 = FourierPoly({1: 1.0, -1: 1.0})
    one = FourierPoly.constant(1.0)
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, one)),
                                       KernelTerm(1.0, (one, e1))))


def degen_example_kernel() -> SeparableKernel:
    e1 = FourierPoly({1: 1.0})
    em1 = FourierPoly({-1: 1.0})
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),
                                       KernelTerm(1.0, (em1, e1))))


def growth_example_kernel() -> SeparableKernel:
    e2 = FourierPoly({2: 1.0})
    em2 = FourierPoly({-2: 1.0})
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e2, em2)),
                                       KernelTerm(1.0, (em2, e2))))


@pytest.fixture(scope="module")
def clt_run():
    cfg = ExperimentConfig(clt_example_kernel(), "clt",
                           n=4096, replicas=2000, seed=0, alpha=0.01)
    return run_experiment(cfg)


def test_c01_operator_identities():
    # 1000 random polynomials, m in {2, 3, 5}: the adjoint undoes
    # composition exactly and the reverse order is the divisible-mode
    # projection; coefficient tolerance 1e-12, budget 1 s
    t0 = time.perf_counter()
    rng = rng_for(1001)
    tol = 1e-12
    ok = True
    for i in range(1000):
        m = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        p = random_poly(rng, max_abs_mode=30, n_modes=4)
        q = p
        for _ in range(k):
            q = apply_koopman(q, m)
        back = q
        for _ in range(k):
            back = apply_transfer(back, m)
        ok = ok and back.allclose(p, tol=tol)
        proj = p
        for _ in range(k):
            proj = apply_transfer(proj, m)
        for _ in range(k):
            proj = apply_koopman(proj, m)
        want = FourierPoly({mode: c for mode, c in p.items()
                            if mode % m**k == 0})
        ok = ok and proj.allclose(want, tol=tol)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(1, ok, f"composition/adjoint identities on 1000 polynomials "
                         f"(tol 1e-12, {elapsed:.2f}s < 1s)")


def test_c02_hoeffding_complete_and_canonical():
    # 500 random symmetric kernels (up to arity 4, up to 20 terms, both
    # bases): projections sum back to the kernel coefficientwise at
    # 1e-12 and every symmetric part is canonical; budget 10 s
    t0 = time.perf_counter()
    tol = 1e-12
    ok = True
    for f in c02_kernels():
        comp = hoeffding_components(f)
        total = zero_kernel(f.arity, f.base)
        for piece in comp.values():
            total = kernel_add(total, piece)
        ok = ok and kernels_allclose(total, f, tol=tol)
        parts = symmetric_parts(f)
        for level in parts.levels:
            ok = ok and is_canonical(level, tol=tol)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(2, ok, f"Hoeffding completeness and canonicity on 500 kernels "
                         f"(tol 1e-12, {elapsed:.2f}s < 10s)")


def test_c03_fast_equals_naive():
    # randomized evaluator cross-check on both bases, d <= 3, n <= 200,
    # relative tolerance 1e-9; budget 30 s
    t0 = time.perf_counter()
    rng = rng_for(1003)
    ok = True
    chain = random_ergodic_chain(rng, 4)
    cases = []
    for d, n in [(1, 200), (1, 97), (2, 150), (2, 64), (3, 60), (3, 40), (3, 200)]:
        cases.append(("circle", d, n))
        cases.append(("markov", d, n if n < 200 or d < 3 else 100))
    for kind, d, n in cases:
        if kind == "circle":
            u = random_poly(rng, n_modes=3, real=True)
            v = random_poly(rng, n_modes=2, real=True)
            f = SeparableKernel(d, CIRCLE, (
                KernelTerm(float(rng.normal()), tuple([u] * d)),
                KernelTerm(float(rng.normal()), tuple([v] + [u] * (d - 1))),
            ))
            traj = gen_madic_trajectory(2, n, seed=derive_seed(1003, n + d))
        else:
            u = random_state_function(rng, 4)
            v = random_state_function(rng, 4)
            f = SeparableKernel(d, MarkovBase(chain), (
                KernelTerm(float(rng.normal()), tuple([u] * d)),
                KernelTerm(float(rng.normal()), tuple([v] + [u] * (d - 1))),
            ))
            from vmstat.dynamics import gen_markov_trajectory

            traj = gen_markov_trajectory(chain, n, seed=derive_seed(1003, n + d))
        a = vstat_naive(f, traj, n)
        b = vstat_fast(f, traj, n)
        ok = ok and abs(a - b) <= 1e-9 * max(1.0, abs(a))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report(3, ok, f"direct and factorized sums agree on {len(cases)} cases "
                         f"(rel tol 1e-9, {elapsed:.2f}s < 30s)")


def test_c04_slln_band():
    # kernel 2 cos(2 pi (x - y)) + 0.7 at n = 100000: the normalized sum
    # lands within 0.05 of 0.7 for at least 95 of 100 master seeds;
    # budget 60 s
    t0 = time.perf_counter()
    e1 = FourierPoly({1: 1.0})
    em1 = FourierPoly({-1: 1.0})
    one = FourierPoly.constant(1.0)
    f = SeparableKernel(2, CIRCLE, (
        KernelTerm(1.0, (e1, em1)),
        KernelTerm(1.0, (em1, e1)),
        KernelTerm(0.7, (one, one)),
    ))
    n = 100_000
    hits = 0
    for s in range(100):
        traj = gen_madic_trajectory(2, n, seed=derive_seed(s, 0))
        stat = normalized_stat(f, traj, n, "slln")
        if abs(stat - 0.7) <= 0.05:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 60.0
    assert report(4, ok, f"law of large numbers band: {hits}/100 seeds within "
                         f"0.05 of 0.7 at n=100000 ({elapsed:.2f}s < 60s)")


def test_c05_clt_gaussian_limit(clt_run):
    # kernel 2 cos(2 pi x) + 2 cos(2 pi y): derived law is Gaussian with
    # variance 8; KS test at alpha = 0.01 over 2000 replicas of n = 4096
    # passes and the second moment is within 10% of 8; budget 120 s
    res = clt_run
    ok = res.law.kind == "gaussian"
    ok = ok and abs(res.law.variance - 8.0) <= 1e-9
    ok = ok and res.passed
    m2 = res.summary["second_moment"]["value"]
    ok = ok and abs(m2 - 8.0) <= 0.8
    ok = ok and res.timing < 120.0
    assert report(5, ok, f"Gaussian limit: KS D={res.test['statistic']:.4f} < "
                         f"{res.test['threshold']:.4f}, second moment {m2:.3f} "
                         f"within 10% of 8 ({res.timing:.2f}s < 120s)")


def test_c06_first_absolute_moment(clt_run):
    # same run: E|V_n| approaches sqrt(8) sqrt(2/pi) = 2.2568 within 10%
    want = math.sqrt(8.0) * math.sqrt(2.0 / math.pi)
    got = clt_run.summary["first_abs_moment"]["value"]
    ok = abs(got - want) <= 0.1 * want
    assert report(6, ok, f"first absolute moment {got:.4f} within 10% of {want:.4f}")


def test_c07_degenerate_limit():
    # kernel 2 cos(2 pi (x - y)): derived law is the weighted chi-square
    # with weights (1, 1); two-sample KS against 20000 reference draws at
    # alpha = 0.01 passes and the mean is within 5% of 2; budget 120 s
    cfg = ExperimentConfig(degen_example_kernel(), "degen",
                           n=4096, replicas=2000, seed=0, alpha=0.01)
    res = run_experiment(cfg)
    ok = res.law.kind == "wcs"
    ok = ok and np.allclose(res.law.lambdas, [1.0, 1.0], atol=1e-9)
    ok = ok and res.test["name"] == "ks_two_sample"
    ok = ok and res.test["n_b"] == 20_000
    ok = ok and res.passed
    mean = res.summary["mean"]["value"]
    ok = ok and abs(mean - 2.0) <= 0.1
    ok = ok and res.timing < 120.0
    assert report(7, ok, f"degenerate limit: KS D={res.test['statistic']:.4f} < "
                         f"{res.test['threshold']:.4f}, mean {mean:.3f} within "
                         f"5% of 2 ({res.timing:.2f}s < 120s)")


def test_c08_decomposition_reconstructs():
    # 200 random canonical arity-2 kernels: the four-part splitting
    # reconstructs the kernel coefficientwise at 1e-12; budget 10 s
    t0 = time.perf_counter()
    rng = rng_for(1008)
    tol = 1e-12
    ok = True
    for _ in range(200):
        f = random_canonical_pair_kernel(rng, n_pairs=int(rng.integers(1, 5)))
        parts = martingale_coboundary_d2(f)
        ok = ok and kernels_allclose(reconstruct_from_parts(parts), f, tol=tol)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(8, ok, f"martingale-coboundary reconstruction on 200 kernels "
                         f"(tol 1e-12, {elapsed:.2f}s < 10s)")


def test_c09_trace_identity():
    # eigenvalue sum of the martingale part equals the mean of its
    # diagonal restriction at 1e-10, on 100 random canonical kernels
    t0 = time.perf_counter()
    ok = True
    for f in c09_kernels():
        g0 = martingale_coboundary_d2(f).martingale
        lam_sum = sum(lam for lam, _ in spectral_decompose(g0))
        diag = diag_restrict(g0)
        diag_mean = float(diag.coeff(0).real)
        ok = ok and abs(lam_sum - diag_mean) <= 1e-10
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    assert report(9, ok, f"trace identity eigensum = diagonal mean on 100 kernels "
                         f"(tol 1e-10, {elapsed:.2f}s)")


def test_c10_markov_variance():
    # two-state symmetric chain with a = b = 1/4 and f = (1, -1): the
    # Poisson-equation variance is exactly 3 (tol 1e-12) and the Monte
    # Carlo variance of the normalized sums is within 10%; budget 120 s
    t0 = time.perf_counter()
    chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
    f_obs = StateFunction(np.array([1.0, -1.0]))
    kernel = SeparableKernel(1, MarkovBase(chain), (KernelTerm(1.0, (f_obs,)),))
    sigma2 = clt_variance(kernel)
    ok = abs(sigma2 - 3.0) <= 1e-12
    cfg = ExperimentConfig(kernel, "clt",
                           n=4096, replicas=2000, seed=0, alpha=0.01)
    res = run_experiment(cfg)
    mc_var = float(np.var(res.values))
    ok = ok and abs(mc_var - 3.0) <= 0.3
    ok = ok and res.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert report(10, ok, f"chain variance exact 3 and Monte Carlo variance "
                          f"{mc_var:.3f} within 10% ({elapsed:.2f}s < 120s)")


def test_c11_mixing_closed_forms():
    # same chain: psi(n) = 2^-n and phi(n) = 2^-(n+1) for n = 1..20,
    # tolerance 1e-12
    chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
    table = mixing_coefficients(chain, 20)
    ok = True
    for n in range(1, 21):
        ok = ok and abs(table[n, 2] - 2.0 ** -n) <= 1e-12
        ok = ok and abs(table[n, 1] - 2.0 ** -(n + 1)) <= 1e-12
    assert report(11, ok, "mixing coefficients match closed forms for n=1..20 "
                          "(tol 1e-12)")


def test_c12_partition_restriction():
    # kernel e_1 x e_-1: every level-n arc value equals sinc^2(pi 2^-n)
    # within 1e-8 for n <= 12, and the distance to 1 decreases in n
    f = SeparableKernel(2, CIRCLE, (
        KernelTerm(1.0, (FourierPoly({1: 1.0}), FourierPoly({-1: 1.0}))),))
    ok = True
    prev_gap = None
    for n in range(1, 13):
        h = 2.0 ** -n
        want = (math.sin(math.pi * h) / (math.pi * h)) ** 2
        step = partition_restrict(f, n)
        ok = ok and float(np.max(np.abs(step.values - want))) <= 1e-8
        gap = abs(float(step.values[0]) - 1.0)
        if prev_gap is not None:
            ok = ok and gap < prev_gap
        prev_gap = gap
    assert report(12, ok, "partition restriction matches sinc^2(pi 2^-n) for "
                          "n<=12 (tol 1e-8) and converges monotonically to 1")


def test_c13_worker_determinism():
    # identical result bytes with 1 worker and with the maximum worker
    # count; replica seeds make the schedule irrelevant
    workers = max(2, min(os.cpu_count() or 1, 8))
    cfg = ExperimentConfig(clt_example_kernel(), "clt",
                           n=512, replicas=200, seed=9, alpha=0.01)
    a = run_experiment(cfg, workers=1).to_json_bytes()
    b = run_experiment(cfg, workers=workers).to_json_bytes()
    ok = a == b
    assert report(13, ok, f"result bytes identical with 1 and {workers} workers")


def test_c14_growth_ratios_bounded():
    # diagonal growth diagnostic for e_2 x e_-2 + its transpose: every
    # dyadic ratio up to n = 2^10 stays below the documented constant
    # times the projective norm of the summed series
    f = growth_example_kernel()
    ratios = growth_ratios(f, max_exponent=10)
    bound = growth_bound(f)
    g = adjoint_series_sum(f)
    ok = abs(bound - GROWTH_CONSTANT_D2 * projective_bound(g, 2.0)) <= 1e-12
    worst = max(r for _, r in ratios)
    ok = ok and worst <= bound
    ok = ok and abs(dict(ratios)[2] - 2.0) <= 1e-9
    assert report(14, ok, f"growth ratios bounded: max {worst:.3f} <= {bound:.1f} "
                          f"over dyadic n up to 1024")
