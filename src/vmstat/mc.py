"""Reproducible Monte Carlo verification of limit laws.

An experiment fixes a kernel, whose base is the system simulated, the
limit theorem it checks (MODES: slln, clt, degen), a length n, a
replica count and a master seed.  (The growth diagnostic draws no
trajectory, so it is an analysis command of vmstat.cli, not a mode.)
Replica r draws its trajectory from a stream keyed by derive_seed(master,
r), and the base computes the statistics (CircleBase.statistics,
MarkovBase.statistics), so the value vector is a pure function of the
configuration: worker count and scheduling cannot change any byte of
the output.
Distributional agreement is checked with Kolmogorov-Smirnov statistics
against the derived (or explicitly supplied) limit law; moments come
with leave-one-out standard errors.

Wall-clock timing is kept on the in-memory result only; the canonical
JSON serialization excludes it so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._seeding import derive_seed, reference_seed
from .dynamics import MAX_N, normalization
from .hoeffding import symmetric_parts
from .kernels import CircleBase, SeparableKernel, kernel_mean
from .martingale import LimitLaw, clt_variance, degenerate_limit_law, sample_limit_law

MODES = ("slln", "clt", "degen")

#: slln acceptance band around the limit and required in-band fraction
SLLN_BAND = 0.05
SLLN_FRACTION = 0.95

#: reference sample multiplier for two-sample comparisons
REFERENCE_FACTOR = 10


#: what ExperimentConfig.system gives, the records perfbench/harness.py reads;
#: they go with the next change to the benchmark (ROADMAP item 2)
CircleSystem = namedtuple("CircleSystem", "m window")
MarkovSystem = namedtuple("MarkovSystem", "chain")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A run on the kernel's base."""

    kernel: SeparableKernel
    mode: str
    n: int
    replicas: int = 2000
    seed: int = 0
    alpha: float = 0.01
    comparison: LimitLaw | None = None  # None derives the law from the kernel

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n", "replicas", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        derive_seed(self.seed, 0)  # rejects a master seed outside [0, 2^64)
        self.kernel.base.system()  # bounds the circle's m
        # degen's two-sample test can sample any law; clt's KS test needs a
        # variance; the slln band reads none
        law = self.comparison
        if self.mode == "clt" and law is not None and law.kind != "gaussian":
            raise ValueError("clt needs a Gaussian comparison law")
        if self.mode == "slln" and law is not None:
            raise ValueError("slln takes no comparison law")

    @property
    def system(self) -> CircleSystem | MarkovSystem:
        base = self.kernel.base
        if isinstance(base, CircleBase):
            return CircleSystem(base.m, 64)  # gen_madic_trajectory's default window
        return MarkovSystem(base.chain)

    def to_json_dict(self) -> dict:
        return {
            "system": self.kernel.base.system(),
            "kernel": self.kernel.to_json_dict(),
            "mode": self.mode,
            "n": self.n,
            "replicas": self.replicas,
            "seed": self.seed,
            "alpha": self.alpha,
            "comparison": "auto" if self.comparison is None else self.comparison.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    law: LimitLaw | None
    values: np.ndarray
    summary: dict
    test: dict
    timing: float = 0.0  # seconds; not part of the canonical serialization

    @property
    def passed(self) -> bool:
        return bool(self.test["pass"])

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "law": None if self.law is None else self.law.to_json_dict(),
            "values": [float(v) for v in self.values],
            "summary": self.summary,
            "test": self.test,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


def canonical_json_bytes(obj) -> bytes:
    """Stable serialization: sorted keys, two-space indent, trailing newline.

    Raises ValueError on a NaN or infinite float, which JSON cannot hold,
    naming the key path of the first one in output order.
    """
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:
        path = _non_finite_path(obj)
        if path is None:
            raise
        raise ValueError(f"output field {path or '(top level)'}: {exc}") from None
    return (text + "\n").encode()


def _non_finite_path(obj, path: str = ""):
    """Key path (a.b[2]) of obj's first NaN or infinite float in sorted key order, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for key, value in items:
        found = _non_finite_path(value, key)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery


def ks_critical(alpha: float) -> float:
    """Asymptotic Kolmogorov quantile c(alpha) = sqrt(-ln(alpha/2)/2).

    c(0.05) = 1.358 and c(0.01) = 1.628 to three decimals; see
    docs/constants.md.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])


def ks_one_sample_gaussian(samples, variance: float, alpha: float = 0.01) -> dict:
    """One-sample KS test of samples against the centered Gaussian law.

    The statistic is the exact supremum of |F_emp - F| over the jump
    points.  Zero variance compares against the point mass at zero.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n < 1:
        raise ValueError("need at least one sample")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0.0:
        d = float(np.max(np.abs(x)))
        threshold = 1e-6
        passed = d < threshold
    else:
        cdf = _normal_cdf(x / math.sqrt(variance))
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        d = float(max(upper.max(), lower.max()))
        threshold = ks_critical(alpha) / math.sqrt(n)
        passed = d <= threshold
    return {
        "name": "ks_gaussian",
        "statistic": d,
        "threshold": threshold,
        "alpha": alpha,
        "n": n,
        "pass": bool(passed),
    }


def ks_two_sample(a, b, alpha: float = 0.01) -> dict:
    """Two-sample KS test with the asymptotic threshold."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = len(a), len(b)
    if na < 1 or nb < 1:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / na
    fb = np.searchsorted(b, grid, side="right") / nb
    d = float(np.max(np.abs(fa - fb)))
    threshold = ks_critical(alpha) * math.sqrt((na + nb) / (na * nb))
    return {
        "name": "ks_two_sample",
        "statistic": d,
        "threshold": threshold,
        "alpha": alpha,
        "n_a": na,
        "n_b": nb,
        "pass": bool(d <= threshold),
    }


def _jackknife_mean(h: np.ndarray) -> tuple[float, float]:
    n = len(h)
    total = float(h.sum())
    mean = total / n
    if n == 1:
        return mean, 0.0
    loo = (total - h) / (n - 1)
    se = math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))
    return mean, se


def moment_summary(values) -> dict:
    """Mean, raw second moment and first absolute moment with jackknife errors."""
    v = np.asarray(values, dtype=np.float64)
    out = {}
    for name, h in (
        ("mean", v),
        ("second_moment", v ** 2),
        ("first_abs_moment", np.abs(v)),
    ):
        est, se = _jackknife_mean(h)
        out[name] = {"value": est, "stderr": se}
    return out


# ---------------------------------------------------------------------------
# experiment driver


def derive_law(cfg: ExperimentConfig) -> LimitLaw | None:
    """Limit law implied by the kernel, or the explicitly requested one."""
    if cfg.comparison is not None:
        return cfg.comparison
    if cfg.mode == "clt":
        parts = symmetric_parts(cfg.kernel)
        d = cfg.kernel.arity
        sigma2 = clt_variance(parts.levels[0])
        return LimitLaw.gaussian(d * d * sigma2)
    if cfg.mode == "degen":
        if not isinstance(cfg.kernel.base, CircleBase):
            raise ValueError(
                "the degenerate law is derived through the circle-base decomposition; "
                "pass an explicit comparison law for markov kernels"
            )
        return degenerate_limit_law(cfg.kernel)
    return None


def replica_seed(cfg: ExperimentConfig, r: int) -> int:
    return derive_seed(cfg.seed, r)


def _replica_values(cfg: ExperimentConfig, indices) -> list[float]:
    shift, scale = normalization(cfg.kernel, cfg.n, cfg.mode)
    keys = [replica_seed(cfg, r) for r in indices]
    stats = cfg.kernel.base.statistics(cfg.kernel, cfg.n, keys)
    return [(s - shift) / scale for s in stats]


def _chunk_worker(args) -> list[float]:
    cfg, indices = args
    return _replica_values(cfg, indices)


def _compute_values(cfg: ExperimentConfig, workers: int) -> np.ndarray:
    indices = range(cfg.replicas)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or cfg.replicas < 2 * workers:
        return np.asarray(_replica_values(cfg, indices))
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only a parallel run needs it

    chunks = np.array_split(np.arange(cfg.replicas), 4 * workers)
    chunks = [c.tolist() for c in chunks if len(c)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_chunk_worker, [(cfg, c) for c in chunks]))
    return np.asarray([v for part in parts for v in part])


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replicas, derive the comparison law and test agreement.

    The returned values, summary and test are a pure function of the
    configuration; ``workers`` only changes wall-clock time.
    """
    t0 = time.perf_counter()
    law = derive_law(cfg)
    values = _compute_values(cfg, workers)
    summary = moment_summary(values)
    if cfg.mode == "slln":
        limit = kernel_mean(cfg.kernel)
        frac = float(np.mean(np.abs(values - limit) <= SLLN_BAND))
        test = {
            "name": "slln_within_band",
            "statistic": frac,
            "threshold": SLLN_FRACTION,
            "band": SLLN_BAND,
            "limit": limit,
            "pass": bool(frac >= SLLN_FRACTION),
        }
    elif cfg.mode == "clt":
        test = ks_one_sample_gaussian(values, law.variance, cfg.alpha)
    else:  # degen
        ref = sample_limit_law(law, REFERENCE_FACTOR * cfg.replicas, reference_seed(cfg.seed))
        test = ks_two_sample(values, ref, cfg.alpha)
    return ExperimentResult(
        config=cfg,
        law=law,
        values=values,
        summary=summary,
        test=test,
        timing=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# tabular output


def write_replicas_csv(result: ExperimentResult, path) -> None:
    """Per-replica table: replica index, derived seed, statistic value."""
    lines = ["replica,seed,value"]
    for r, v in enumerate(result.values):
        lines.append(f"{r},{replica_seed(result.config, r)},{float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_csv(result: ExperimentResult, path) -> None:
    lines = ["metric,value,stderr"]
    for name, row in result.summary.items():
        lines.append(f"{name},{row['value']!r},{row['stderr']!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
