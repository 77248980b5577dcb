"""Workloads, correctness gates and metrics of the vmstat benchmark.

Every workload runs in this one process with ``workers=1`` and drives
vmstat only through its public functions, looked up on their modules
at call time so that a traced run sees the wrappers.  One iteration goes
from the workload's configs or corpora to a verdict.  Each iteration's
outputs pass a gate outside the timed region; a failed gate counts its
operation as failed, and so does an operation that raises.  An
operation is one experiment or one corpus kernel.  See NOTES.md for why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import vmstat
import vmstat.cli as cli
import vmstat.dynamics as dynamics
import vmstat.hoeffding as hoeffding
import vmstat.kernels as kernels
import vmstat.martingale as martingale
import vmstat.mc as mc

import corpus
import tracer as tr
from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = ROOT / ".perfbench_out"

#: master seed of the shipped configs; the verdict must pass there
DEFAULT_SEED = 0
#: fresh interpreters started to measure set-up time; the median is reported
SETUP_RUNS = 11
#: a set-up interpreter still running after this many seconds is killed
SETUP_TIMEOUT_S = 120.0
#: replicas of the default-seed reference probe
REF_REPLICAS = 8
#: trajectory length and replica count of the naive-against-fast probe
NAIVE_N = 256
NAIVE_REPLICAS = 3
REL_TOL = 1e-9
#: closed forms of the laws are checked to this absolute tolerance
LAW_TOL = 1e-9
#: wall-clock budget and tolerances of acceptance criteria 02 and 09
C02_BUDGET_S = 10.0
C02_TOL = 1e-12
C09_TOL = 1e-10
#: SLLN verdict constants documented in docs/constants.md
SLLN_BAND = 0.05
SLLN_FRACTION = 0.95
#: reference sample size factor of the two-sample comparison
REFERENCE_FACTOR = 10

E2E_UNITS = {"setup_s": "s", "scaled_wall_s": "s", "scaled_work_per_s": "1/s", "peak_rss_mb": "MB"}

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import vmstat
from vmstat.cli import parse_config
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_config(json.load(fh))
"""


@dataclass(frozen=True)
class Experiment:
    """One shipped config, optionally with another map base, and its closed forms."""

    name: str
    config: str
    law: dict | None = None
    limit: float | None = None
    m: int | None = None

    def data(self, seed: int, replicas: int | None = None) -> dict:
        data = json.loads((CONFIGS / self.config).read_text())
        data["seed"] = seed
        if self.m is not None:
            data["system"]["m"] = self.m
        if replicas is not None:
            data["replicas"] = replicas
        return data


#: Each workload runs long enough to average over the slow and fast
#: phases of a shared 2-core machine, which last from seconds to
#: minutes; the run budget allows that for two workloads.  ``simulate`` holds every Monte Carlo run:
#: many short doubling-map trajectories with both KS tests and both law
#: kinds, the Markov CLT run of criterion 10, and few long trajectories
#: on m=2 and on m=3, the only run of the non-dyadic float generator.
WORKLOADS = {
    "simulate": (
        Experiment("clt_doubling", "clt_doubling.json", law={"kind": "gaussian", "variance": 8.0}),
        Experiment("degen_doubling", "degen_doubling.json", law={"kind": "wcs", "lambdas": [1.0, 1.0]}),
        Experiment("clt_markov", "clt_markov.json", law={"kind": "gaussian", "variance": 3.0}),
        Experiment("slln_doubling", "slln_doubling.json", limit=0.7),
        Experiment("slln_tripling", "slln_doubling.json", limit=0.7, m=3),
    ),
    "algebra": (),
}

#: layers each workload must reach; a zero call count there is a coverage gap
EXPECTED_LAYERS = {
    "simulate": (
        "cli.parse_config", "dynamics.gen_traj", "dynamics.eval", "fourier.evaluate",
        "hoeffding.is_canonical", "kernels.kernel_mean", "martingale.law",
        "martingale.coboundary_d2", "martingale.spectral_decompose",
        "mc.driver", "mc.derive_law", "mc.ks", "mc.moment_summary",
    ),
    "algebra": (
        "kernels.construct", "kernels.kernel_eval", "hoeffding.components",
        "hoeffding.symmetric_parts", "hoeffding.is_canonical", "hoeffding.is_symmetric",
        "hoeffding.asymmetry_witness", "martingale.coboundary_d2",
        "martingale.spectral_decompose",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def raised(exc: Exception) -> str:
    return "".join(traceback.format_exception(exc)).strip()


def mc_iteration(datas: list[dict]) -> list:
    """Parse each config and run its experiment: config to verdict.

    An experiment that raises is kept as its exception for the gate.
    """
    out = []
    for data in datas:
        try:
            _, parsed = cli.parse_config(data)
            out.append(mc.run_experiment(mc.ExperimentConfig(**parsed), workers=1))
        except Exception as exc:
            out.append(exc)
    return out


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def verdict_problems(exp: Experiment, result, seed: int) -> list[str]:
    """Recompute the verdict from the values; require a pass at the default seed.

    At any other seed a correct program rejects a true law with
    probability alpha, so there the gate checks that the reported
    verdict is the right one for the values.
    """
    cfg, test = result.config, result.test
    values = np.asarray(result.values, dtype=np.float64)
    problems = []
    if test["name"] == "ks_gaussian":
        x = np.sort(values)
        n = len(x)
        cdf = np.array([_normal_cdf(v / math.sqrt(exp.law["variance"])) for v in x])
        d = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(n) / n)))
        threshold = math.sqrt(-math.log(cfg.alpha / 2.0) / 2.0) / math.sqrt(n)
        if abs(d - test["statistic"]) > 1e-12:
            problems.append(f"KS statistic {test['statistic']!r}, recomputed {d!r}")
    elif test["name"] == "ks_two_sample":
        na, nb = cfg.replicas, REFERENCE_FACTOR * cfg.replicas
        threshold = math.sqrt(-math.log(cfg.alpha / 2.0) / 2.0) * math.sqrt((na + nb) / (na * nb))
        if (test["n_a"], test["n_b"]) != (na, nb) or not 0.0 <= test["statistic"] <= 1.0:
            problems.append(f"two-sample KS sizes {test['n_a']}, {test['n_b']} or statistic out of range")
    elif test["name"] == "slln_within_band":
        frac = float(np.mean(np.abs(values - exp.limit) <= SLLN_BAND))
        threshold = SLLN_FRACTION
        if frac != test["statistic"] or abs(test["limit"] - exp.limit) > LAW_TOL:
            problems.append(f"SLLN fraction {test['statistic']!r} (recomputed {frac!r}), limit {test['limit']!r}")
    else:
        return [f"unexpected test {test['name']!r}"]
    if not close(test["threshold"], threshold, 1e-12):
        problems.append(f"threshold {test['threshold']!r}, expected {threshold!r}")
    slln = test["name"] == "slln_within_band"
    accept = test["statistic"] >= threshold if slln else test["statistic"] <= threshold
    if test["pass"] != accept:
        problems.append(f"verdict {test['pass']} disagrees with its statistic")
    if seed == DEFAULT_SEED and not test["pass"]:
        problems.append("verdict fails at the default seed")
    return problems


def law_problems(exp: Experiment, result) -> list[str]:
    law = result.law.to_json_dict() if result.law is not None else None
    if exp.law is None:
        return [] if law is None else [f"unexpected law {law}"]
    if law is None or law["kind"] != exp.law["kind"]:
        return [f"law {law}, expected {exp.law}"]
    if law["kind"] == "gaussian":
        ok = abs(law["variance"] - exp.law["variance"]) <= LAW_TOL
    else:
        got, want = sorted(law["lambdas"]), sorted(exp.law["lambdas"])
        ok = len(got) == len(want) and all(abs(a - b) <= LAW_TOL for a, b in zip(got, want))
    return [] if ok else [f"law {law}, expected {exp.law}"]


def reference_problems(exp: Experiment, values, reference: dict) -> list[str]:
    want = reference["values"].get(exp.name)
    got = [float(v) for v in values[:REF_REPLICAS]]
    if want is None or len(want) != len(got) or not all(close(a, b) for a, b in zip(got, want)):
        return [f"default-seed values {got} differ from the reference {want}"]
    return []


def mc_gate(specs, results, seed: int, reference: dict) -> tuple[list[str], list[list[str]]]:
    """Digest and problems of each experiment of one iteration."""
    digests, problems = [], []
    for exp, res in zip(specs, results):
        if isinstance(res, Exception):
            digests.append("raised")
            problems.append([f"{exp.name}: {raised(res)}"])
            continue
        digests.append(sha256(res.to_json_bytes()))
        p = law_problems(exp, res) + verdict_problems(exp, res, seed)
        if len(res.values) != res.config.replicas or not np.all(np.isfinite(res.values)):
            p.append("value vector has the wrong length or a non-finite value")
        if seed == DEFAULT_SEED:
            p += reference_problems(exp, res.values, reference)
        problems.append([f"{exp.name}: {x}" for x in p])
    return digests, problems


def reference_values(exp: Experiment) -> list[float]:
    """Values of the first REF_REPLICAS replicas at the default seed."""
    _, parsed = cli.parse_config(exp.data(DEFAULT_SEED, REF_REPLICAS))
    return [float(v) for v in mc.run_experiment(mc.ExperimentConfig(**parsed), workers=1).values]


def probe_problems(exp: Experiment, seed: int, reference: dict) -> list[str]:
    """Default-seed values against the reference; naive against fast at small n."""
    problems = [f"{exp.name}: {p}" for p in reference_problems(exp, reference_values(exp), reference)]
    _, parsed = cli.parse_config(exp.data(seed))
    cfg = mc.ExperimentConfig(**parsed)
    for r in range(NAIVE_REPLICAS):
        key = mc.replica_seed(cfg, r)
        if isinstance(cfg.system, mc.CircleSystem):
            traj = dynamics.gen_madic_trajectory(cfg.system.m, NAIVE_N, key, cfg.system.window)
        else:
            traj = dynamics.gen_markov_trajectory(cfg.system.chain, NAIVE_N, key)
        a = dynamics.vstat_naive(cfg.kernel, traj, NAIVE_N)
        b = dynamics.vstat_fast(cfg.kernel, traj, NAIVE_N)
        if abs(a - b) > REL_TOL * max(1.0, abs(a)):
            problems.append(f"{exp.name}: replica {r} naive {a!r} against fast {b!r}")
    return problems


# ---------------------------------------------------------------------------
# algebra workload


def algebra_iteration() -> dict:
    """Criteria 02 and 09 on their corpora, with their own checks.

    The corpora are fixed, whatever the seed: corpora drawn from other
    streams differ by up to 8% in work and 10% in peak memory, which
    would add that much spread to every set of runs.
    """
    t0 = time.perf_counter()
    results, ok = [], []
    for f in corpus.c02_corpus():
        try:
            total = kernels.zero_kernel(f.arity, f.base)
            for piece in hoeffding.hoeffding_components(f).values():
                total = kernels.kernel_add(total, piece)
            parts = hoeffding.symmetric_parts(f)
            ok.append(
                kernels.kernels_allclose(total, f, tol=C02_TOL)
                and all(hoeffding.is_canonical(g, tol=C02_TOL) for g in parts.levels)
            )
            results.append(parts)
        except Exception as exc:
            ok.append(exc)
            results.append(None)
    t1 = time.perf_counter()
    for f in corpus.c09_corpus():
        try:
            g0 = martingale.martingale_coboundary_d2(f).martingale
            lambdas = [lam for lam, _ in martingale.spectral_decompose(g0)]
            diag_mean = float(kernels.diag_restrict(g0).coeff(0).real)
            ok.append(abs(sum(lambdas) - diag_mean) <= C09_TOL)
            results.append([lambdas, diag_mean])
        except Exception as exc:
            ok.append(exc)
            results.append(None)
    return {"c02_s": t1 - t0, "results": results, "ok": ok}


def algebra_gate(out: dict) -> tuple[list[str], list[list[str]]]:
    digest = hashlib.sha256()
    for item in out["results"]:
        if hasattr(item, "to_json_dict"):
            item = item.to_json_dict()
        digest.update(mc.canonical_json_bytes(item))
    names = [f"c02[{i}]" for i in range(corpus.C02_KERNELS)] + [f"c09[{i}]" for i in range(corpus.C09_KERNELS)]
    problems = []
    for name, ok in zip(names, out["ok"]):
        if isinstance(ok, Exception):
            problems.append([f"{name}: {raised(ok)}"])
        else:
            problems.append([] if ok else [f"{name}: tolerance check failed"])
    return [digest.hexdigest()], problems


# ---------------------------------------------------------------------------
# one run


class Workload:
    """Iteration, gate and work size of one named workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.specs = WORKLOADS[name]
        self.datas = [exp.data(seed) for exp in self.specs]
        self.config_paths = sorted({CONFIGS / exp.config for exp in self.specs})
        if self.specs:
            self.work = sum(d["replicas"] * d["n"] for d in self.datas)
            self.reference = json.loads(REFERENCE.read_text())
        else:
            self.work = corpus.C02_KERNELS + corpus.C09_KERNELS

    def iterate(self):
        if self.specs:
            return mc_iteration(self.datas)
        return algebra_iteration()

    def gate(self, out):
        if self.specs:
            return mc_gate(self.specs, out, self.seed, self.reference)
        return algebra_gate(out)


class Run:
    """Iterations of one workload with their gate results and timings."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[list[str]] = []
        self.c02_s: list[float] = []
        self.rejections = 0
        self.wall: list[float] = []

    def record(self, op_problems: list[list[str]]) -> None:
        self.attempted += len(op_problems)
        for p in op_problems:
            if p:
                self.failed += 1
                self.problems.extend(p)

    def check(self, out) -> None:
        """Gate one iteration's outputs; every iteration must give the same bytes."""
        digests, op_problems = self.workload.gate(out)
        if self.digests and digests != self.digests[0]:
            op_problems = [p + ["result bytes differ from the first iteration"] for p in op_problems]
        self.digests.append(digests)
        if isinstance(out, dict):
            self.c02_s.append(out["c02_s"])
        else:
            self.rejections += sum(isinstance(res, mc.ExperimentResult) and not res.passed for res in out)
        self.record(op_problems)

    def measure(self, seconds: float, tracer=None, calibration=None) -> list[float]:
        """Run iterations back to back for ``seconds`` (at least one); return their times.

        With a calibration open, each time is the iteration's work time at
        reference speed, and the raw wall times go to ``self.wall``.
        """
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.workload.iterate()
                t1 = time.perf_counter()
                if calibration is None:
                    times.append(t1 - t0)
                else:
                    self.wall.append(t1 - t0)
                    times.append(calibration.scaled(t0, t1)[1])
            else:
                sid = len(tracer)
                with tracer.record(len(times)):
                    out = self.workload.iterate()
                times.append(tracer.end[sid] - tracer.start[sid])
            self.check(out)
        return times

    def probes(self) -> None:
        w = self.workload
        op_problems = []
        for exp in w.specs:
            try:
                op_problems.append(probe_problems(exp, w.seed, w.reference))
            except Exception as exc:
                op_problems.append([f"{exp.name} probe: {raised(exc)}"])
        self.record(op_problems)


def measure_setup(config_paths, cal: Calibration) -> tuple[float, float]:
    """Median time of a fresh interpreter through ``import vmstat`` and config parsing.

    Returns the median at reference speed, each interpreter's time scaled
    by a calibration sample taken just before it, and the raw median.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, config_paths)]
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait returns as the child exits; a wait with a timeout
        # polls, and its sleeps of up to 50 ms would round the time up
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        t1 = time.perf_counter()
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
        times.append(t1 - t0)
        scaled.append(cal.scaled(t0, t1)[1])
    return statistics.median(scaled), statistics.median(times)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(workload: Workload) -> dict:
    sources = sorted((SRC / "vmstat").glob("*.py"))
    texts = [p.read_bytes() for p in sources]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vmstat": vmstat.__version__,
        "git_commit": git_commit(),
        "src_sha256": sha256(b"".join(texts)),
        "src_lines": sum(t.count(b"\n") for t in texts),
        "config_sha256": {p.name: sha256(p.read_bytes()) for p in workload.config_paths},
    }


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the information record."""
    OUT.mkdir(exist_ok=True)
    workload = Workload(name, seed)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    info.update(provenance(workload))
    r = Run(workload)
    correct = True
    metrics = {}
    if not trace:
        # an untimed first iteration fills caches and allocations; the peak
        # memory is read after it, before the calibration builds its data
        t0 = time.perf_counter()
        r.check(workload.iterate())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cal = Calibration()
        setup_s, setup_raw_s = measure_setup(workload.config_paths, cal)
        with cal:
            scaled = r.measure(seconds - (time.perf_counter() - t0), calibration=cal)
        wall = statistics.median(r.wall)
        scaled_wall = statistics.median(scaled)
        metrics = {
            "setup_s": setup_s,
            "scaled_wall_s": scaled_wall,
            "scaled_work_per_s": workload.work / scaled_wall,
            "peak_rss_mb": peak_rss_mb,
        }
        samples = cal.sample_times()
        info.update(
            setup_raw_s=setup_raw_s,
            wall_s=wall,
            work_per_s=workload.work / wall,
            wall_s_samples=len(r.wall),
            iteration_s=r.wall,
            scaled_iteration_s=scaled,
            calibration_samples=len(samples),
            calibration_sample_s=statistics.median(samples),
        )
    else:
        untraced = r.measure(seconds / 2.0)
        t = tr.Tracer()
        patched = tr.instrument(t)
        try:
            traced = r.measure(seconds / 2.0, tracer=t)
        finally:
            tr.restore(patched)
        leftovers = tr.leftover_wrappers()
        if leftovers:
            correct = False
            r.problems.append(f"wrappers left installed: {leftovers}")
        traced_bytes_equal = all(d == r.digests[0] for d in r.digests[len(untraced):])
        if not traced_bytes_equal:
            correct = False
            r.problems.append("traced result bytes differ from the untraced run")
        metrics = tr.median_metrics([tr.iteration_metrics(t, i) for i in range(len(traced))])
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        gaps = [layer for layer in EXPECTED_LAYERS[name] if metrics[f"{layer}.calls"] == 0]
        metrics["trace.coverage_gaps"] = float(len(gaps))
        info.update(
            iteration_s=untraced,
            traced_iteration_s=traced,
            traced_bytes_equal=traced_bytes_equal,
            coverage_gaps=gaps,
        )
        t.save(OUT / f"{name}-seed{seed}-spans.npz")
        t = None
    r.probes()
    info["work_per_iteration"] = workload.work
    info["result_sha256"] = dict(zip([e.name for e in workload.specs] or ["algebra"], r.digests[0]))
    if r.c02_s:
        info["acceptance.c02_budget_frac"] = statistics.median(r.c02_s) / C02_BUDGET_S
    info["fail_share"] = r.failed / r.attempted
    info["verdict_rejections"] = r.rejections
    info["problems"] = r.problems[:20]
    result = {
        "correct": correct and r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    return result, info
