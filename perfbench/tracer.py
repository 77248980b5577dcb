"""Span tracing of vmstat's public functions, installed from outside the package.

Each traced function is replaced by a wrapper under every module-level
name that binds it across ``vmstat.*``: the package imports names with
``from .x import y``, so one function has several references, and a
caller looks its callee up in its own module.  Methods are wrapped on
their class.  A wrapped call records one span: name, start, end, parent
span, iteration id and one integer of call-specific data.  Spans stay in
memory, in flat typed columns, until the run writes them out.

Self time is a span's duration minus the durations of its direct
children.  Calls are sequential in one thread, so children never
overlap and their summed durations are exactly the part of the parent's
interval they cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (layer span name, module, attribute); "Class.method" is wrapped on the class
TARGETS = (
    ("cli.parse_config", "vmstat.cli", "parse_config"),
    ("dynamics.gen_traj", "vmstat.dynamics", "gen_madic_trajectory"),
    ("dynamics.gen_traj", "vmstat.dynamics", "gen_markov_trajectory"),
    ("dynamics.eval", "vmstat.dynamics", "normalized_stat"),
    ("dynamics.eval", "vmstat.dynamics", "vstat_fast"),
    ("fourier.evaluate", "vmstat.fourier", "FourierPoly.evaluate"),
    ("kernels.construct", "vmstat.kernels", "SeparableKernel.__post_init__"),
    ("kernels.kernel_eval", "vmstat.kernels", "kernel_eval"),
    ("kernels.kernel_mean", "vmstat.kernels", "kernel_mean"),
    ("hoeffding.components", "vmstat.hoeffding", "hoeffding_components"),
    ("hoeffding.symmetric_parts", "vmstat.hoeffding", "symmetric_parts"),
    ("hoeffding.is_canonical", "vmstat.hoeffding", "is_canonical"),
    ("hoeffding.is_symmetric", "vmstat.hoeffding", "is_symmetric"),
    ("hoeffding.asymmetry_witness", "vmstat.hoeffding", "find_asymmetry_witness"),
    ("martingale.coboundary_d2", "vmstat.martingale", "martingale_coboundary_d2"),
    ("martingale.spectral_decompose", "vmstat.martingale", "spectral_decompose"),
    ("martingale.law", "vmstat.martingale", "clt_variance"),
    ("martingale.law", "vmstat.martingale", "degenerate_limit_law"),
    ("martingale.law", "vmstat.martingale", "sample_limit_law"),
    ("mc.driver", "vmstat.mc", "run_experiment"),
    ("mc.derive_law", "vmstat.mc", "derive_law"),
    ("mc.ks", "vmstat.mc", "ks_one_sample_gaussian"),
    ("mc.ks", "vmstat.mc", "ks_two_sample"),
    ("mc.moment_summary", "vmstat.mc", "moment_summary"),
)

LAYERS = tuple(sorted({name for name, _, _ in TARGETS}))
ITERATION = "iteration"

#: law lookups that normalized_stat repeats for every replica
LAW_RECHECKS = ("hoeffding.is_canonical", "kernels.kernel_mean")


def _exp_count(poly, x, *args, **kwargs):
    # complex exponentials one evaluate call computes: points x modes
    return int(np.size(x)) * len(poly)


def _kernel_id(f, *args, **kwargs):
    return id(f)


EXTRA = {
    "fourier.evaluate": _exp_count,
    "hoeffding.is_canonical": _kernel_id,
    "kernels.kernel_mean": _kernel_id,
}

PER_ITERATION = tuple(
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    + [
        "fourier.evaluate.exp_count",
        "dynamics.eval.law_rechecks",
        "dynamics.eval.law_recheck_s",
        "dynamics.eval.law_recheck_useful_ratio",
        "hoeffding.symmetry_fallback_ratio",
        "martingale.law_s",
        "trace.spans",
        "trace.unattributed_frac",
    ]
)


class Tracer:
    """In-memory span recorder; wrappers record only inside ``record``."""

    def __init__(self):
        self.names = [ITERATION]
        self.name_code = {ITERATION: 0}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("i")
        self.extra = array("q")
        self._stack = [-1]
        self._current = -1

    def __len__(self) -> int:
        return len(self.code)

    def _open(self, code: int, extra: int) -> int:
        sid = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.iteration.append(self._current)
        self.extra.append(extra)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def record(self, iteration_id: int):
        """Record spans under one root span for the given iteration."""
        self._current = iteration_id
        sid = self._open(0, 0)
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid)
            self._current = -1

    def wrap(self, name: str, fn):
        code = self.name_code.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        extra = EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._current < 0:
                return fn(*args, **kwargs)
            sid = self._open(code, extra(*args, **kwargs) if extra else 0)
            self.start[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.perfbench_span = name
        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            code=np.frombuffer(self.code, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            iteration=np.frombuffer(self.iteration, dtype=np.int32),
            extra=np.frombuffer(self.extra, dtype=np.int64),
        )


def _vmstat_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "vmstat" or n.startswith("vmstat.")]


def instrument(tracer: Tracer) -> list:
    """Install wrappers for every target; return what ``restore`` undoes."""
    modules = _vmstat_modules()
    patched = []
    for name, modname, attr in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            patched.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patched


def restore(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Every vmstat name or class attribute still bound to a wrapper."""
    found = []
    for mod in _vmstat_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "perfbench_span"):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    start, end, parent = np.asarray(start, float), np.asarray(end, float), np.asarray(parent)
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def iteration_metrics(tracer: Tracer, iteration_id: int) -> dict[str, float]:
    """Per-layer metrics of one recorded iteration."""
    # one iteration's spans are contiguous, so parent ids shift by its first span
    idx = np.flatnonzero(np.frombuffer(tracer.iteration, dtype=np.int32) == iteration_id)
    first = int(idx[0])
    code = np.frombuffer(tracer.code, dtype=np.int32)[idx]
    start = np.frombuffer(tracer.start)[idx]
    end = np.frombuffer(tracer.end)[idx]
    extra = np.frombuffer(tracer.extra, dtype=np.int64)[idx]
    parent = np.frombuffer(tracer.parent, dtype=np.int64)[idx]
    parent = np.where(parent >= first, parent - first, -1)
    dur = end - start
    selfs = self_times(start, end, parent)
    parent_code = np.where(parent >= 0, code[np.maximum(parent, 0)], -1)

    codes = {layer: tracer.name_code.get(layer, -1) for layer in LAYERS}
    calls = np.bincount(code, minlength=len(tracer.names))
    self_s = np.bincount(code, weights=selfs, minlength=len(tracer.names))
    out = {}
    for layer in LAYERS:
        c = codes[layer]
        out[f"{layer}.calls"] = float(calls[c]) if c >= 0 else 0.0
        out[f"{layer}.self_s"] = float(self_s[c]) if c >= 0 else 0.0

    recheck = np.isin(code, [codes[n] for n in LAW_RECHECKS]) & (parent_code == codes["dynamics.eval"])
    rechecks = int(recheck.sum())
    distinct = len(set(zip(code[recheck].tolist(), extra[recheck].tolist())))
    fallbacks = int(
        ((code == codes["hoeffding.asymmetry_witness"]) & (parent_code == codes["hoeffding.is_symmetric"])).sum()
    )
    sym_calls = out["hoeffding.is_symmetric.calls"]
    law = code == codes["martingale.law"]
    root = code == 0
    out["fourier.evaluate.exp_count"] = float(extra[code == codes["fourier.evaluate"]].sum())
    out["dynamics.eval.law_rechecks"] = float(rechecks)
    out["dynamics.eval.law_recheck_s"] = float(dur[recheck].sum())
    out["dynamics.eval.law_recheck_useful_ratio"] = distinct / rechecks if rechecks else 0.0
    out["hoeffding.symmetry_fallback_ratio"] = fallbacks / sym_calls if sym_calls else 0.0
    out["martingale.law_s"] = float(dur[law & (parent_code != codes["martingale.law"])].sum())
    out["trace.spans"] = float(len(idx) - root.sum())
    out["trace.unattributed_frac"] = float(selfs[root].sum() / dur[root].sum())
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
