"""The kernel corpora of acceptance criteria 02 and 09.

The generators draw from the Philox streams labelled 1002 and 1009 in
exactly the order of the test suite's helpers, so they rebuild the
corpora that the criteria check.  Only public vmstat constructors are
used.
"""

from __future__ import annotations

import itertools

import numpy as np

from vmstat.fourier import FourierPoly
from vmstat.kernels import CircleBase, KernelTerm, MarkovBase, SeparableKernel
from vmstat.markov import MarkovChain, StateFunction

C02_LABEL = 1002
C09_LABEL = 1009
C02_KERNELS = 500
C09_KERNELS = 100


def corpus_rng(label: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(label)))


def _poly(rng, max_abs_mode: int) -> FourierPoly:
    # two random modes, each with its conjugate partner: a real polynomial
    modes: dict[int, complex] = {}
    for k in rng.choice(np.arange(-max_abs_mode, max_abs_mode + 1), size=2, replace=False):
        k = int(k)
        c = complex(rng.normal(), rng.normal())
        modes[k] = modes.get(k, 0) + c
        modes[-k] = modes.get(-k, 0) + c.conjugate()
    return FourierPoly(modes)


def _chain(rng, s: int) -> MarkovChain:
    q = rng.random((s, s)) + 0.05
    q /= q.sum(axis=1, keepdims=True)
    return MarkovChain(q)


def _symmetrized(coeff: float, pattern: list, d: int) -> list[KernelTerm]:
    seen = set()
    out = []
    for perm in itertools.permutations(range(d)):
        key = tuple(id(pattern[perm[i]]) for i in range(d))
        if key not in seen:
            seen.add(key)
            out.append(KernelTerm(coeff, tuple(pattern[perm[i]] for i in range(d))))
    return out


def _symmetric_kernel(rng, d: int, base, u, v, max_terms: int = 20) -> SeparableKernel:
    terms: list[KernelTerm] = []
    while True:
        coeff = float(rng.normal())
        r = int(rng.integers(0, min(d, 2) + 1))
        cand = _symmetrized(coeff, [u] * (d - r) + [v] * r, d)
        if terms and len(terms) + len(cand) > max_terms:
            break
        terms.extend(cand)
        if len(terms) >= max_terms or rng.random() < 0.4:
            break
    return SeparableKernel(d, base, tuple(terms))


def c02_corpus() -> list[SeparableKernel]:
    """Random symmetric kernels of arity 1-4; every fifth on a 4-state chain."""
    rng = corpus_rng(C02_LABEL)
    chain = _chain(rng, 4)
    out = []
    for i in range(C02_KERNELS):
        d = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.40, 0.30, 0.15]))
        if i % 5 == 0:
            u = StateFunction(rng.normal(size=4))
            v = StateFunction(rng.normal(size=4))
            out.append(_symmetric_kernel(rng, d, MarkovBase(chain), u, v))
        else:
            u = _poly(rng, 6)
            v = _poly(rng, 6)
            out.append(_symmetric_kernel(rng, d, CircleBase(2), u, v))
    return out


def c09_corpus() -> list[SeparableKernel]:
    """Real symmetric canonical arity-2 circle kernels of three mode pairs."""
    rng = corpus_rng(C09_LABEL)
    nonzero = [k for k in range(-8, 9) if k != 0]
    out = []
    for _ in range(C09_KERNELS):
        terms = []
        for _ in range(3):
            k1, k2 = (int(k) for k in rng.choice(nonzero, size=2, replace=True))
            c = float(rng.normal())
            for a, b in {(k1, k2), (k2, k1), (-k1, -k2), (-k2, -k1)}:
                terms.append(KernelTerm(c, (FourierPoly({a: 1.0}), FourierPoly({b: 1.0}))))
        out.append(SeparableKernel(2, CircleBase(2), tuple(terms)))
    return out
