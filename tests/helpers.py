"""Shared generators and numeric oracles for the test suite.

Everything here is deliberately independent of the library internals it is
used to check: norms and means are recomputed by quadrature, the transfer
operator by preimage averaging, and eigenvalues via numpy. Random objects are
always built from an explicit numpy Generator so every test is replayable.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from vmstat._seeding import stream
from vmstat.cli import parse_config
from vmstat.fourier import _TURN_TABLES, FourierPoly, turns_exp
from vmstat.hoeffding import HoeffdingParts, integrate_out
from vmstat.kernels import (
    Base,
    CircleBase,
    KernelTerm,
    MarkovBase,
    Observable,
    SeparableKernel,
    kernel_add,
    zero_kernel,
)
from vmstat.markov import MarkovChain, StateFunction


def rng_for(label: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(label)))


# -- independent numeric oracles ------------------------------------------

GRID_N = 8192


def grid() -> np.ndarray:
    return (np.arange(GRID_N) + 0.5) / GRID_N


def quad_lp(values: np.ndarray, p: float) -> float:
    """L_p norm of sampled |values| by midpoint quadrature on [0,1)."""
    a = np.abs(np.asarray(values, dtype=complex))
    return float(np.mean(a**p) ** (1.0 / p))


def transfer_by_preimages(p: FourierPoly, m: int, x: np.ndarray) -> np.ndarray:
    """(V* p)(x) = (1/m) sum_u p((x+u)/m), evaluated pointwise."""
    acc = np.zeros_like(x, dtype=complex)
    for u in range(m):
        acc += p.evaluate((x + u) / m)
    return acc / m


def norm_ppf(q: float) -> float:
    """Standard normal quantile by bisection on erf; ~1e-13 accurate."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be inside (0,1)")
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constant_observable(base: Base, value: float) -> Observable:
    if isinstance(base, CircleBase):
        return FourierPoly.constant(value)
    return StateFunction(np.full(base.chain.n_states, float(value)))


def constant_kernel(value: float, arity: int, base: Base) -> SeparableKernel:
    if value == 0.0:
        return zero_kernel(arity, base)
    one = constant_observable(base, 1.0)
    return SeparableKernel(arity, base, (KernelTerm(value, (one,) * arity),))


def kernel_scale(f: SeparableKernel, c: float) -> SeparableKernel:
    return SeparableKernel(
        f.arity, f.base, tuple(KernelTerm(c * t.coeff, t.factors) for t in f.terms))


def reconstruct(parts: HoeffdingParts) -> SeparableKernel:
    """Sum the symmetric-part levels back into an arity-d kernel.

    Level m fills every m-subset of the d slots with its factors, in slot
    order, and the constant 1 elsewhere; the constant part is one term.
    """
    d = parts.arity
    one = constant_observable(parts.base, 1.0)
    # a zero constant term is dropped by the kernel constructor
    terms = [KernelTerm(parts.constant, (one,) * d)]
    for m, g in enumerate(parts.levels, start=1):
        for S in itertools.combinations(range(d), m):
            for t in g.terms:
                factors: list = [one] * d
                for pos, u in zip(S, t.factors):
                    factors[pos] = u
                terms.append(KernelTerm(t.coeff, tuple(factors)))
    return SeparableKernel(d, parts.base, tuple(terms))


def hoeffding_component_oracle(f: SeparableKernel, S) -> SeparableKernel:
    """Q_S f by inclusion-exclusion: sum over A in S of (-1)^|A| E^{A u S^c} f.

    Every E^l is one :func:`integrate_out` call, so the oracle shares no
    code with the factor splitting of ``hoeffding_components``.
    """
    S = tuple(sorted(S))
    complement = tuple(j for j in range(f.arity) if j not in S)
    out = zero_kernel(f.arity, f.base)
    for k in range(len(S) + 1):
        for A in itertools.combinations(S, k):
            piece = f
            for slot in A + complement:
                piece = integrate_out(piece, slot)
            out = kernel_add(out, kernel_scale(piece, (-1.0) ** k))
    return out


def expand_modes_reference(f: SeparableKernel) -> dict:
    """Mode expansion combo by combo over itertools.product, with no shared prefix.

    Each combo's key is built and its coefficient chain ((c_t c_1) c_2) ...
    multiplied on its own, so expand_modes must match it in key order and
    to the last bit, zero signs included.
    """
    out: dict = {}
    for t in f.terms:
        for combo in itertools.product(*(list(u.items()) for u in t.factors)):
            key = tuple(k for k, _ in combo)
            c = complex(t.coeff)
            for _, cc in combo:
                c *= cc
            out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if abs(c) > 0.0}


def real_part_reference(modes) -> dict:
    """(c_k + conj(c_{-k})) / 2 at every k of a mode expansion and at its negation.

    The formula real_coefficients applies to every expansion that is not
    its own real part; it must match this in key order and every bit.
    """
    out = {}
    for index, c in modes.items():
        neg = tuple(-k for k in index)
        out[index] = (c + modes.get(neg, 0.0).conjugate()) / 2
        if neg not in modes:
            out[neg] = (0.0 + c.conjugate()) / 2
    return out


def integrate_out_reference(f: SeparableKernel, slot: int) -> SeparableKernel:
    """Slot ``slot`` of every term replaced by the constant of its mean, zero means included.

    The kernel's constructor then drops each term whose constant is zero.
    """
    terms = []
    for t in f.terms:
        factors = list(t.factors)
        factors[slot] = f.base.constant(f.base.mean(factors[slot]))
        terms.append(KernelTerm(t.coeff, tuple(factors)))
    return SeparableKernel(f.arity, f.base, tuple(terms))


def to_tensor_reference(f: SeparableKernel) -> np.ndarray:
    """The dense tensor one term at a time: np.multiply.outer from the coefficient, slot by slot.

    Each value is ((c_t u_1) u_2) ... u_d, added over the terms in order to
    a tensor of zeros; to_tensor must give these bytes, zero signs included.
    """
    s = f.base.chain.n_states
    acc = np.zeros((s,) * f.arity)
    for t in f.terms:
        prod = np.asarray(t.coeff)
        for u in t.factors:
            prod = np.multiply.outer(prod, u.values)
        acc += prod
    return acc


def kernels_allclose_reference(f: SeparableKernel, g: SeparableKernel, tol: float) -> bool:
    """Coefficientwise equality over the union of both exact forms' keys, 0.0 where absent."""
    if f.arity != g.arity or f.base != g.base:
        return False
    df, dg = f.base.coefficients(f), f.base.coefficients(g)
    return all(abs(df.get(k, 0.0) - dg.get(k, 0.0)) <= tol for k in set(df) | set(dg))


def find_asymmetry_witness_reference(f: SeparableKernel, tol: float = 1e-9):
    """The symmetry witness by a scan of the sorted indices, one adjacent transpose at a time.

    The first (index, j, a, b) in that order with |a - b| > tol, where a
    is the base's real coefficient at index and b the one at index with
    slots j and j+1 swapped (0.0 where absent); find_asymmetry_witness
    must return the same tuple, to the last bit.
    """
    if f.arity == 1:
        return None
    coeffs = f.base.real_coefficients(f)
    indices = sorted(coeffs)
    for j in range(f.arity - 1):
        for index in indices:
            swapped = index[:j] + (index[j + 1], index[j]) + index[j + 2:]
            a, b = coeffs[index], coeffs.get(swapped, 0.0)
            if abs(a - b) > tol:
                return index, j, a, b
    return None


def exact_windows(m: int, n: int, seed: int, window: int = 64) -> list[int]:
    """Exact integer windows v_i = sum_j b_{i+j} m^(window-j), x_i = v_i / m^window.

    Python integers over the digits stream(seed).integers(0, m, dtype=uint8)
    draws, an oracle that shares no code with gen_madic_trajectory: on
    m = 2 they equal its phases shifted right by 64 - window, otherwise its
    phases are fourier.turns of the float points v_i / m^window.
    """
    digits = stream(seed).integers(0, m, size=n + window - 1, dtype=np.uint8)
    modulus = m ** window
    v = 0
    for j in range(window):
        v = v * m + int(digits[j])
    out = [v]
    for i in range(1, n):
        v = (v * m) % modulus + int(digits[i + window - 1])
        out.append(v)
    return out


def exp_by_turns(k: int, traj) -> np.ndarray:
    """e_k on a circle trajectory as vstat_fast takes it: turns_exp(|k| v), conj for k < 0.

    The phases v are the trajectory's values.
    """
    e = turns_exp(np.multiply(traj.values, np.uint64(abs(k))))
    return e if k > 0 else e.conj()


def turns_exp_reference(v: np.ndarray) -> np.ndarray:
    """e(v / 2^64) as the three-table product, written out pass by pass over the whole array.

    The entries of bits 63-53, 52-42 and 41-31 of v are multiplied in
    that order, then by the tail factor whose imaginary part is the low
    31 bits converted straight into the complex array and scaled there:
    turns_exp must give these bits.
    """
    high, mid, low = _TURN_TABLES
    i = (v >> np.uint64(31)).astype(np.int64)
    out = high[i >> 22]
    out *= mid[(i >> 11) & 2047]
    out *= low[i & 2047]
    tail = np.empty_like(out)
    tail.real = 1.0
    tail.imag = v & np.uint64(2**31 - 1)
    tail.imag *= 2 * np.pi * 2.0**-64
    out *= tail
    return out


def exp_by_numpy(k: int, traj) -> np.ndarray:
    """e_k on a circle trajectory as np.exp of the float phase 2 pi k x, off by about |k| 2^-53 turns."""
    return np.exp(2j * np.pi * k * traj.points)


def vstat_by_factor(f: SeparableKernel, traj, exp=exp_by_turns) -> float:
    """sum_t c_t prod_j sum_i u_tj(x_i) over every point of traj, each factor on its own.

    Each mode k != 0 takes its own exp(k, traj), mode 0 adds c, and the
    terms are added in mode order, so no exponential is shared between
    modes or factors.
    """
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for u in t.factors:
            out = np.zeros(len(traj), dtype=np.complex128)
            for k, c in u.items():
                out += c if k == 0 else c * exp(k, traj)
            prod *= out.sum()
        total += prod
    return float(total.real)


def reparse(kernel: SeparableKernel, comparison=None) -> dict:
    """Read kernel (and a comparison law) back from their JSON with parse_config.

    The system block comes from the kernel's base, so the reader also
    checks the kernel's own "base" block against it.
    """
    data = {"system": kernel.base.system(), "kernel": kernel.to_json_dict()}
    if comparison is not None:
        data["comparison"] = comparison.to_json_dict()
    kind, parsed = parse_config(json.loads(json.dumps(data)))
    assert kind == "experiment"
    return parsed


# -- random object generators ---------------------------------------------


def random_poly(rng: np.random.Generator, max_abs_mode: int = 8,
                n_modes: int = 2, real: bool = False,
                zero_mean: bool = False) -> FourierPoly:
    modes: dict[int, complex] = {}
    ks = rng.choice(np.arange(-max_abs_mode, max_abs_mode + 1),
                    size=n_modes, replace=False)
    for k in ks:
        k = int(k)
        if zero_mean and k == 0:
            continue
        c = complex(rng.normal(), rng.normal())
        modes[k] = modes.get(k, 0) + c
        if real:
            modes[-k] = modes.get(-k, 0) + c.conjugate()
    if not modes:
        modes = {1: 1.0, -1: 1.0}
    return FourierPoly(modes)


def random_state_function(rng: np.random.Generator, s: int,
                          chain: MarkovChain | None = None,
                          zero_mean: bool = False) -> StateFunction:
    v = rng.normal(size=s)
    if zero_mean:
        if chain is None:
            raise ValueError("zero_mean needs the chain for its weights")
        v = v - float(np.dot(chain.pi, v))
    return StateFunction(v)


def random_ergodic_chain(rng: np.random.Generator, s: int) -> MarkovChain:
    # Dirichlet-style rows plus a floor keep every entry positive, hence
    # the chain is primitive and the ergodicity check passes.
    Q = rng.random((s, s)) + 0.05
    Q /= Q.sum(axis=1, keepdims=True)
    return MarkovChain(Q)


def symmetrize_terms(coeff: float, pattern: list, d: int) -> list[KernelTerm]:
    """All distinct slot assignments of a factor multiset, equal weights."""
    seen = set()
    out = []
    for perm in itertools.permutations(range(d)):
        key = tuple(id(pattern[perm[i]]) for i in range(d))
        if key in seen:
            continue
        seen.add(key)
        out.append(KernelTerm(coeff, tuple(pattern[perm[i]] for i in range(d))))
    return out


def random_symmetric_circle_kernel(rng: np.random.Generator, d: int,
                                   max_terms: int = 20,
                                   m: int = 2) -> SeparableKernel:
    base = CircleBase(m)
    terms: list[KernelTerm] = []
    u = random_poly(rng, max_abs_mode=6, n_modes=2, real=True)
    v = random_poly(rng, max_abs_mode=6, n_modes=2, real=True)
    while True:
        coeff = float(rng.normal())
        r = int(rng.integers(0, min(d, 2) + 1))
        pattern = [u] * (d - r) + [v] * r
        cand = symmetrize_terms(coeff, pattern, d)
        if terms and len(terms) + len(cand) > max_terms:
            break
        terms.extend(cand)
        if len(terms) >= max_terms or rng.random() < 0.4:
            break
    return SeparableKernel(d, base, tuple(terms))


def random_symmetric_markov_kernel(rng: np.random.Generator, d: int,
                                   chain: MarkovChain,
                                   max_terms: int = 20) -> SeparableKernel:
    base = MarkovBase(chain)
    terms: list[KernelTerm] = []
    u = random_state_function(rng, chain.n_states)
    v = random_state_function(rng, chain.n_states)
    while True:
        coeff = float(rng.normal())
        r = int(rng.integers(0, min(d, 2) + 1))
        pattern = [u] * (d - r) + [v] * r
        cand = symmetrize_terms(coeff, pattern, d)
        if terms and len(terms) + len(cand) > max_terms:
            break
        terms.extend(cand)
        if len(terms) >= max_terms or rng.random() < 0.4:
            break
    return SeparableKernel(d, base, tuple(terms))


def random_canonical_pair_kernel(rng: np.random.Generator,
                                 n_pairs: int = 3,
                                 max_abs_mode: int = 8,
                                 m: int = 2) -> SeparableKernel:
    """Real symmetric canonical arity-2 kernel built from mode pairs.

    Each pair (k1, k2) of nonzero modes contributes
    c*(e_k1 x e_k2 + e_k2 x e_k1) plus the conjugate pair, so every slot
    integrates to zero and the kernel is real on the diagonal torus.
    """
    base = CircleBase(m)
    terms: list[KernelTerm] = []
    nonzero = [k for k in range(-max_abs_mode, max_abs_mode + 1) if k != 0]
    for _ in range(n_pairs):
        k1, k2 = (int(k) for k in rng.choice(nonzero, size=2, replace=True))
        c = float(rng.normal())
        for a, b in {(k1, k2), (k2, k1), (-k1, -k2), (-k2, -k1)}:
            terms.append(
                KernelTerm(c, (FourierPoly({a: 1.0}), FourierPoly({b: 1.0}))))
    return SeparableKernel(2, base, tuple(terms))


def c02_kernels():
    """The 500 kernels of acceptance criterion 02 in draw order: arity 1-4, every fifth on a chain."""
    rng = rng_for(1002)
    chain = random_ergodic_chain(rng, 4)
    for i in range(500):
        d = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.40, 0.30, 0.15]))
        if i % 5 == 0:
            yield random_symmetric_markov_kernel(rng, d, chain, max_terms=20)
        else:
            yield random_symmetric_circle_kernel(rng, d, max_terms=20)


def c09_kernels():
    """The 100 canonical pair kernels of acceptance criterion 09 in draw order."""
    rng = rng_for(1009)
    for _ in range(100):
        yield random_canonical_pair_kernel(rng, n_pairs=3)
