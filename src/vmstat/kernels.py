"""Separable kernels of finite arity and their exact operator calculus.

A kernel of arity d over a base space is a finite sum of product terms

    f(x_1, ..., x_d) = sum_t c_t * u_{t,1}(x_1) * ... * u_{t,d}(x_d)

with real coefficients c_t and one observable per slot: trigonometric
polynomials on the circle base, state functions on the Markov base.
All structural operations (diagonal and partition restriction, per-slot
composition and transfer application, mode expansion) are exact on this
representation; floating point enters only through coefficient
arithmetic.

CircleBase and MarkovBase carry the same operations on one observable
and write a kernel exactly (coefficients, real_coefficients,
spectral_form: the mode expansion on the circle, the value tensor on a
chain), so every kernel function below that takes both bases has one
body; docs/correspondence.md tables the operations.  A base is also the
system an experiment simulates: system writes its result.json block and
statistics computes S_n of a kernel on one trajectory per seed key.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

from .fourier import (
    BLOCK,
    FourierPoly,
    adjoint_orbit_sum,
    apply_koopman,
    apply_transfer,
    integral,
    lp_norm,
)
from .markov import MarkovChain, StateFunction, solve_poisson

Observable = Union[FourierPoly, StateFunction]

#: expanded mode coefficients below this are dropped
COEFF_TOL = 1e-12

#: largest circle map base a trajectory takes; its digits are drawn as uint8
MAX_BASE = 256


class BaseMismatchError(ValueError):
    """Raised when an operation does not support the kernel's base space."""


@dataclass(frozen=True)
class CircleBase:
    """Circle with the m-fold map x -> m x mod 1; the adjoint step is the transfer operator."""

    m: int = 2
    kind = "circle"

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError("map base must be an integer >= 2")
        object.__setattr__(self, "m", int(self.m))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "m": self.m}

    def system(self) -> dict:
        """The system block of a run on this map; raises ValueError unless m <= MAX_BASE."""
        if self.m > MAX_BASE:
            raise ValueError(f"map base must be between 2 and {MAX_BASE}")
        return {"kind": self.kind, "m": self.m}

    def statistics(self, f, n: int, keys) -> list:
        """S_n of f on the trajectory of each seed key."""
        from . import dynamics  # dynamics imports this module

        return [dynamics.vstat_fast(f, dynamics.gen_madic_trajectory(self.m, n, key), n)
                for key in keys]

    def check(self, u) -> None:
        if not isinstance(u, FourierPoly):
            raise BaseMismatchError("circle kernels take trigonometric polynomial factors")

    def mean(self, u: FourierPoly) -> complex:
        return integral(u)

    def constant(self, c) -> FourierPoly:
        return FourierPoly.constant(c)

    def centre(self, u: FourierPoly) -> tuple:
        """(E[u] as a constant, u - E[u]): mode 0 split off, the bits of u - constant(mean(u))."""
        rest = dict(u.items())
        return FourierPoly._of({0: rest.pop(0, 0.0)}), FourierPoly._of(rest)

    def sup_coeff(self, u: FourierPoly) -> float:
        return max((abs(c) for _, c in u.items()), default=0.0)

    def lp_norm(self, u: FourierPoly, exponent: float) -> float:
        return lp_norm(u, exponent)

    def sq_norm(self, u: FourierPoly) -> float:
        return lp_norm(u, 2) ** 2

    def adjoint_step(self, u: FourierPoly, e: int) -> FourierPoly:
        for _ in range(e):
            u = apply_transfer(u, self.m)
        return u

    def forward_step(self, u: FourierPoly, e: int) -> FourierPoly:
        for _ in range(e):
            u = apply_koopman(u, self.m)
        return u

    def adjoint_series(self, u: FourierPoly) -> FourierPoly:
        return adjoint_orbit_sum(u, self.m)

    def slot_sums(self, us, phases: np.ndarray) -> list:
        """sum_i u(x_i) for each u over the uint64 phases of circle points, BLOCK at a time.

        Every u of a block reads one table (FourierPoly.evaluate), which
        starts empty; each sum adds its blocks' partial sums in order.
        """
        sums = [0.0] * len(us)
        for a in range(0, len(phases), BLOCK):
            v, table = phases[a:a + BLOCK], {}
            for i, u in enumerate(us):
                sums[i] += u.evaluate(v, table).sum()
        return sums

    def coefficients(self, f) -> Mapping:
        """The kernel exactly: its mode expansion (expand_modes)."""
        return expand_modes(f)

    def real_coefficients(self, f) -> Mapping:
        """Mode expansion of the real part: (c_k + conj(c_{-k})) / 2 at every k.

        A Hermitian expansion (c_{-k} = conj c_k) is its own real part and is returned as it is,
        unless a part is -0.0 or not below 2^1023 in modulus: there the formula may change c_k.
        """
        modes = expand_modes(f)
        if all(modes.get(tuple(map(operator.neg, index))) == c.conjugate() for index, c in modes.items()):
            parts = np.fromiter(modes.values(), np.complex128, len(modes)).view(np.float64)
            if (np.abs(parts) < 2.0 ** 1023).all() and not np.signbit(parts[parts == 0]).any():
                return modes
        out = {}
        for index, c in modes.items():
            neg = tuple(map(operator.neg, index))
            out[index] = (c + modes.get(neg, 0.0).conjugate()) / 2
            if neg not in modes:
                out[neg] = (0.0 + c.conjugate()) / 2
        return out

    def spectral_form(self, g) -> tuple:
        """Matrix of a real arity-2 kernel in a real orthonormal basis, and the basis map.

        The basis is sqrt2 cos 2 pi j x (index j - 1), sqrt2 sin 2 pi j x
        (index kmax + j - 1) for j = 1..kmax, then the constant 1 (index
        2 kmax) when a mode 0 occurs.  The map takes a coordinate vector
        to its polynomial.
        """
        modes = expand_modes(g)
        kmax = 0
        for (k1, k2), c in modes.items():
            if abs(np.conj(c) - modes.get((-k1, -k2), 0.0)) > 1e-9:
                raise ValueError("kernel is not real-valued")
            kmax = max(kmax, abs(k1), abs(k2))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        basis = [FourierPoly({j: inv_sqrt2, -j: inv_sqrt2}) for j in range(1, kmax + 1)]
        basis += [FourierPoly({j: -1j * inv_sqrt2, -j: 1j * inv_sqrt2}) for j in range(1, kmax + 1)]
        if any(0 in key for key in modes):
            basis.append(FourierPoly.constant(1.0))

        def coords(k: int) -> tuple:
            # (a, integral of e_k against basis function a) for the nonzero integrals
            if k == 0:
                return ((2 * kmax, 1.0),)
            sine = 1j * (1 if k > 0 else -1) * inv_sqrt2
            return ((abs(k) - 1, inv_sqrt2), (kmax + abs(k) - 1, sine))

        M = np.zeros((len(basis), len(basis)), dtype=np.complex128)
        for (k1, k2), c in modes.items():
            for a, ha in coords(k1):
                for b, hb in coords(k2):
                    M[a, b] += c * ha * hb
        if np.max(np.abs(M.imag), initial=0.0) > 1e-9:
            raise ValueError("mode matrix of a non-real kernel")

        def eigenfunction(v) -> FourierPoly:
            phi = FourierPoly.zero()
            for a, u in enumerate(basis):
                if abs(v[a]) > 1e-15:
                    phi = phi + v[a] * u
            return phi

        return M.real, eigenfunction


@dataclass(frozen=True, eq=False)
class MarkovBase:
    """Finite ergodic Markov chain; the adjoint step is Q, its series the Poisson solve.

    Two bases are equal when their transition matrices agree entrywise to 1e-12, absolutely.
    """

    chain: MarkovChain
    kind = "markov"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkovBase):
            return NotImplemented
        a, b = self.chain.Q, other.chain.Q
        return self.chain is other.chain or (a.shape == b.shape and np.allclose(a, b, rtol=0, atol=1e-12))

    __hash__ = None  # tolerance-based equality

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "chain": self.chain.to_json_dict()}

    def system(self) -> dict:
        """The system block of a run on this chain."""
        return {"kind": self.kind, **self.chain.to_json_dict()}

    def statistics(self, f, n: int, keys) -> list:
        """S_n of f on the path of each seed key, from its occupation counts."""
        from . import dynamics  # dynamics imports this module

        return [dynamics.contract(f, c) for c in dynamics.markov_occupations(self.chain, n, keys)]

    def check(self, u) -> None:
        if not isinstance(u, StateFunction):
            raise BaseMismatchError("markov kernels take state function factors")
        if len(u) != self.chain.n_states:
            raise ValueError("state function length does not match the chain")

    def mean(self, u: StateFunction) -> float:
        return self.chain.mean(u)

    def constant(self, c) -> StateFunction:
        return StateFunction(np.full(self.chain.n_states, float(c)))

    def centre(self, u: StateFunction) -> tuple:
        """(E[u] as a constant, u - E[u])."""
        mean = self.constant(self.mean(u))
        return mean, u - mean

    def sup_coeff(self, u: StateFunction) -> float:
        return float(abs(u.values).max())

    def lp_norm(self, u: StateFunction, exponent: float) -> float:
        return self.chain.lp_norm(u, exponent)

    def sq_norm(self, u: StateFunction) -> float:
        return self.chain.inner(u, u)

    def adjoint_step(self, u: StateFunction, e: int) -> StateFunction:
        return self.chain.apply(u, e)

    @property
    def forward_step(self):
        """No state-function form; raises on lookup, so even a kernel with no terms is rejected."""
        raise BaseMismatchError(
            "forward composition has no state-function representation on the markov base"
        )

    def adjoint_series(self, u: StateFunction) -> StateFunction:
        return solve_poisson(self.chain, u)

    def slot_sums(self, us, counts: np.ndarray) -> list:
        """sum_i u(X_i) for each u, from the occupation counts of the states."""
        return [u.values @ counts for u in us]

    def coefficients(self, f) -> dict:
        """The kernel exactly: state tuple -> value, in the C order of to_tensor."""
        values = to_tensor(f).ravel().tolist()
        return dict(zip(itertools.product(range(self.chain.n_states), repeat=f.arity), values))

    real_coefficients = coefficients  # state-function kernels are real

    def spectral_form(self, g) -> tuple:
        """pi^(1/2) G pi^(1/2) for the tensor G, and v -> pi^(-1/2) v as a state function."""
        sq = np.sqrt(self.chain.pi)
        return sq[:, None] * to_tensor(g) * sq[None, :], lambda v: StateFunction(v / sq)


Base = Union[CircleBase, MarkovBase]


@dataclass(frozen=True, eq=False)
class KernelTerm:
    coeff: float
    factors: tuple

    def __post_init__(self):
        if isinstance(self.coeff, (complex, np.complexfloating)):
            raise TypeError("term coefficients are real; fold phases into a factor")
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True, eq=False)
class SeparableKernel:
    """Finite sum of product terms over a common base space."""

    arity: int
    base: Base
    terms: tuple = field(default=())

    def __post_init__(self):
        if not isinstance(self.arity, (int, np.integer)) or self.arity < 1:
            raise ValueError("arity must be a positive integer")
        object.__setattr__(self, "arity", int(self.arity))
        norm = []
        for t in self.terms:
            if len(t.factors) != self.arity:
                raise ValueError("every term needs one factor per slot")
            for obs in t.factors:
                self.base.check(obs)
            if t.coeff == 0.0 or not all(t.factors):
                continue
            norm.append(t)
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "arity": self.arity,
            "base": self.base.to_json_dict(),
            "terms": [
                {
                    "coeff": t.coeff,
                    "factors": [u.to_json_dict() for u in t.factors],
                }
                for t in self.terms
            ],
        }

    def __repr__(self) -> str:
        return f"SeparableKernel(arity={self.arity}, base={self.base.kind}, terms={self.n_terms})"


def zero_kernel(arity: int, base: Base) -> SeparableKernel:
    return SeparableKernel(arity, base, ())


def kernel_mean(f: SeparableKernel) -> float:
    """Mean of the kernel under the product invariant measure."""
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for u in t.factors:
            prod *= f.base.mean(u)
        total += prod
    if abs(total.imag) > 1e-10:
        raise ValueError("kernel mean is not real")
    return float(total.real)


def kernel_add(f: SeparableKernel, g: SeparableKernel) -> SeparableKernel:
    if f.arity != g.arity:
        raise ValueError("kernels must share arity")
    if f.base != g.base:
        raise BaseMismatchError("kernels must share a base")
    return _with_terms(f, f.terms + g.terms)


def _with_terms(f: SeparableKernel, terms: tuple) -> SeparableKernel:
    """f's arity and base with terms that are already checked and normalized: no __post_init__."""
    out = object.__new__(SeparableKernel)
    vars(out).update(vars(f), terms=terms)
    return out


def kernel_eval(f: SeparableKernel, point: Sequence) -> float:
    """Value of the kernel at one tuple of base points.

    Circle points are fractions of the turn, taken mod 1; Markov points
    are integer state indices in [0, s).  For real-valued kernels the
    imaginary part of the complex accumulation is below 1e-10 and is dropped.
    """
    if len(point) != f.arity:
        raise ValueError("point tuple length must equal the kernel arity")
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for u, x in zip(t.factors, point):
            prod *= u.evaluate(x)
        total += prod
    return float(total.real)


def diag_restrict(f: SeparableKernel) -> Observable:
    """Restriction to the diagonal, f(x, x, ..., x), as one observable."""
    out = f.base.constant(0.0)
    for t in f.terms:
        prod = f.base.constant(t.coeff)
        for u in t.factors:
            prod = prod * u
        out = out + prod
    return out


@dataclass(frozen=True, eq=False)
class PiecewiseConstant:
    """Step function on the circle, constant on dyadic arcs of one level."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (2 ** self.level,):
            raise ValueError("need one value per arc of the dyadic partition")
        object.__setattr__(self, "values", v)

    def evaluate(self, x):
        """Value on the arc holding each finite point x, taken mod 1.

        x - floor(x) may round up to 1.0 (for x = -1e-17, say), which reads
        the last arc.  Raises ValueError on a non-finite x.
        """
        x = np.asarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ValueError("circle points must be finite")
        x = x - np.floor(x)
        idx = np.minimum((x * 2 ** self.level).astype(np.int64), 2 ** self.level - 1)
        out = self.values[idx]
        return out if out.shape else float(out)


def _arc_integrals(p: FourierPoly, level: int) -> np.ndarray:
    """Exact integrals of a polynomial over every arc [j h, (j+1) h), h = 2^-level."""
    n_arcs = 2 ** level
    h = 1.0 / n_arcs
    a = np.arange(n_arcs, dtype=np.float64) * h
    out = np.zeros(n_arcs, dtype=np.complex128)
    for k, c in p.items():
        if k == 0:
            out += c * h
        else:
            w = 2j * np.pi * k
            out += c * np.exp(w * a) * (np.exp(w * h) - 1.0) / w
    return out


def partition_restrict(f: SeparableKernel, level: int) -> PiecewiseConstant:
    """Conditional expectation onto the product dyadic partition, on the diagonal.

    Each arc A of the level-n dyadic partition carries the value
    mu(A)^{-d} int_{A^d} f, computed from closed-form arc integrals of
    each factor.  The result is the step function taking that value on A.
    """
    if not isinstance(f.base, CircleBase):
        raise BaseMismatchError("partition restriction is defined on the circle base")
    if not 0 <= level <= 26:
        raise ValueError("partition level must be between 0 and 26")
    n_arcs = 2 ** level
    h = 1.0 / n_arcs
    acc = np.zeros(n_arcs, dtype=np.complex128)
    for t in f.terms:
        prod = np.full(n_arcs, complex(t.coeff))
        for u in t.factors:
            prod = prod * (_arc_integrals(u, level) / h)
        acc += prod
    if np.max(np.abs(acc.imag), initial=0.0) > 1e-9:
        raise ValueError("partition restriction of a non-real kernel")
    return PiecewiseConstant(level, acc.real)


def coordinate_op(f: SeparableKernel, exponents: Sequence[int], adjoint: bool) -> SeparableKernel:
    """Apply the composition operator (or its adjoint) slotwise.

    exponents[j] is how many times the map acts in slot j.  On the circle
    the adjoint is the transfer operator (mode division); on the Markov
    base the adjoint direction is realized by powers of Q per the
    correspondence in docs/correspondence.md.  The forward direction has
    no state-function representation on the Markov base and is rejected.
    """
    if len(exponents) != f.arity:
        raise ValueError("need one exponent per slot")
    exps = [int(e) for e in exponents]
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    step = f.base.adjoint_step if adjoint else f.base.forward_step
    terms = tuple(
        KernelTerm(t.coeff, tuple(step(u, e) for u, e in zip(t.factors, exps)))
        for t in f.terms
    )
    return SeparableKernel(f.arity, f.base, terms)


def projective_bound(f: SeparableKernel, exponent: float) -> float:
    """sum_t |c_t| prod_j ||u_{t,j}||_p over the stored representation."""
    total = 0.0
    for t in f.terms:
        prod = abs(t.coeff)
        for u in t.factors:
            prod *= f.base.lp_norm(u, exponent)
        total += prod
    return total


# ---------------------------------------------------------------------------
# mode expansion and equality


#: (weak reference to a kernel, its read-only expansion) for the last few expand_modes calls
_EXPANSIONS: deque = deque(maxlen=4)


def expand_modes(f: SeparableKernel) -> MappingProxyType:
    """Circle kernel as a read-only map (k_1, ..., k_d) -> coefficient.

    This is the function itself in the product basis e_{k_1} x ... x e_{k_d},
    independent of the stored term representation.  Terms are expanded one
    factor at a time, sharing prefix products; each coefficient is still
    ((c_t c_1) c_2) ... c_d, keys first occur in itertools.product order
    (last slot fastest) and exact zeros of the sums are dropped.

    The last four expansions are kept until newer ones push them out,
    keyed by kernel identity through weak references: kernels are
    immutable, and the memo keeps none of them alive.
    """
    if not isinstance(f.base, CircleBase):
        raise BaseMismatchError("mode expansion is defined on the circle base")
    for ref, modes in _EXPANSIONS:
        if ref() is f:
            return modes
    modes = MappingProxyType(_expand(f))
    _EXPANSIONS.append((weakref.ref(f), modes))
    return modes


def _expand(f: SeparableKernel) -> dict[tuple[int, ...], complex]:
    """expand_modes unremembered; the last factor's products go straight into the sums."""
    out: dict[tuple[int, ...], complex] = {}
    get = out.get
    for t in f.terms:
        partial = [((), complex(t.coeff))]
        for u in t.factors[:-1]:
            partial = [(key + (k,), c * cc) for key, c in partial for k, cc in u.items()]
        last = t.factors[-1].items()
        for key, c in partial:
            for k, cc in last:
                index = key + (k,)
                out[index] = get(index, 0.0) + c * cc
    return {k: c for k, c in out.items() if abs(c) > 0.0}


def to_tensor(f: SeparableKernel) -> np.ndarray:
    """Markov kernel as a dense arity-d tensor: ((c_t u_1) u_2) ... u_d added in term order to zeros.

    Terms go in groups of at most BLOCK product values (one term if s^d > BLOCK), one broadcast per slot.
    """
    if not isinstance(f.base, MarkovBase):
        raise BaseMismatchError("tensor form is defined on the markov base")
    s, d = f.base.chain.n_states, f.arity
    acc = np.zeros((s,) * d)
    step = max(1, BLOCK // s ** d)
    for a in range(0, len(f.terms), step):
        group = f.terms[a:a + step]
        values = np.array([[u.values for u in t.factors] for t in group])
        prod = np.array([t.coeff for t in group])
        for j in range(d):
            prod = prod[..., None] * values[:, j].reshape((len(group),) + (1,) * j + (s,))
        for p in prod:
            acc += p
    return acc


def kernel_sup_coeff(f: SeparableKernel) -> float:
    """Largest coefficient modulus of the kernel's exact form (largest |value| on a chain)."""
    return max((abs(c) for c in f.base.coefficients(f).values()), default=0.0)


def kernels_allclose(f: SeparableKernel, g: SeparableKernel, tol: float = COEFF_TOL) -> bool:
    """Equality as functions, coefficientwise on the exact forms."""
    if f.arity != g.arity or f.base != g.base:
        return False
    df, dg = f.base.coefficients(f), f.base.coefficients(g)
    return (all(abs(c - dg.get(k, 0.0)) <= tol for k, c in df.items())
            and all(abs(c) <= tol for k, c in dg.items() if k not in df))
