"""Separable kernels of finite arity and their exact operator calculus.

A kernel of arity d over a base space is a finite sum of product terms

    f(x_1, ..., x_d) = sum_t c_t * u_{t,1}(x_1) * ... * u_{t,d}(x_d)

with real coefficients c_t and one observable per slot: trigonometric
polynomials on the circle base, state functions on the Markov base.
All structural operations (diagonal and partition restriction, per-slot
composition and transfer application, mode expansion) are exact on this
representation; floating point enters only through coefficient
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .fourier import (
    FourierPoly,
    apply_koopman,
    apply_transfer,
    integral,
    lp_norm,
    poly_product,
    transfer_orbit_length,
)
from .markov import MarkovChain, StateFunction

Observable = Union[FourierPoly, StateFunction]

#: expanded mode coefficients below this are dropped
COEFF_TOL = 1e-12


class BaseMismatchError(ValueError):
    """Raised when an operation does not support the kernel's base space."""


@dataclass(frozen=True)
class CircleBase:
    """Circle with the m-fold covering map x -> m x mod 1."""

    m: int = 2

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError("map base must be an integer >= 2")
        object.__setattr__(self, "m", int(self.m))

    def to_json_dict(self) -> dict:
        return {"kind": "circle", "m": self.m}


@dataclass(frozen=True, eq=False)
class MarkovBase:
    """Finite ergodic Markov chain as the underlying system."""

    chain: MarkovChain

    def to_json_dict(self) -> dict:
        return {"kind": "markov", "chain": self.chain.to_json_dict()}


Base = Union[CircleBase, MarkovBase]


def same_base(a: Base, b: Base) -> bool:
    if isinstance(a, CircleBase) and isinstance(b, CircleBase):
        return a.m == b.m
    if isinstance(a, MarkovBase) and isinstance(b, MarkovBase):
        return a.chain.Q.shape == b.chain.Q.shape and np.allclose(
            a.chain.Q, b.chain.Q, atol=1e-12
        )
    return False


@dataclass(frozen=True, eq=False)
class KernelTerm:
    coeff: float
    factors: tuple

    def __post_init__(self):
        if isinstance(self.coeff, complex):
            raise TypeError("term coefficients are real; fold phases into a factor")
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "factors", tuple(self.factors))


def _check_factor(base: Base, obs: Observable) -> None:
    if isinstance(base, CircleBase):
        if not isinstance(obs, FourierPoly):
            raise BaseMismatchError("circle kernels take trigonometric polynomial factors")
    else:
        if not isinstance(obs, StateFunction):
            raise BaseMismatchError("markov kernels take state function factors")
        if len(obs) != base.chain.n_states:
            raise ValueError("state function length does not match the chain")


def _factor_is_zero(obs: Observable) -> bool:
    if isinstance(obs, FourierPoly):
        return len(obs) == 0
    return not obs.values.any()


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
                _check_factor(self.base, obs)
            if t.coeff == 0.0 or any(_factor_is_zero(u) for u in t.factors):
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
        kind = "circle" if isinstance(self.base, CircleBase) else "markov"
        return f"SeparableKernel(arity={self.arity}, base={kind}, terms={self.n_terms})"


def zero_kernel(arity: int, base: Base) -> SeparableKernel:
    return SeparableKernel(arity, base, ())


def observable_mean(base: Base, obs: Observable) -> complex:
    """Mean of an observable under the invariant measure of the base."""
    _check_factor(base, obs)
    if isinstance(obs, FourierPoly):
        return integral(obs)
    return complex(base.chain.mean(obs))  # type: ignore[union-attr]


def mean_factor(base: Base, obs: Observable) -> Observable:
    """Constant observable carrying the mean of ``obs``."""
    c = observable_mean(base, obs)
    if isinstance(base, CircleBase):
        return FourierPoly.constant(c)
    return StateFunction(np.full(base.chain.n_states, c.real))


def observable_lp_norm(base: Base, obs: Observable, exponent: float) -> float:
    _check_factor(base, obs)
    if isinstance(obs, FourierPoly):
        return lp_norm(obs, exponent)
    return base.chain.lp_norm(obs, exponent)  # type: ignore[union-attr]


def kernel_mean(f: SeparableKernel) -> float:
    """Mean of the kernel under the product invariant measure."""
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for u in t.factors:
            prod *= observable_mean(f.base, u)
        total += prod
    if abs(total.imag) > 1e-10:
        raise ValueError("kernel mean is not real")
    return float(total.real)


def kernel_add(f: SeparableKernel, g: SeparableKernel) -> SeparableKernel:
    if f.arity != g.arity:
        raise ValueError("kernels must share arity")
    if not same_base(f.base, g.base):
        raise BaseMismatchError("kernels must share a base")
    return SeparableKernel(f.arity, f.base, f.terms + g.terms)


def kernel_eval(f: SeparableKernel, point: Sequence) -> float:
    """Value of the kernel at one tuple of base points.

    Circle points are fractions of the turn in [0, 1); Markov points are
    state indices.  For real-valued kernels the imaginary part of the
    complex accumulation is below 1e-10 and is dropped.
    """
    if len(point) != f.arity:
        raise ValueError("point tuple length must equal the kernel arity")
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for u, x in zip(t.factors, point):
            if isinstance(u, FourierPoly):
                prod *= u.evaluate(float(x))
            else:
                prod *= u.values[int(x)]
        total += prod
    return float(total.real)


def diag_restrict(f: SeparableKernel) -> Observable:
    """Restriction to the diagonal, f(x, x, ..., x), as one observable."""
    if isinstance(f.base, CircleBase):
        out = FourierPoly.zero()
        for t in f.terms:
            prod = FourierPoly.constant(t.coeff)
            for u in t.factors:
                prod = poly_product(prod, u)
            out = out + prod
        return out
    s = f.base.chain.n_states
    acc = np.zeros(s)
    for t in f.terms:
        prod = np.full(s, t.coeff)
        for u in t.factors:
            prod = prod * u.values
        acc += prod
    return StateFunction(acc)


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
        x = np.asarray(x, dtype=np.float64)
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
    if isinstance(f.base, CircleBase):
        m = f.base.m
        terms = []
        for t in f.terms:
            factors = []
            for u, e in zip(t.factors, exps):
                for _ in range(e):
                    u = apply_transfer(u, m) if adjoint else apply_koopman(u, m)
                factors.append(u)
            terms.append(KernelTerm(t.coeff, tuple(factors)))
        return SeparableKernel(f.arity, f.base, tuple(terms))
    if not adjoint:
        raise BaseMismatchError(
            "forward composition has no state-function representation on the markov base"
        )
    chain = f.base.chain
    terms = []
    for t in f.terms:
        factors = tuple(chain.apply(u, e) for u, e in zip(t.factors, exps))
        terms.append(KernelTerm(t.coeff, factors))
    return SeparableKernel(f.arity, f.base, tuple(terms))


def projective_bound(f: SeparableKernel, exponent: float) -> float:
    """sum_t |c_t| prod_j ||u_{t,j}||_p over the stored representation."""
    total = 0.0
    for t in f.terms:
        prod = abs(t.coeff)
        for u in t.factors:
            prod *= observable_lp_norm(f.base, u, exponent)
        total += prod
    return total


# ---------------------------------------------------------------------------
# mode expansion and equality


def expand_modes(f: SeparableKernel) -> dict[tuple[int, ...], complex]:
    """Circle kernel as a map (k_1, ..., k_d) -> coefficient.

    This is the function itself in the product basis e_{k_1} x ... x e_{k_d},
    independent of the stored term representation.
    """
    if not isinstance(f.base, CircleBase):
        raise BaseMismatchError("mode expansion is defined on the circle base")
    out: dict[tuple[int, ...], complex] = {}
    for t in f.terms:
        factor_items = [list(u.items()) for u in t.factors]
        for combo in itertools.product(*factor_items):
            key = tuple(k for k, _ in combo)
            c = complex(t.coeff)
            for _, cc in combo:
                c *= cc
            out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if abs(c) > 0.0}


def to_tensor(f: SeparableKernel) -> np.ndarray:
    """Markov kernel as a dense arity-d tensor over states."""
    if not isinstance(f.base, MarkovBase):
        raise BaseMismatchError("tensor form is defined on the markov base")
    s = f.base.chain.n_states
    acc = np.zeros((s,) * f.arity)
    for t in f.terms:
        prod = np.asarray(t.coeff)
        for u in t.factors:
            prod = np.multiply.outer(prod, u.values)
        acc += prod
    return acc


def kernel_sup_coeff(f: SeparableKernel) -> float:
    """Largest coefficient modulus of the expanded kernel (tensor max for markov)."""
    if isinstance(f.base, CircleBase):
        d = expand_modes(f)
        return max((abs(c) for c in d.values()), default=0.0)
    t = to_tensor(f)
    return float(np.max(np.abs(t))) if t.size else 0.0


def kernels_allclose(f: SeparableKernel, g: SeparableKernel, tol: float = COEFF_TOL) -> bool:
    """Equality as functions, coefficientwise on the expanded representation."""
    if f.arity != g.arity or not same_base(f.base, g.base):
        return False
    if isinstance(f.base, CircleBase):
        df, dg = expand_modes(f), expand_modes(g)
        keys = set(df) | set(dg)
        return all(abs(df.get(k, 0.0) - dg.get(k, 0.0)) <= tol for k in keys)
    return bool(np.max(np.abs(to_tensor(f) - to_tensor(g)), initial=0.0) <= tol)


# ---------------------------------------------------------------------------
# summability certificate


@dataclass(frozen=True)
class SummabilityReport:
    """Certificate that the adjoint orbit sums of a kernel converge.

    orbit_lengths maps each nonzero mode k appearing in the expansion to
    the length of its transfer orbit, v_m(|k|) + 1.  The certificate is
    sum over expanded components of |coeff| times the product of the
    slot orbit lengths.  Components with a constant slot carry no orbit
    and are excluded; their total coefficient mass is reported.
    """

    exponent: float
    orbit_lengths: dict[int, int]
    certificate: float
    converges: bool
    skipped_mass: float


def summability_certificate(f: SeparableKernel, exponent: float = 2.0) -> SummabilityReport:
    """Finite certificate for convergence of slotwise adjoint orbit sums.

    Orbits are taken under the transfer operator: |V*^n e_k|_p is 1 while
    m^n divides k and 0 afterwards, so mode k contributes a factor
    v_m(|k|) + 1.  Forward composition preserves every |e_k|_p = 1 and
    never terminates, which is why the certificate is stated for the
    adjoint direction.
    """
    if not isinstance(f.base, CircleBase):
        raise BaseMismatchError("the summability certificate is defined on the circle base")
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    m = f.base.m
    table: dict[int, int] = {}
    certificate = 0.0
    skipped = 0.0
    for key, c in expand_modes(f).items():
        if any(k == 0 for k in key):
            skipped += abs(c)
            continue
        prod = abs(c)
        for k in key:
            length = table.get(k)
            if length is None:
                length = transfer_orbit_length(k, m)
                table[k] = length
            prod *= length
        certificate += prod
    return SummabilityReport(
        exponent=float(exponent),
        orbit_lengths=dict(sorted(table.items())),
        certificate=certificate,
        converges=True,
        skipped_mass=skipped,
    )
