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
and write a kernel exactly (form and spectral_form: the mode expansion
on the circle, the value tensor on a chain), so every kernel function
below that takes both bases has one body; docs/correspondence.md tables
the operations.  A base is also the system an experiment simulates:
system writes its result.json block and statistics computes S_n of a
kernel on one trajectory per seed key.

The exact form (ExactForm, exact_form) holds a kernel as arrays over
one sorted axis of slot values: every factor mode with its negation on
the circle, the states 0..s-1 on a chain.  Each entry has the
mixed-radix code of its axis ranks, base M = len(axis), slot 0 most
significant, as int64 or, when M^d >= 2^63, as Python ints; codes are
sorted and unique, and values are complex on the circle, float on a
chain.  Lookups are searchsorted on the codes, a slot transpose is digit
arithmetic, a negation M^d - 1 - code, and the smallest code is the
smallest index, so the symmetry witness, kernel_sup_coeff and
kernels_allclose take one body for both bases, and both spectral_form
read the form.  first is each entry's place in first-occurrence order:
itertools.product order (last slot fastest) of the expansion on the
circle, C order on a chain.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence, Union

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

    def form(self, f) -> "ExactForm":
        """The kernel exactly, unremembered: its mode expansion (_expand)."""
        return _expand(f)

    def spectral_form(self, g) -> tuple:
        """Matrix of a real arity-2 kernel in a real orthonormal basis, and the basis map.

        The basis is sqrt2 cos 2 pi j x (index j - 1), sqrt2 sin 2 pi j x
        (index kmax + j - 1) for j = 1..kmax, then the constant 1 (index
        2 kmax) when a mode 0 occurs.  The map takes a coordinate vector
        v to its polynomial: (v_cos -+ i v_sin) / sqrt2 at the modes +-j
        and v_const at mode 0.
        """
        form = exact_form(g)
        order = np.argsort(form.first, kind="stable")
        codes, values = form.codes[order], form.values[order]
        partner = _lookup(form.codes, form.values, len(form.axis) ** 2 - 1 - codes)[0]
        if (_modulus(values.conj() - partner) > 1e-9).any():
            raise ValueError("kernel is not real-valued")
        keys = [form.axis[r] for r in form.ranks(codes)]
        both = np.concatenate(keys)
        kmax, constant = int(np.abs(both).max(initial=0)), bool((both == 0).any())
        inv_sqrt2 = 1.0 / np.sqrt(2.0)

        def coords(k: int) -> tuple:
            # (a, integral of e_k against basis function a) for the nonzero integrals
            if k == 0:
                return ((2 * kmax, 1.0),)
            sine = 1j * (1 if k > 0 else -1) * inv_sqrt2
            return ((abs(k) - 1, inv_sqrt2), (kmax + abs(k) - 1, sine))

        M = np.zeros((2 * kmax + constant,) * 2, dtype=np.complex128)
        for k1, k2, c in zip(keys[0].tolist(), keys[1].tolist(), values.tolist()):
            for a, ha in coords(k1):
                for b, hb in coords(k2):
                    M[a, b] += c * ha * hb

        def eigenfunction(v) -> FourierPoly:
            scaled = (v[:2 * kmax] * inv_sqrt2).tolist()
            coeffs = {}
            for j, (a, b) in enumerate(zip(scaled[:kmax], scaled[kmax:]), start=1):
                coeffs[j], coeffs[-j] = complex(a, -b), complex(a, b)
            if constant:
                coeffs[0] = complex(v[2 * kmax])
            return FourierPoly._of(coeffs)

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

    def form(self, f) -> "ExactForm":
        """The kernel exactly, unremembered: _tensor(f) in C order, coded on the axis 0..s-1."""
        values = _tensor(f).ravel()
        codes = np.arange(len(values), dtype=np.int64)
        return ExactForm(f.arity, np.arange(self.chain.n_states, dtype=np.int64), codes, values, codes)

    def spectral_form(self, g) -> tuple:
        """pi^(1/2) G pi^(1/2) for the exact form's tensor G, and v -> pi^(-1/2) v as a state function."""
        sq = np.sqrt(self.chain.pi)
        G = exact_form(g).values.reshape(len(sq), len(sq))
        return sq[:, None] * G * sq[None, :], lambda v: StateFunction(v / sq)


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


def _with_terms(f: SeparableKernel, terms: tuple, arity: int | None = None) -> SeparableKernel:
    """f's base and arity (or this one) with terms already checked and normalized: no __post_init__."""
    out = object.__new__(SeparableKernel)
    vars(out).update(vars(f), terms=terms, arity=f.arity if arity is None else arity)
    return out


def _term(coeff: float, factors: tuple) -> KernelTerm:
    """A term whose coefficient is already a float and whose factors a tuple: no __post_init__."""
    out = object.__new__(KernelTerm)
    vars(out).update(coeff=coeff, factors=factors)
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
# the exact form and equality


def _code_dtype(radix: int, arity: int):
    """int64 when every code of radix**arity fits, else object (Python ints)."""
    return np.int64 if radix ** arity < 2 ** 63 else object


def _lookup(codes: np.ndarray, values: np.ndarray, query: np.ndarray) -> tuple:
    """(values at the query codes, 0 where absent; which are present) in sorted unique codes."""
    if not len(codes):
        return np.zeros(len(query), values.dtype), np.zeros(len(query), bool)
    pos = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
    found = codes[pos] == query
    return np.where(found, values[pos], 0), found


def _modulus(values: np.ndarray) -> np.ndarray:
    """|c| of every value as hypot(re, im), Python's abs bit for bit; |x| on a float array."""
    return np.hypot(values.real, values.imag)


class ExactForm:
    """A kernel exactly: sorted unique codes over a sorted axis, and their values (module docstring).

    The index whose slot j holds axis[r_j] has the code sum_j r_j M^(d-1-j),
    M = len(axis); np.argsort(first, kind="stable") lists the entries in first-occurrence order.
    """

    __slots__ = ("arity", "axis", "codes", "values", "first")

    def __init__(self, arity: int, axis: np.ndarray, codes: np.ndarray, values: np.ndarray,
                 first: np.ndarray):
        self.arity, self.axis, self.codes, self.values, self.first = arity, axis, codes, values, first

    def ranks(self, codes: np.ndarray) -> list:
        """The axis rank of each code in every slot, slot 0 first, as int64 arrays."""
        radix = len(self.axis)
        return [(codes // radix ** (self.arity - 1 - j) % radix).astype(np.int64)
                for j in range(self.arity)]

    def key(self, i: int) -> tuple:
        """The index of entry i as a tuple of Python ints."""
        return tuple(self.axis[[r[0] for r in self.ranks(self.codes[i:i + 1])]].tolist())

    def swapped(self, j: int) -> np.ndarray:
        """Every code with slots j and j+1 swapped: digit arithmetic, in the codes' dtype."""
        radix = len(self.axis)
        low = radix ** (self.arity - 2 - j)
        high = low * radix
        return self.codes + (self.codes // low % radix - self.codes // high % radix) * (high - low)

    def recoded(self, radix: int, where: np.ndarray) -> np.ndarray:
        """The codes on a sorted axis of radix values that holds axis[r] at where[r], still sorted."""
        if radix == len(self.axis):
            return self.codes
        dtype = _code_dtype(radix, self.arity)
        where = where.astype(dtype)
        codes = np.zeros(len(self.codes), dtype)
        for r in self.ranks(self.codes):
            codes = codes * radix + where[r]
        return codes

    def real_part(self) -> "ExactForm":
        """The form of the real part, (c_k + conj(c_{-k})) / 2 at every k and -k, in Python's arithmetic.

        A float form is real.  So is a Hermitian one (c_{-k} = conj c_k at
        every k): it is returned as it is, unless a part is -0.0 or not
        below 2^1023 in modulus, where the formula may change c_k.  Keys
        keep their order, each new -k right after its k; docs/constants.md.
        """
        return self if np.isrealobj(self.values) or self._hermitian() else self._real_formula()

    def _hermitian(self) -> bool:
        neg = len(self.axis) ** self.arity - 1 - self.codes
        partner, found = _lookup(self.codes, self.values, neg)
        parts = self.values.view(np.float64)
        return bool(found.all() and (partner == self.values.conj()).all()
                    and (np.abs(parts) < 2.0 ** 1023).all() and not np.signbit(parts[parts == 0]).any())

    def _real_formula(self) -> "ExactForm":
        top = len(self.axis) ** self.arity - 1
        neg = top - self.codes
        lonely = ~_lookup(self.codes, self.values, neg)[1]
        codes = np.concatenate([self.codes, neg[lonely]])
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.concatenate([2 * self.first, 2 * self.first[lonely] + 1])[order]
        own = np.concatenate([self.values, np.zeros(np.count_nonzero(lonely), complex)])[order]
        partner = _lookup(self.codes, self.values.conj(), top - codes)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # c + conj(partner), 0.0 for an absent c or partner, then Python's division
            # by 2 + 0j: ((s_r + s_i 0.0) / 2, (s_i - s_r 0.0) / 2)
            re, im = own.real + partner.real, own.imag + partner.imag
            out = np.empty(len(codes), complex)
            out.real = (re + im * 0.0) / 2.0
            out.imag = (im - re * 0.0) / 2.0
        return ExactForm(self.arity, self.axis, codes, out, first)


#: (weak reference to a kernel, its exact form) for the last few exact_form calls
_EXPANSIONS: deque = deque(maxlen=4)


def exact_form(f: SeparableKernel) -> ExactForm:
    """The kernel's exact form on its base (base.form), remembered.

    The last four forms are kept until newer ones push them out, keyed by
    kernel identity through weak references: kernels are immutable, and
    the memo keeps none of them alive.
    """
    for ref, form in _EXPANSIONS:
        if ref() is f:
            return form
    form = f.base.form(f)
    _EXPANSIONS.append((weakref.ref(f), form))
    return form


def _expand(f: SeparableKernel) -> ExactForm:
    """A circle kernel's exact form, unremembered: every term's products, then their sums.

    The products go slot by slot, np.repeat over terms: each partial
    product meets its term's next factor, in complex multiplication taken
    in real arithmetic, as Python multiplies (docs/constants.md).  Equal
    codes are added by np.bincount in occurrence order from 0.0, and a
    sum of modulus 0 (or nan) is dropped.
    """
    d, terms = f.arity, f.terms
    polys = [t.factors[j]._coeffs for j in range(d) for t in terms]
    sizes = np.fromiter(map(len, polys), np.int64, len(polys))
    modes = list(itertools.chain.from_iterable(polys))
    # int64 when every mode negates within it, else Python ints, like the codes
    modes = np.array(modes, np.int64 if max(map(abs, modes), default=0) < 2 ** 63 else object)
    coeffs = np.fromiter(itertools.chain.from_iterable(p.values() for p in polys), complex, len(modes))
    axis, ranks = np.unique(np.concatenate([modes, -modes]), return_inverse=True)
    radix, dtype = len(axis), _code_dtype(len(axis), d)
    ranks = ranks[:len(modes)].astype(dtype)
    starts = (np.cumsum(sizes) - sizes).reshape(d, len(terms))
    sizes = sizes.reshape(d, len(terms))
    value = np.array([t.coeff for t in terms], complex)
    code, term = np.zeros(len(terms), dtype), np.arange(len(terms))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            reps = sizes[j][term]
            ends = np.cumsum(reps)
            at = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - reps - starts[j][term], reps)
            a, b = np.repeat(value, reps), coeffs[at]
            value = np.empty(len(at), complex)
            value.real = a.real * b.real - a.imag * b.imag
            value.imag = a.real * b.imag + a.imag * b.real
            code = np.repeat(code, reps) * radix + ranks[at]
            term = np.repeat(term, reps)
        codes, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        sums = np.empty(len(codes), complex)
        sums.real = np.bincount(inverse, value.real, len(codes))
        sums.imag = np.bincount(inverse, value.imag, len(codes))
        keep = _modulus(sums) > 0.0
    return ExactForm(d, axis, codes[keep], sums[keep], first[keep])


def _tensor(f: SeparableKernel) -> np.ndarray:
    """A chain kernel as a dense arity-d tensor: ((c_t u_1) u_2) ... u_d added in term order to zeros.

    Terms go in groups of at most BLOCK product values (one term if s^d > BLOCK), one broadcast per slot.
    """
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
    """Largest coefficient modulus of the kernel's exact form (largest |value| on a chain).

    As Python's max over the moduli in first-occurrence order, 0.0 for no entries:
    nan when the first modulus is nan, and a later nan is passed over.
    """
    form = exact_form(f)
    moduli = _modulus(form.values)
    if not len(moduli):
        return 0.0
    lead = moduli[form.first.argmin()]
    return float(lead if np.isnan(lead) else np.fmax.reduce(moduli))


def kernels_allclose(f: SeparableKernel, g: SeparableKernel, tol: float = COEFF_TOL) -> bool:
    """Equality as functions, coefficientwise on the exact forms, 0.0 where a form has no entry."""
    if f.arity != g.arity or f.base != g.base:
        return False
    a, b = exact_form(f), exact_form(g)
    axis, where = np.unique(np.concatenate([a.axis, b.axis]), return_inverse=True)
    codes_a, codes_b = a.recoded(len(axis), where[:len(a.axis)]), b.recoded(len(axis), where[len(a.axis):])
    at_a = _lookup(codes_b, b.values, codes_a)[0]
    in_a = _lookup(codes_a, a.values, codes_b)[1]
    return bool((_modulus(a.values - at_a) <= tol).all() and (_modulus(b.values[~in_a]) <= tol).all())
