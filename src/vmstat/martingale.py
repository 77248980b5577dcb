"""Martingale and coboundary structure of canonical kernels, and limit laws.

For a canonical kernel f over the circle base the slotwise adjoint
series g = sum_{k >= 0} V*^k f is a finite trigonometric kernel because
every transfer orbit of a nonzero mode terminates.  The slotwise
projection E_j = V^{e_j} V*^{e_j} keeps the modes whose slot-j index m
divides, so splitting g mode by mode isolates a part that is a
martingale increment in both slots plus coboundary corrections:

    f = g0 + (V^{e_1} - I) g1 + (V^{e_2} - I) g2
           + (V^{e_1} - I)(V^{e_2} - I) g12

where the coefficient of g at the mode (a, b) goes to

    g0  at (a, b)      when m divides neither a nor b,
    g1  at (a/m, b)    when m divides a only,
    g2  at (a, b/m)    when m divides b only,
    g12 at (a/m, b/m)  when m divides both,

so that E_1 g0 = E_2 g0 = 0, E_2 g1 = 0, E_1 g2 = 0.  The degenerate
limit of arity-2 statistics is the quadratic form of g0, diagonalized
in the orthonormal real basis of the base's spectral_form (sqrt2 cos
and sqrt2 sin of each frequency, and 1 when a mode 0 occurs, on the
circle; pi-weighted states on a chain); the nondegenerate limit is
Gaussian with variance determined by the arity-1 adjoint series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import stream
from .fourier import FourierPoly, lp_norm, transfer_orbit_length
from .kernels import (
    COEFF_TOL,
    CircleBase,
    KernelTerm,
    SeparableKernel,
    coordinate_op,
    diag_restrict,
    expand_modes,
    projective_bound,
)
from .hoeffding import is_canonical, is_symmetric

#: eigenvalues below this modulus are dropped from spectral results
SPECTRUM_TOL = 1e-12

#: combinatorial constant for the growth bound at arity 2: the coboundary
#: expansion of each partial sum multiplies the projective bound by at
#: most 2^m and the slot subsets contribute another 2^m; see
#: docs/constants.md.
GROWTH_CONSTANT_D2 = 16.0


# ---------------------------------------------------------------------------
# limit laws


@dataclass(frozen=True)
class LimitLaw:
    """Limiting distribution of a normalized statistic.

    kind "gaussian" with a variance, or "wcs" (weighted chi square)
    with weights lambdas applied to squares of independent standard
    normals.
    """

    kind: str
    variance: float | None = None
    lambdas: tuple[float, ...] | None = None

    @classmethod
    def gaussian(cls, variance: float) -> "LimitLaw":
        if variance < 0:
            raise ValueError("variance must be nonnegative")
        return cls(kind="gaussian", variance=float(variance), lambdas=None)

    @classmethod
    def weighted_chi_square(cls, lambdas) -> "LimitLaw":
        lams = tuple(
            sorted((float(x) for x in lambdas if abs(x) > SPECTRUM_TOL),
                   key=abs, reverse=True)
        )
        return cls(kind="wcs", variance=None, lambdas=lams)

    def mean(self) -> float:
        if self.kind == "gaussian":
            return 0.0
        return float(sum(self.lambdas))

    def var(self) -> float:
        if self.kind == "gaussian":
            return float(self.variance)
        return float(2.0 * sum(x * x for x in self.lambdas))

    def to_json_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "variance": self.variance}
        return {"kind": "wcs", "lambdas": list(self.lambdas)}


def sample_limit_law(law: LimitLaw, n_samples: int, seed: int) -> np.ndarray:
    """Exact deterministic sampler for a limit law (Philox keyed by seed)."""
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    rng = stream(seed)
    if law.kind == "gaussian":
        return np.sqrt(law.variance) * rng.standard_normal(n_samples)
    if not law.lambdas:
        return np.zeros(n_samples)
    normals = rng.standard_normal((n_samples, len(law.lambdas)))
    return (normals ** 2) @ np.asarray(law.lambdas)


# ---------------------------------------------------------------------------
# adjoint series


def _centred_terms(f: SeparableKernel) -> list:
    """(coeff, factors) of each term of a canonical f, every factor centred.

    A canonical kernel equals its all-slot Hoeffding component, which is
    these terms, so they sum to f itself.
    """
    if not is_canonical(f):
        raise ValueError("kernel is not canonical: integrating out a slot leaves a nonzero kernel")
    centre = f.base.centre
    return [(t.coeff, [centre(u)[1] for u in t.factors]) for t in f.terms]


def adjoint_series_sum(f: SeparableKernel) -> SeparableKernel:
    """Sum of all slotwise adjoint applications sum_{k >= 0} V*^k f of a canonical f.

    The base's adjoint_series (the finite transfer orbit sum on the
    circle, the Poisson solve on a chain) is applied to each centred
    factor (_centred_terms).
    """
    series = f.base.adjoint_series
    terms = tuple(KernelTerm(c, tuple(series(u) for u in us)) for c, us in _centred_terms(f))
    return SeparableKernel(f.arity, f.base, terms)


def clt_variance(r1: SeparableKernel) -> float:
    """Asymptotic variance of partial sums of an arity-1 canonical kernel.

    With u the kernel's one observable, g its summed adjoint series and
    A the adjoint step, the value is max(|g|_2^2 - |A g|_2^2, 0) on both
    bases: g = sum_{k>=0} V*^k u and A = V* on the circle, g the Poisson
    solution of (I - Q) g = u and A = Q on a chain (the Green-Kubo value);
    see docs/correspondence.md.  The clamp absorbs rounding.
    """
    if r1.arity != 1:
        raise ValueError("variance takes the arity-1 canonical part")
    base = r1.base
    u = diag_restrict(r1)
    if abs(base.mean(u)) > 1e-10:
        raise ValueError("arity-1 part must have mean zero")
    g = base.adjoint_series(u)
    sigma2 = base.sq_norm(g) - base.sq_norm(base.adjoint_step(g, 1))
    return max(sigma2, 0.0)


# ---------------------------------------------------------------------------
# arity-2 martingale-coboundary decomposition


@dataclass(frozen=True, eq=False)
class MartingaleCoboundaryParts:
    """Four-part splitting of the adjoint series of an arity-2 kernel.

    martingale is a martingale increment in both slots; slot1_coboundary
    and slot2_coboundary enter under a discrete derivative in one slot;
    double_coboundary under both.
    """

    martingale: SeparableKernel
    slot1_coboundary: SeparableKernel
    slot2_coboundary: SeparableKernel
    double_coboundary: SeparableKernel


def _mode_kernel(base: CircleBase, modes: dict) -> SeparableKernel:
    """Arity-2 kernel with one term per mode, the coefficient in slot 1."""
    terms = tuple(
        KernelTerm(1.0, (FourierPoly({a: c}), FourierPoly({b: 1.0})))
        for (a, b), c in modes.items()
    )
    return SeparableKernel(2, base, terms)


def martingale_coboundary_d2(f: SeparableKernel) -> MartingaleCoboundaryParts:
    """Split an arity-2 canonical circle kernel into martingale and coboundary parts.

    One pass over the modes of g: each mode goes to the one part that
    the divisibility of its indices by m selects (module docstring).
    """
    if f.arity != 2:
        raise ValueError("this decomposition is for arity-2 kernels")
    if not isinstance(f.base, CircleBase):
        raise ValueError("this decomposition is defined on the circle base")
    m = f.base.m
    g = adjoint_series_sum(f)
    modes = [{}, {}, {}, {}]  # g0, g1, g2, g12
    for (a, b), c in expand_modes(g).items():
        da, db = a % m == 0, b % m == 0
        modes[da + 2 * db][a // m if da else a, b // m if db else b] = c
    g0, g1, g2, g12 = (_mode_kernel(f.base, part) for part in modes)
    # E_1 g0 = E_2 g0 = E_2 g1 = E_1 g2 = 0: no mode divisible by m in those slots
    for part, slots in ((g0, (0, 1)), (g1, (1,)), (g2, (0,))):
        for key, c in expand_modes(part).items():
            if abs(c) > COEFF_TOL and any(key[j] % m == 0 for j in slots):
                raise AssertionError("conditional-expectation condition violated")
    return MartingaleCoboundaryParts(
        martingale=g0, slot1_coboundary=g1, slot2_coboundary=g2, double_coboundary=g12
    )


def reconstruct_from_parts(parts: MartingaleCoboundaryParts) -> SeparableKernel:
    """Invert the decomposition: the original kernel from the four parts.

    The nine signed pieces of the identity in the module docstring, each
    shifted forward by coordinate_op, are collected into one kernel.
    """
    g0, g1, g2, g12 = (
        parts.martingale, parts.slot1_coboundary, parts.slot2_coboundary, parts.double_coboundary
    )
    pieces = (
        (1.0, g0, (0, 0)),
        (1.0, g1, (1, 0)), (-1.0, g1, (0, 0)),
        (1.0, g2, (0, 1)), (-1.0, g2, (0, 0)),
        (1.0, g12, (1, 1)), (-1.0, g12, (1, 0)), (-1.0, g12, (0, 1)), (1.0, g12, (0, 0)),
    )
    terms = tuple(
        KernelTerm(sign * t.coeff, t.factors)
        for sign, h, e in pieces
        for t in coordinate_op(h, e, adjoint=False).terms
    )
    return SeparableKernel(2, parts.martingale.base, terms)


# ---------------------------------------------------------------------------
# spectral decomposition of the martingale part


def spectral_decompose(g0: SeparableKernel):
    """Eigenpairs (lambda_m, phi_m) of a symmetric real arity-2 kernel.

    The eigenfunctions are orthonormal in L2 of the invariant measure
    and the kernel equals sum_m lambda_m phi_m(x) phi_m(y).  The base's
    spectral_form gives the kernel's real symmetric matrix in an
    orthonormal basis and the map from an eigenvector to its observable.
    Pairs with |lambda| <= SPECTRUM_TOL are dropped; the result is
    sorted by descending |lambda|.
    """
    if g0.arity != 2:
        raise ValueError("spectral decomposition takes an arity-2 kernel")
    if not is_symmetric(g0):
        raise ValueError("spectral decomposition needs a symmetric kernel")
    M, eigenfunction = g0.base.spectral_form(g0)
    w, V = np.linalg.eigh(M)
    pairs = [(float(w[i]), eigenfunction(V[:, i])) for i in range(len(w)) if abs(w[i]) > SPECTRUM_TOL]
    pairs.sort(key=lambda p: abs(p[0]), reverse=True)
    return pairs


def degenerate_limit_law(f: SeparableKernel) -> LimitLaw:
    """Weighted chi-square limit of the arity-2 degenerate statistic of f."""
    parts = martingale_coboundary_d2(f)
    pairs = spectral_decompose(parts.martingale)
    return LimitLaw.weighted_chi_square([lam for lam, _ in pairs])


# ---------------------------------------------------------------------------
# growth diagnostic


def growth_ratios(f: SeparableKernel, max_exponent: int = 10) -> list[tuple[int, float]]:
    """Diagonal growth ratios |D_d sum_{0<=k<n} V*^k f|_1 / n^{d/2} at dyadic n.

    The partial sums stabilize once n exceeds the longest transfer orbit,
    so the ratios decay like n^{-d/2}; boundedness by the documented
    constant times projective_bound of the full series is the checkable
    form of the growth estimate.
    """
    if not isinstance(f.base, CircleBase):
        raise ValueError("the growth diagnostic is defined on the circle base")
    m = f.base.m
    d = f.arity
    centred = _centred_terms(f)
    out = []
    for e in range(1, max_exponent + 1):
        n = 2 ** e
        terms = []
        for c, us in centred:
            # sum_{0<=s<n} V*^s u per factor: mode k lasts v_m(|k|) + 1 steps
            partial = [FourierPoly([(k // m ** s, a) for k, a in u.items()
                                    for s in range(min(n, transfer_orbit_length(k, m)))])
                       for u in us]
            terms.append(KernelTerm(c, tuple(partial)))
        diag = diag_restrict(SeparableKernel(d, f.base, tuple(terms)))
        ratio = lp_norm(diag, 1.0) / float(n) ** (d / 2.0)
        out.append((n, float(ratio)))
    return out


def growth_bound(f: SeparableKernel) -> float:
    """Documented bound for the growth ratios of an arity-2 kernel."""
    if f.arity != 2:
        raise ValueError("the recorded constant is for arity-2 kernels")
    g = adjoint_series_sum(f)
    return GROWTH_CONSTANT_D2 * projective_bound(g, 2.0)
