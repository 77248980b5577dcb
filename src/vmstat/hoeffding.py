"""Hoeffding decomposition of separable kernels.

Integrating out slot l is the operator E^l that replaces the slot-l
factor of every term by its mean.  For a subset S of slots the component

    Q_S f = prod_{l not in S} E^l  prod_{l in S} (I - E^l) f

depends only on the slots in S and integrates to zero in each of them.
Writing every factor as u = E[u] + (u - E[u]) makes Q_S one pass over
the terms: each term of f gives one term of Q_S f, with the centred
factor u - E[u] in the slots of S and the constant E[u] elsewhere.
The components sum back to f.  For symmetric kernels the components of
equal cardinality coincide up to slot relabeling, so the decomposition
collapses to one canonical kernel per level m, stored at native arity m.

Symmetry is checked exactly on the function, not on its term
representation: the base's real_coefficients, the mode expansion of the
real part (circle) or the kernel's values (Markov base), are compared
coefficient by coefficient with their adjacent slot transposes.  Slots
are 0-based.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from .kernels import (
    COEFF_TOL,
    Base,
    KernelTerm,
    SeparableKernel,
    _with_terms,
    kernel_mean,
    kernel_sup_coeff,
)


class SymmetryError(ValueError):
    """Raised when a kernel required to be symmetric is not.

    Carries the witness (index, j, a, b) of :func:`find_asymmetry_witness`.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def integrate_out(f: SeparableKernel, slot: int) -> SeparableKernel:
    """Replace slot ``slot`` by its mean in every term."""
    if not 0 <= slot < f.arity:
        raise ValueError(f"slot must be in [0, {f.arity}), got {slot}")
    base, terms = f.base, []
    for t in f.terms:
        mean = base.mean(t.factors[slot])
        if mean != 0:  # a zero mean is a zero constant factor, whose term the kernel drops
            factors = t.factors[:slot] + (base.constant(mean),) + t.factors[slot + 1:]
            terms.append(KernelTerm(t.coeff, factors))
    return SeparableKernel(f.arity, base, tuple(terms))


def _split_terms(f: SeparableKernel) -> list:
    """Each term as its coefficient, its (E[u], u - E[u]) pairs (base.centre) and their truth values."""
    pairs = [list(map(f.base.centre, t.factors)) for t in f.terms]
    return [(t.coeff, p, [(bool(a), bool(b)) for a, b in p]) for t, p in zip(f.terms, pairs)]


def _component(f: SeparableKernel, split: list, S) -> SeparableKernel:
    """Q_S f from the split terms: centred factors in S, means elsewhere; no term with a zero factor."""
    picks, pick = [j in S for j in range(f.arity)], operator.getitem
    return _with_terms(f, tuple(KernelTerm(c, tuple(map(pick, pairs, picks)))
                                for c, pairs, nonzero in split if all(map(pick, nonzero, picks))))


def hoeffding_components(f: SeparableKernel) -> dict[frozenset, SeparableKernel]:
    """All 2^d components Q_S f, keyed by the slot subset S."""
    split = _split_terms(f)
    return {
        frozenset(S): _component(f, split, frozenset(S))
        for r in range(f.arity + 1)
        for S in itertools.combinations(range(f.arity), r)
    }


def _slot_bounds(f: SeparableKernel) -> list:
    """Per slot, sum_t |c_t| prod_j sup_coeff(u_tj) over integrate_out(f, slot) times a rounding margin.

    At least the slot's kernel_sup_coeff, or inf (a subnormal partial product) or nan; docs/constants.md.
    """
    base, bounds = f.base, [0.0] * f.arity
    for t in f.terms:
        means = [abs(base.mean(u)) for u in t.factors]
        sups = list(map(base.sup_coeff, t.factors)) if any(means) else []
        for slot, mean in enumerate(means):
            if mean != 0:
                factors = sups[:slot] + [mean] + sups[slot + 1:]
                partial = list(itertools.accumulate(factors, operator.mul, initial=abs(t.coeff)))
                bounds[slot] += partial[-1] if min(partial) >= sys.float_info.min else math.inf
    return [bound * (1.0 + (11 * f.arity + 2 * len(f.terms)) * 2.0 ** -51) for bound in bounds]


def is_canonical(f: SeparableKernel, tol: float = COEFF_TOL) -> bool:
    """True when integrating out every single slot gives the zero kernel.

    A slot builds no kernel when its term bound (_slot_bounds) is at most
    tol, as when all its means are zero and tol >= 0; any other slot
    compares kernel_sup_coeff(integrate_out(f, slot)) with tol.
    """
    return all(bound <= tol or kernel_sup_coeff(integrate_out(f, slot)) <= tol
               for slot, bound in enumerate(_slot_bounds(f)))


def find_asymmetry_witness(f: SeparableKernel, tol: float = 1e-9):
    """First coefficient that an adjacent slot transpose changes, or None.

    Returns (index, j, a, b): swapping slots j and j+1 moves the
    coefficient b at the swapped index onto ``index``, where the kernel
    has a, and |a - b| > tol; b is 0.0 where the swapped index is absent.
    The coefficients are the base's real_coefficients: on the circle the
    index is a mode tuple and a, b are coefficients of the real part's
    mode expansion, (c_k + conj(c_{-k})) / 2, since kernel values are
    real parts; on a Markov base the index is a state tuple and a, b are
    kernel values.  Transposes are taken in slot order; for each, every
    index is checked in one unsorted pass, and the witness is the smallest
    failing index, so it is the one a scan in sorted order finds first.
    """
    if f.arity == 1:
        return None
    coeffs = f.base.real_coefficients(f)
    get = coeffs.get
    for j in range(f.arity - 1):
        swap = operator.itemgetter(*range(j), j + 1, j, *range(j + 2, f.arity))
        failing = [index for index, a in coeffs.items() if abs(a - get(swap(index), 0.0)) > tol]
        if failing:
            index = min(failing)
            return index, j, coeffs[index], get(swap(index), 0.0)
    return None


def is_symmetric(f: SeparableKernel) -> bool:
    """Invariance under slot permutations, checked exactly.

    Adjacent transposes generate all permutations, so the kernel is
    symmetric exactly when no transpose changes a coefficient of its
    expansion by more than 1e-9; see :func:`find_asymmetry_witness`.
    """
    return find_asymmetry_witness(f) is None


@dataclass(frozen=True, eq=False)
class HoeffdingParts:
    """Symmetric Hoeffding decomposition: scalar level plus one kernel per arity.

    levels[m-1] is the canonical symmetric kernel of arity m; the
    constant is the full mean of the kernel.
    """

    arity: int
    base: Base
    constant: float
    levels: tuple

    def __post_init__(self):
        if len(self.levels) != self.arity:
            raise ValueError("need one level kernel per arity 1..d")
        for m, g in enumerate(self.levels, start=1):
            if g.arity != m or g.base != self.base:
                raise ValueError("level kernels must have arity 1..d over the same base")

    def degree(self, tol: float = COEFF_TOL) -> int:
        """Smallest m with a nonvanishing level, d+1 for a constant kernel."""
        for m, g in enumerate(self.levels, start=1):
            if kernel_sup_coeff(g) > tol:
                return m
        return self.arity + 1

    def to_json_dict(self) -> dict:
        return {
            "R0": self.constant,
            "parts": [g.to_json_dict() for g in self.levels],
        }


def _level(base: Base, split: list, m: int) -> SeparableKernel:
    """Q_S f for S = {0, ..., m-1} at arity m: slots m..d-1 fold their means into slot 0."""
    terms = []
    for coeff, pairs, _ in split:
        scalar = 1.0
        for mean, _ in pairs[m:]:
            scalar *= base.mean(mean)
        factors = [centred for _, centred in pairs[:m]]
        factors[0] = scalar * factors[0]
        terms.append(KernelTerm(coeff, tuple(factors)))
    return SeparableKernel(m, base, tuple(terms))


def symmetric_parts(f: SeparableKernel) -> HoeffdingParts:
    """Hoeffding decomposition of a symmetric kernel, one part per level.

    Raises SymmetryError, carrying the witness of
    :func:`find_asymmetry_witness`, if the kernel is not symmetric.
    """
    witness = find_asymmetry_witness(f)
    if witness is not None:
        index, j, a, b = witness
        raise SymmetryError(
            f"kernel is not symmetric: {a:.12g} at {index} but swapping "
            f"slots {j},{j + 1} gives {b:.12g}",
            witness=witness,
        )
    split = _split_terms(f)
    # the leading-slot component of each level; symmetry makes the others relabelings
    levels = tuple(_level(f.base, split, m) for m in range(1, f.arity + 1))
    return HoeffdingParts(arity=f.arity, base=f.base, constant=kernel_mean(f), levels=levels)

