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
representation: the real part of the kernel's exact form, the mode
expansion of the real part (circle) or the kernel's values (Markov
base), is compared coefficient by coefficient with its adjacent slot
transposes.  Slots are 0-based.

A symmetric kernel is a sum over permutations of a few factors, so its
terms share factor objects.  The split centres, the slot bounds take
the mean and sup of, and the levels scale each distinct factor object
once, in a table keyed by id that lives for one call: the kernel holds
every factor meanwhile, so no id is reused, and no value is hashed.
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
    _lookup,
    _modulus,
    _term,
    _with_terms,
    exact_form,
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
    pair_of, split = {}, []
    for t in f.terms:
        pairs = []
        for u in t.factors:
            pair = pair_of.get(id(u))
            if pair is None:
                pair = pair_of[id(u)] = f.base.centre(u)
            pairs.append(pair)
        split.append((t.coeff, pairs, [(bool(a), bool(b)) for a, b in pairs]))
    return split


def _component(f: SeparableKernel, split: list, S) -> SeparableKernel:
    """Q_S f from the split terms: centred factors in S, means elsewhere; no term with a zero factor."""
    picks, pick = [j in S for j in range(f.arity)], operator.getitem
    return _with_terms(f, tuple(_term(c, tuple(map(pick, pairs, picks)))
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
    base, bounds, abs_mean_of, sup_of = f.base, [0.0] * f.arity, {}, {}
    for t in f.terms:
        means = []
        for u in t.factors:
            mean = abs_mean_of.get(id(u))
            if mean is None:
                mean = abs_mean_of[id(u)] = abs(base.mean(u))
            means.append(mean)
        sups = [sup_of[id(u)] if id(u) in sup_of else sup_of.setdefault(id(u), base.sup_coeff(u))
                for u in t.factors] if any(means) else []
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
    The coefficients are those of the real part's exact form
    (ExactForm.real_part): on the circle the index is a mode tuple and a,
    b are coefficients of the real part's mode expansion,
    (c_k + conj(c_{-k})) / 2, since kernel values are real parts; on a
    Markov base the index is a state tuple and a, b are kernel values.
    Transposes are taken in slot order; for each, every code is swapped
    and looked up at once, and the witness is the smallest failing code,
    so it is the index a scan in sorted order finds first.
    """
    if f.arity == 1:
        return None
    form = exact_form(f).real_part()
    for j in range(f.arity - 1):
        b, found = _lookup(form.codes, form.values, form.swapped(j))
        failing = _modulus(form.values - b) > tol
        if failing.any():
            i = int(failing.argmax())
            return form.key(i), j, form.values[i].item(), b[i].item() if found[i] else 0.0
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


def _level(f: SeparableKernel, split: list, m: int) -> SeparableKernel:
    """Q_S f for S = {0, ..., m-1} at arity m: slots m..d-1 fold their means into slot 0.

    A term whose scaled first factor or any centred factor has no modes is
    dropped, as the kernel's constructor would drop it.
    """
    mean_of, scaled, terms = {}, {}, []
    for coeff, pairs, _ in split:
        scalar = 1.0
        for u, _ in pairs[m:]:
            mean = mean_of.get(id(u))
            if mean is None:
                mean = mean_of[id(u)] = f.base.mean(u)
            scalar *= mean
        factors = [centred for _, centred in pairs[:m]]
        key = (id(factors[0]), scalar)  # equal scalars scale to equal bits (docs/constants.md)
        first = scaled.get(key)
        if first is None:
            first = scaled[key] = scalar * factors[0]
        factors[0] = first
        if all(factors):
            terms.append(_term(coeff, tuple(factors)))
    return _with_terms(f, tuple(terms), arity=m)


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
    levels = tuple(_level(f, split, m) for m in range(1, f.arity + 1))
    return HoeffdingParts(arity=f.arity, base=f.base, constant=kernel_mean(f), levels=levels)

