"""Projection decomposition of kernels and its symmetric-part form."""

from __future__ import annotations

import copy
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vmstat import hoeffding, kernels
from vmstat.fourier import FourierPoly
from vmstat.hoeffding import (
    HoeffdingParts,
    SymmetryError,
    find_asymmetry_witness,
    hoeffding_components,
    integrate_out,
    is_canonical,
    is_symmetric,
    symmetric_parts,
)
from vmstat.kernels import (
    COEFF_TOL,
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    exact_form,
    kernel_add,
    kernel_eval,
    kernel_mean,
    kernel_sup_coeff,
    kernels_allclose,
    zero_kernel,
)
from vmstat.markov import MarkovChain, StateFunction
from vmstat.martingale import martingale_coboundary_d2

from helpers import (
    c02_kernels,
    c09_kernels,
    constant_kernel,
    constant_observable,
    expand_modes,
    find_asymmetry_witness_reference,
    hoeffding_component_oracle,
    integrate_out_reference,
    mapping,
    martingale_split_reference,
    random_canonical_pair_kernel,
    random_ergodic_chain,
    random_symmetric_circle_kernel,
    random_symmetric_markov_kernel,
    reconstruct,
    rng_for,
    symmetrize_terms,
)

CIRCLE = CircleBase(2)


def hand_kernel() -> SeparableKernel:
    """f(x,y) = e1(x) e-1(y) + e1(x) + e-1(y) + 3, decomposition known."""
    e1 = FourierPoly({1: 1.0})
    em1 = FourierPoly({-1: 1.0})
    one = FourierPoly.constant(1.0)
    return SeparableKernel(2, CIRCLE, (
        KernelTerm(1.0, (e1, em1)),
        KernelTerm(1.0, (e1, one)),
        KernelTerm(1.0, (one, em1)),
        KernelTerm(3.0, (one, one)),
    ))


class TestComponents:
    def test_hand_example(self):
        f = hand_kernel()
        comp = hoeffding_components(f)
        e1 = FourierPoly({1: 1.0})
        em1 = FourierPoly({-1: 1.0})
        one = FourierPoly.constant(1.0)
        assert kernels_allclose(comp[frozenset()], constant_kernel(3.0, 2, CIRCLE))
        assert kernels_allclose(comp[frozenset({0})],
                                SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, one)),)))
        assert kernels_allclose(comp[frozenset({1})],
                                SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (one, em1)),)))
        assert kernels_allclose(comp[frozenset({0, 1})],
                                SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),)))

    def test_components_hold_what_the_constructor_keeps(self):
        # components skip the constructor's checks, but still drop each term with a zero factor
        comp = hoeffding_components(hand_kernel())
        assert [comp[frozenset(S)].n_terms for S in ((), (0,), (1,), (0, 1))] == [1, 1, 1, 1]
        for f in itertools.chain([hand_kernel()], itertools.islice(c02_kernels(), 30)):
            for piece in hoeffding_components(f).values():
                rebuilt = SeparableKernel(piece.arity, piece.base, piece.terms)
                assert rebuilt.to_json_dict() == piece.to_json_dict()

    def test_completeness_random(self):
        rng = rng_for(401)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            f = random_symmetric_circle_kernel(rng, d, max_terms=12)
            comp = hoeffding_components(f)
            assert len(comp) == 2 ** d
            total = zero_kernel(d, f.base)
            for piece in comp.values():
                total = kernel_add(total, piece)
            assert kernels_allclose(total, f, tol=1e-11)

    def test_components_are_canonical_in_their_slots(self):
        rng = rng_for(402)
        f = random_symmetric_circle_kernel(rng, 3, max_terms=9)
        comp = hoeffding_components(f)
        for S, piece in comp.items():
            for j in S:
                assert kernels_allclose(integrate_out(piece, j),
                                        zero_kernel(3, f.base), tol=1e-11)

    def test_components_ignore_other_slots(self):
        rng = rng_for(403)
        f = random_symmetric_circle_kernel(rng, 3, max_terms=9)
        comp = hoeffding_components(f)
        piece = comp[frozenset({1})]
        for x in (0.17, 0.62):
            vals = [kernel_eval(piece, (a, x, b))
                    for a in (0.1, 0.9) for b in (0.3, 0.7)]
            assert max(vals) - min(vals) < 1e-11

    def test_markov_completeness(self):
        rng = rng_for(404)
        chain = random_ergodic_chain(rng, 4)
        f = random_symmetric_markov_kernel(rng, 2, chain, max_terms=8)
        comp = hoeffding_components(f)
        total = zero_kernel(2, f.base)
        for piece in comp.values():
            total = kernel_add(total, piece)
        assert kernels_allclose(total, f, tol=1e-11)


def random_symmetric_kernel(seed: int, d: int, base: str) -> SeparableKernel:
    """A random symmetric kernel on the circle with m = 2 or 3, or on a random chain."""
    rng = rng_for(seed)
    if base == "markov":
        chain = random_ergodic_chain(rng, int(rng.integers(1, 6)))
        return random_symmetric_markov_kernel(rng, d, chain, max_terms=12)
    return random_symmetric_circle_kernel(rng, d, max_terms=12, m=int(base[-1]))


class TestPropertiesBothBases:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           base=st.sampled_from(["circle m=2", "circle m=3", "markov"]))
    def test_components_sum_back(self, seed, d, base):
        f = random_symmetric_kernel(seed, d, base)
        comp = hoeffding_components(f)
        assert len(comp) == 2 ** d
        total = zero_kernel(d, f.base)
        for piece in comp.values():
            total = kernel_add(total, piece)
        assert kernels_allclose(total, f, tol=1e-11)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           base=st.sampled_from(["circle m=2", "circle m=3", "markov"]))
    def test_levels_canonical_and_reconstruct(self, seed, d, base):
        f = random_symmetric_kernel(seed, d, base)
        parts = symmetric_parts(f)
        for level in parts.levels:
            assert is_canonical(level, tol=1e-10)
        assert kernels_allclose(reconstruct(parts), f, tol=1e-10)


class TestIntegrateOut:
    def test_matches_quadrature(self):
        rng = rng_for(405)
        f = random_symmetric_circle_kernel(rng, 2, max_terms=6)
        g = integrate_out(f, 1)
        zs = (np.arange(4096) + 0.5) / 4096
        for x in (0.08, 0.55, 0.91):
            oracle = float(np.mean([kernel_eval(f, (x, z)) for z in zs[::16]]))
            assert abs(kernel_eval(g, (x, 0.42)) - oracle) < 1e-3

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            integrate_out(hand_kernel(), 2)


class TestCanonical:
    def test_true_for_pair_kernel(self):
        e1 = FourierPoly({1: 1.0})
        em1 = FourierPoly({-1: 1.0})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),
                                        KernelTerm(1.0, (em1, e1))))
        assert is_canonical(f)

    def test_false_with_constant_direction(self):
        f = hand_kernel()
        assert not is_canonical(f)

    def test_cancellation_across_terms(self):
        # each term alone has nonzero slot mean, their sum does not
        e1 = FourierPoly({1: 1.0})
        mixed = FourierPoly({0: 1.0, 1: 1.0})
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (mixed,)),
                                        KernelTerm(-1.0, (FourierPoly.constant(1.0),))))
        assert is_canonical(f)
        assert kernels_allclose(f, SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (e1,)),)))


#: pi = (1/2, 1/2) exactly, so (1, -1) has mean exactly 0 and (1e-16, 0) a mean below DROP_TOL
HALF_CHAIN = MarkovChain(np.array([[0.25, 0.75], [0.75, 0.25]]))
# no mode 0 (mean zero), or a mode 0 that is kept (2e-15) or dropped (1e-16) for being below DROP_TOL
_MEAN_ZERO_MODES = st.dictionaries(
    st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1.0, -1.0, 0.5, 1j]), min_size=1, max_size=3)
_CANONICAL_CIRCLE_FACTORS = st.one_of(
    _MEAN_ZERO_MODES,
    st.dictionaries(st.integers(-2, 2), st.sampled_from([1.0, -0.5, 1j, 2e-15, 1e-16]), min_size=1, max_size=3),
).map(FourierPoly).filter(bool)
_CANONICAL_STATE_FACTORS = st.sampled_from(
    [(1.0, -1.0), (-0.5, 0.5), (1e-16, 0.0), (1.0, 0.0), (2.0, 1.0)]).map(lambda v: StateFunction(np.array(v)))


@st.composite
def canonical_oracle_kernels(draw):
    """Kernels of arity 1-3 on both bases, whose slots often have only zero or tiny means."""
    d = draw(st.integers(1, 3))
    circle = draw(st.booleans())
    base, factors = (CIRCLE, _CANONICAL_CIRCLE_FACTORS) if circle else (
        MarkovBase(HALF_CHAIN), _CANONICAL_STATE_FACTORS)
    terms = tuple(KernelTerm(draw(st.sampled_from([1.0, -1.0, 0.5])), tuple(draw(factors) for _ in range(d)))
                  for _ in range(draw(st.integers(1, 3))))
    return SeparableKernel(d, base, terms)


_EXTREME = st.sampled_from([1.0, -1.0, 0.7, -3.0, 1e-170, -1e-170, 1e150, 1e-300, 5e-324, 1e-15])


@st.composite
def extreme_kernels(draw):
    """Kernels of arity 1-3 on both bases with coefficients and values from 5e-324 to 1e150."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = CIRCLE
        factor = st.dictionaries(st.integers(-1, 1), _EXTREME, min_size=1, max_size=3)
        factor = factor.map(FourierPoly).filter(bool)
    else:
        base = MarkovBase(HALF_CHAIN)
        factor = st.lists(_EXTREME, min_size=2, max_size=2).map(lambda v: StateFunction(np.array(v)))
    terms = tuple(KernelTerm(draw(_EXTREME), tuple(draw(factor) for _ in range(d)))
                  for _ in range(draw(st.integers(1, 4))))
    return SeparableKernel(d, base, terms)


class TestCanonicalOracle:
    """is_canonical and integrate_out against integrate_out_reference, which builds every term."""

    @staticmethod
    def coefficient_reprs(g) -> list:
        return [(k, repr(c)) for k, c in mapping(exact_form(g)).items()]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=canonical_oracle_kernels(), data=st.data())
    def test_drawn_kernels(self, f, data):
        sups = []
        for slot in range(f.arity):
            got, want = integrate_out(f, slot), integrate_out_reference(f, slot)
            assert got.to_json_dict() == want.to_json_dict()
            assert self.coefficient_reprs(got) == self.coefficient_reprs(want)
            sups.append(kernel_sup_coeff(want))
        # a tol exactly at a slot's sup passes that slot
        tol = data.draw(st.sampled_from(sorted(set(sups)) + [0.0, COEFF_TOL]))
        assert is_canonical(f, tol) == all(sup <= tol for sup in sups)

    def test_every_kind_of_slot_mean(self):
        zero, tiny = StateFunction(np.array([1.0, -1.0])), StateFunction(np.array([1e-16, 0.0]))
        assert HALF_CHAIN.mean(zero) == 0.0 and 0.0 < HALF_CHAIN.mean(tiny) < 1e-15
        markov = SeparableKernel(2, MarkovBase(HALF_CHAIN), (KernelTerm(1.0, (zero, tiny)),))
        # slot 0: every mean is zero; slot 1: the one mean is 5e-17, and so is the sup
        assert kernel_sup_coeff(integrate_out_reference(markov, 0)) == 0.0
        sup = kernel_sup_coeff(integrate_out_reference(markov, 1))
        assert sup == 5e-17
        assert is_canonical(markov, tol=sup) and not is_canonical(markov, tol=sup / 2)
        # on the circle a mode 0 below DROP_TOL is no mode, so its slot mean is zero
        u = FourierPoly({0: 1e-16, 1: 1.0})
        circle = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (u,)),))
        assert is_canonical(circle, tol=0.0)
        # a negative tol fails even a slot that builds no kernel, as kernel_sup_coeff's 0.0 would
        assert not is_canonical(circle, tol=-1.0)

    def test_every_slot_mean_zero_builds_no_kernel(self, monkeypatch):
        levels = [g for f in c02_kernels() for g in symmetric_parts(f).levels]
        levels.append(SeparableKernel(2, MarkovBase(HALF_CHAIN), (KernelTerm(1.0, (
            StateFunction(np.array([1.0, -1.0])), StateFunction(np.array([-0.5, 0.5])))),)))
        built = []
        post_init = SeparableKernel.__post_init__
        monkeypatch.setattr(SeparableKernel, "__post_init__", lambda g: built.append(g) or post_init(g))
        monkeypatch.setattr(kernels, "_expand", lambda g: built.append(g) or {})
        monkeypatch.setattr(kernels, "_tensor", lambda g: built.append(g) or np.zeros(()))
        circle = [g for g in levels if isinstance(g.base, CircleBase)]
        assert len(circle) > 400
        for g in circle + levels[-1:]:
            assert all(g.base.mean(t.factors[slot]) == 0 for t in g.terms for slot in range(g.arity))
            assert is_canonical(g, tol=0.0)
        # a chain level's centred factors keep means of rounding size; its term bound covers them
        chain = [g for g in levels[:-1] if isinstance(g.base, MarkovBase)]
        assert len(chain) > 200
        assert any(g.base.mean(u) != 0 for g in chain for t in g.terms for u in t.factors)
        assert all(is_canonical(g, tol=COEFF_TOL) for g in chain)
        assert built == []

    def test_cancelling_terms_fall_back_to_the_kernel(self, monkeypatch):
        u, v = StateFunction(np.array([1.0, 2.0])), StateFunction(np.array([-3.0, 0.5]))
        f = SeparableKernel(2, MarkovBase(HALF_CHAIN), tuple(KernelTerm(c, (u, v)) for c in (2.0, -2.0)))
        # two terms of 2 |E u| sup v = 9 bound slot 0, two of 2 sup u |E v| = 5 slot 1; yet f is zero
        (b0, b1), margin = hoeffding._slot_bounds(f), 1 + (11 * 2 + 2 * 2) * 2.0 ** -51
        assert (b0, b1) == (18.0 * margin, 10.0 * margin)
        tensor = kernels._tensor
        assert tensor(f).tobytes() == np.zeros((2, 2)).tobytes()
        built = []
        monkeypatch.setattr(kernels, "_tensor", lambda g: built.append(g) or tensor(g))
        assert is_canonical(f, tol=0.0)
        assert len(built) == 2

    def test_underflowing_bound_falls_back(self):
        tiny, huge = StateFunction(np.array([1e-30, 1e-30])), StateFunction(np.array([1e30, 1e30]))
        f = SeparableKernel(2, MarkovBase(HALF_CHAIN), (KernelTerm(1e-300, (tiny, huge)),))
        # |c| |E tiny| = 1e-330 is below 2^-1022, where the margin stops covering the rounding
        assert hoeffding._slot_bounds(f) == [math.inf, math.inf]
        for tol in (0.0, 1e-301, 1e-299):
            want = all(kernel_sup_coeff(integrate_out_reference(f, slot)) <= tol for slot in range(2))
            assert is_canonical(f, tol) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=extreme_kernels())
    def test_bound_covers_the_sup(self, f):
        with np.errstate(over="ignore", invalid="ignore"):  # 1e150^3 overflows, as it should
            bounds = hoeffding._slot_bounds(f)
            sups = [kernel_sup_coeff(integrate_out_reference(f, slot)) for slot in range(f.arity)]
            for bound, sup in zip(bounds, sups):
                assert not bound < sup
            for tol in sorted(set(sups) | {b for b in bounds if math.isfinite(b)} | {0.0, COEFF_TOL}):
                assert is_canonical(f, tol) == all(sup <= tol for sup in sups)


class TestSymmetry:
    def test_symmetric_detected(self):
        rng = rng_for(406)
        for d in (2, 3, 4):
            f = random_symmetric_circle_kernel(rng, d, max_terms=16)
            assert is_symmetric(f)

    def test_asymmetric_detected_with_witness(self):
        e1 = FourierPoly({1: 1.0, -1: 1.0})
        e2 = FourierPoly({2: 1.0, -2: 1.0})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, e2)),))
        assert not is_symmetric(f)
        witness = find_asymmetry_witness(f)
        assert witness is not None
        index, j, a, b = witness
        assert j == 0
        modes = expand_modes(f)

        def real_part(k):
            neg = tuple(-x for x in k)
            return (modes.get(k, 0.0) + np.conj(modes.get(neg, 0.0))) / 2

        assert a == real_part(index)
        assert b == real_part((index[1], index[0]))
        assert abs(a - b) > 1e-9
        # on a Markov base the witness is a state tuple and two kernel values
        chain = random_ergodic_chain(rng_for(414), 3)
        u = StateFunction(np.array([1.0, 0.0, -1.0]))
        v = StateFunction(np.array([0.0, 2.0, 0.0]))
        g = SeparableKernel(2, MarkovBase(chain), (KernelTerm(1.0, (u, v)),))
        index, j, a, b = find_asymmetry_witness(g)
        assert j == 0
        assert all(isinstance(i, int) for i in index)
        swapped = (index[1], index[0])
        tensor = kernels._tensor(g)
        assert a == tensor[index] == kernel_eval(g, index)
        assert b == tensor[swapped] == kernel_eval(g, swapped)
        assert abs(a - b) > 1e-9

    def test_martingale_part_symmetric_without_point_evaluation(self, monkeypatch):
        # the mode-by-mode martingale part of a c09-style kernel folds each
        # coefficient into its first factor, so its terms never match their
        # slot transposes as a multiset; the function is symmetric all the same
        f = random_canonical_pair_kernel(rng_for(1009), n_pairs=3)
        g0 = martingale_split_reference(f)[0]

        def key(u, v):
            return tuple(sorted(u.items())), tuple(sorted(v.items()))

        terms = {key(*t.factors) for t in g0.terms}
        assert {key(v, u) for u, v in (t.factors for t in g0.terms)} != terms
        calls = []
        original = kernel_eval

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("vmstat") and getattr(module, "kernel_eval", None) is original:
                monkeypatch.setattr(module, "kernel_eval", counting)
        assert is_symmetric(g0)
        assert calls == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.integers(-6, 6),
        b=st.integers(-6, 6),
        eps=st.one_of(st.just(0.0), st.floats(1e-8, 10.0)),
    )
    def test_perturbed_mode_pair_has_witness(self, seed, a, b, eps):
        # with a = -b the perturbation is itself symmetric
        assume(a != b and a != -b)
        f = random_symmetric_circle_kernel(rng_for(seed), 2, max_terms=8)
        bump = SeparableKernel(2, CIRCLE, (
            KernelTerm(eps, (FourierPoly({a: 1.0}), FourierPoly({b: 1.0}))),
            KernelTerm(eps, (FourierPoly({-a: 1.0}), FourierPoly({-b: 1.0}))),
        ))
        witness = find_asymmetry_witness(kernel_add(f, bump))
        if eps == 0.0:
            assert witness is None
            return
        assert witness is not None
        index, j, x, y = witness
        assert index in {(a, b), (b, a), (-a, -b), (-b, -a)}
        assert abs(abs(x - y) - eps) < 1e-12

    def test_symmetric_beyond_term_multiset(self):
        # representation is not a symmetrized orbit, the function still is
        e1 = FourierPoly({1: 1.0})
        em1 = FourierPoly({-1: 1.0})
        sum_poly = FourierPoly({1: 1.0, -1: 1.0})
        f = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (sum_poly, sum_poly)),
            KernelTerm(-1.0, (e1, e1)),
            KernelTerm(-1.0, (em1, em1)),
        ))
        # f = e1 x e-1 + e-1 x e1 after expansion
        assert is_symmetric(f)

    def test_markov_symmetry(self):
        rng = rng_for(407)
        chain = random_ergodic_chain(rng, 3)
        f = random_symmetric_markov_kernel(rng, 3, chain, max_terms=12)
        assert is_symmetric(f)
        u = StateFunction(np.array([1.0, 0.0, -1.0]))
        v = StateFunction(np.array([0.0, 2.0, 0.0]))
        g = SeparableKernel(2, MarkovBase(chain), (KernelTerm(1.0, (u, v)),))
        assert not is_symmetric(g)


WITNESS_CHAIN = random_ergodic_chain(rng_for(415), 3)
_CIRCLE_FACTORS = st.dictionaries(
    st.integers(-2, 2), st.sampled_from([1.0, -1.0, 0.5, 1j, 2.0 - 1j]), min_size=1, max_size=3,
).map(FourierPoly)
_STATE_FACTORS = st.lists(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), min_size=3, max_size=3,
).map(lambda v: StateFunction(np.array(v)))


@st.composite
def witness_kernels(draw):
    """Kernels of arity 2-4 on both bases; symmetrized, or not, so that several transposes fail.

    Few distinct modes and values make indices collide across terms,
    and a small perturbation may push one coefficient just past the
    tolerance.
    """
    d = draw(st.integers(2, 4))
    circle = draw(st.booleans())
    base, factors = (CIRCLE, _CIRCLE_FACTORS) if circle else (MarkovBase(WITNESS_CHAIN), _STATE_FACTORS)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from([1.0, -1.0, 0.5, 1.0 + 2e-9]))
        pattern = [draw(factors) for _ in range(d)]
        if draw(st.booleans()):
            terms += symmetrize_terms(coeff, pattern, d)
        else:
            terms.append(KernelTerm(coeff, tuple(pattern)))
    return SeparableKernel(d, base, tuple(terms))


class TestWitnessOracle:
    """find_asymmetry_witness against the sorted scan of helpers, by repr of the witness."""

    @staticmethod
    def assert_matches_oracle(f, tol=1e-9):
        got = find_asymmetry_witness(f, tol)
        assert repr(got) == repr(find_asymmetry_witness_reference(f, tol))
        return got

    def test_c02_kernels_and_their_slot_rotations(self):
        for f in c02_kernels():
            assert self.assert_matches_oracle(f) is None
            if f.arity > 1:
                # the first term with its factors rotated by one slot
                t = f.terms[0]
                rotated = KernelTerm(0.5, t.factors[1:] + t.factors[:1])
                self.assert_matches_oracle(kernel_add(f, SeparableKernel(f.arity, f.base, (rotated,))))

    def test_c09_martingale_parts(self):
        for f in c09_kernels():
            assert self.assert_matches_oracle(martingale_coboundary_d2(f).martingale) is None

    def test_later_transpose_and_several_failing(self):
        u, v, w = FourierPoly({1: 1.0, -2: 0.5}), FourierPoly({1: 2.0, 2: 1j}), FourierPoly({-1: 1.0})
        # slots 0 and 1 commute, slots 1 and 2 do not: the witness is on transpose 1
        f = SeparableKernel(3, CIRCLE, (KernelTerm(1.0, (u, u, w)), KernelTerm(1.0, (u, u, v))))
        assert self.assert_matches_oracle(f)[1] == 1
        # every transpose fails, at many indices; the sorted scan's first one wins
        g = SeparableKernel(4, CIRCLE, (KernelTerm(1.0, (u, v, w, u)), KernelTerm(-0.5, (w, u, v, v))))
        assert self.assert_matches_oracle(g)[1] == 0
        h = SeparableKernel(3, MarkovBase(WITNESS_CHAIN), (KernelTerm(1.0, (
            StateFunction(np.array([1.0, 0.0, 2.0])),
            StateFunction(np.array([0.0, 1.0, 1.0])),
            StateFunction(np.array([2.0, 1.0, 0.0])),
        )),))
        assert self.assert_matches_oracle(h)[1] == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=witness_kernels(), tol=st.sampled_from([1e-9, 0.0, 0.75]))
    def test_drawn_kernels(self, f, tol):
        self.assert_matches_oracle(f, tol)


class TestInclusionExclusionOracle:
    def kernels(self):
        rng = rng_for(415)
        chain = random_ergodic_chain(rng, 3)
        for d in (1, 2, 3, 4):
            for _ in range(3):
                yield random_symmetric_circle_kernel(rng, d, max_terms=12)
                yield random_symmetric_markov_kernel(rng, d, chain, max_terms=12)

    def test_components_match_oracle(self):
        for f in self.kernels():
            comp = hoeffding_components(f)
            assert len(comp) == 2 ** f.arity
            for S, piece in comp.items():
                assert kernels_allclose(piece, hoeffding_component_oracle(f, S), tol=1e-12)

    def test_levels_match_oracle(self):
        for f in self.kernels():
            d = f.arity
            one = constant_observable(f.base, 1.0)
            for m, level in enumerate(symmetric_parts(f).levels, start=1):
                padded = SeparableKernel(d, f.base, tuple(
                    KernelTerm(t.coeff, t.factors + (one,) * (d - m)) for t in level.terms))
                oracle = hoeffding_component_oracle(f, range(m))
                assert kernels_allclose(padded, oracle, tol=1e-12)


class TestSymmetricParts:
    def test_rejects_asymmetric_with_witness_message(self):
        e1 = FourierPoly({1: 1.0, -1: 1.0})
        e2 = FourierPoly({2: 1.0, -2: 1.0})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, e2)),))
        with pytest.raises(SymmetryError) as err:
            symmetric_parts(f)
        assert "swap" in str(err.value) or "slot" in str(err.value)

    def test_constant_is_mean(self):
        rng = rng_for(408)
        f = random_symmetric_circle_kernel(rng, 2, max_terms=8)
        parts = symmetric_parts(f)
        assert abs(parts.constant - kernel_mean(f)) < 1e-10

    def test_levels_match_quadrature(self):
        # for d=2: R1(x) = int f(x,z) dz - R0 and
        # R2(x,y) = f(x,y) - R1(x) - R1(y) - R0, checked pointwise
        rng = rng_for(409)
        f = random_symmetric_circle_kernel(rng, 2, max_terms=8)
        parts = symmetric_parts(f)
        r0 = parts.constant
        r1, r2 = parts.levels
        zs = (np.arange(512) + 0.5) / 512
        for x in (0.13, 0.77):
            marg = float(np.mean([kernel_eval(f, (x, z)) for z in zs]))
            assert abs(kernel_eval(r1, (x,)) - (marg - r0)) < 1e-4
        for x, y in [(0.2, 0.6), (0.35, 0.05)]:
            want = (kernel_eval(f, (x, y)) - kernel_eval(r1, (x,))
                    - kernel_eval(r1, (y,)) - r0)
            assert abs(kernel_eval(r2, (x, y)) - want) < 1e-10

    def test_levels_are_canonical(self):
        rng = rng_for(410)
        for d in (2, 3):
            f = random_symmetric_circle_kernel(rng, d, max_terms=12)
            parts = symmetric_parts(f)
            for level in parts.levels:
                assert is_canonical(level, tol=1e-10)

    def test_reconstruct_round_trip(self):
        rng = rng_for(411)
        for d in (1, 2, 3):
            f = random_symmetric_circle_kernel(rng, d, max_terms=12)
            assert kernels_allclose(reconstruct(symmetric_parts(f)), f, tol=1e-10)

    def test_reconstruct_round_trip_markov(self):
        rng = rng_for(412)
        chain = random_ergodic_chain(rng, 4)
        f = random_symmetric_markov_kernel(rng, 2, chain, max_terms=8)
        assert kernels_allclose(reconstruct(symmetric_parts(f)), f, tol=1e-10)

    def test_canonical_input_is_its_own_top_level(self):
        e1 = FourierPoly({1: 1.0})
        em1 = FourierPoly({-1: 1.0})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),
                                        KernelTerm(1.0, (em1, e1))))
        parts = symmetric_parts(f)
        assert parts.constant == 0.0
        assert kernels_allclose(parts.levels[0], zero_kernel(1, CIRCLE))
        assert kernels_allclose(parts.levels[1], f)

    def test_degree_and_json(self):
        f = hand_kernel()
        parts = symmetric_parts(f)
        assert isinstance(parts, HoeffdingParts)
        assert parts.degree() == 1
        d = parts.to_json_dict()
        assert d["R0"] == pytest.approx(3.0)
        assert len(d["parts"]) == 2


def _fresh(f: SeparableKernel) -> SeparableKernel:
    """f with a deep copy of its factor in every slot of every term: no factor object shared."""
    return SeparableKernel(f.arity, f.base, tuple(KernelTerm(t.coeff, tuple(map(copy.deepcopy, t.factors)))
                                                  for t in f.terms))


def _bits(g: SeparableKernel) -> list:
    """The terms' reprs (which tell -0.0 from 0.0) and the exact form's arrays as bytes."""
    form = exact_form(g)
    arrays = [form.axis, form.codes, form.values, form.first]
    return [repr(g.to_json_dict())] + [a.tobytes() if a.dtype != object else repr(a.tolist()) for a in arrays]


def _algebra_bits(f: SeparableKernel) -> list:
    """Every output of the split, the symmetric parts and the canonicity checks on f, as bits."""
    components = hoeffding_components(f)
    parts = symmetric_parts(f)
    return ([_bits(f)] + [(sorted(S), _bits(g), is_canonical(g)) for S, g in components.items()]
            + [repr(parts.constant)] + [(_bits(g), is_canonical(g), is_canonical(g, tol=0.0)) for g in parts.levels])


class TestSharedFactors:
    """The Hoeffding algebra does its per-factor work once per distinct factor object, same bits."""

    def test_c02_corpus_same_bits_shared_or_fresh(self):
        for f in c02_kernels():
            assert _algebra_bits(f) == _algebra_bits(_fresh(f))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           base=st.sampled_from(["circle m=2", "circle m=3", "markov"]))
    def test_drawn_kernels_same_bits_shared_or_fresh(self, seed, d, base):
        f = random_symmetric_kernel(seed, d, base)
        assert _algebra_bits(f) == _algebra_bits(_fresh(f))

    @pytest.mark.parametrize("base", ["circle m=2", "markov"])
    def test_symmetric_parts_centres_each_distinct_factor_once(self, base, monkeypatch):
        f = random_symmetric_kernel(28, 4, base)
        centred = []
        centre = type(f.base).centre

        def counting(self, u):
            centred.append(id(u))
            return centre(self, u)

        monkeypatch.setattr(type(f.base), "centre", counting)
        symmetric_parts(f)
        distinct = {id(u) for t in f.terms for u in t.factors}
        assert sorted(centred) == sorted(distinct) and len(distinct) <= 2 < f.n_terms
