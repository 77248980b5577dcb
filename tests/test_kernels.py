"""Separable kernels over both bases: algebra and restrictions."""

from __future__ import annotations

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmstat import kernels
from vmstat.fourier import BLOCK, DROP_TOL, FourierPoly
from vmstat.hoeffding import find_asymmetry_witness, hoeffding_components, symmetric_parts
from vmstat.kernels import (
    COEFF_TOL,
    BaseMismatchError,
    CircleBase,
    KernelTerm,
    MarkovBase,
    PiecewiseConstant,
    SeparableKernel,
    coordinate_op,
    diag_restrict,
    kernel_add,
    kernel_eval,
    kernel_mean,
    kernel_sup_coeff,
    kernels_allclose,
    partition_restrict,
    projective_bound,
    zero_kernel,
)
from vmstat.markov import MarkovChain, StateFunction
from vmstat.martingale import martingale_coboundary_d2, spectral_decompose

from helpers import (
    c02_kernels,
    c09_kernels,
    circle_spectral_matrix_reference,
    constant_kernel,
    expand_modes,
    expand_modes_reference,
    find_asymmetry_witness_reference,
    grid,
    kernel_scale,
    kernels_allclose_reference,
    mapping,
    random_ergodic_chain,
    random_poly,
    random_symmetric_markov_kernel,
    real_part_reference,
    reparse,
    rng_for,
    to_tensor_reference,
)

CIRCLE = CircleBase(2)


def example_kernel() -> SeparableKernel:
    e2 = FourierPoly({2: 1.0})
    em2 = FourierPoly({-2: 1.0})
    return SeparableKernel(2, CIRCLE, (
        KernelTerm(1.0, (e2, em2)),
        KernelTerm(1.0, (em2, e2)),
    ))


def two_state_chain() -> MarkovChain:
    return MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))


class TestConstruction:
    def test_complex_coeff_rejected(self):
        with pytest.raises(TypeError):
            KernelTerm(1.0 + 2.0j, (FourierPoly({1: 1.0}),))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.clongdouble])
    def test_numpy_complex_coeff_rejected(self, dtype):
        # float() of a numpy complex drops the imaginary part with only a warning
        with pytest.raises(TypeError, match="term coefficients are real"):
            KernelTerm(dtype(1 + 2j), (FourierPoly({1: 1.0}),))
        with pytest.raises(TypeError, match="term coefficients are real"):
            KernelTerm(dtype(1), (FourierPoly({1: 1.0}),))

    @pytest.mark.parametrize("value", [np.float16(1.5), np.float32(1.5), np.float64(1.5),
                                       np.longdouble(1.5), np.int64(3)],
                             ids=lambda v: type(v).__name__)
    def test_numpy_real_coeff_accepted(self, value):
        t = KernelTerm(value, (FourierPoly({1: 1.0}),))
        assert type(t.coeff) is float and t.coeff == float(value)

    def test_zero_terms_dropped(self):
        f = SeparableKernel(1, CIRCLE, (
            KernelTerm(0.0, (FourierPoly({1: 1.0}),)),
            KernelTerm(1.0, (FourierPoly.zero(),)),
            KernelTerm(2.0, (FourierPoly({1: 1.0}),)),
        ))
        assert len(f.terms) == 1
        # on a chain, a factor whose values are all 0.0 or -0.0
        u, zero = StateFunction(np.array([1.0, -2.0])), StateFunction(np.array([-0.0, 0.0]))
        terms = (KernelTerm(1.0, (u, zero)), KernelTerm(2.0, (u, u)))
        g = SeparableKernel(2, MarkovBase(two_state_chain()), terms)
        assert [t.coeff for t in g.terms] == [2.0]

    def test_wrong_factor_count(self):
        with pytest.raises(ValueError):
            SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (FourierPoly({1: 1.0}),)),))

    def test_wrong_factor_kind(self):
        with pytest.raises((TypeError, BaseMismatchError)):
            SeparableKernel(1, CIRCLE, (
                KernelTerm(1.0, (StateFunction(np.array([1.0, -1.0])),)),))

    def test_state_function_length_checked(self):
        base = MarkovBase(two_state_chain())
        with pytest.raises((ValueError, BaseMismatchError)):
            SeparableKernel(1, base, (
                KernelTerm(1.0, (StateFunction(np.array([1.0, 2.0, 3.0])),)),))

    def test_same_base(self):
        assert CircleBase(2) == CircleBase(2)
        assert CircleBase(2) != CircleBase(3)
        chain = two_state_chain()
        assert MarkovBase(chain) == MarkovBase(two_state_chain())
        assert CircleBase(2) != MarkovBase(chain)

    def test_add_requires_shared_base(self):
        f = zero_kernel(1, CIRCLE)
        g = zero_kernel(1, CircleBase(3))
        with pytest.raises(BaseMismatchError):
            kernel_add(f, g)

    def test_json_round_trip_circle(self):
        f = example_kernel()
        g = reparse(f)["kernel"]
        assert kernels_allclose(f, g)

    def test_json_round_trip_markov(self):
        chain = two_state_chain()
        f = SeparableKernel(2, MarkovBase(chain), (
            KernelTerm(0.5, (StateFunction(np.array([1.0, -1.0])),
                             StateFunction(np.array([2.0, 0.0])))),))
        g = reparse(f)["kernel"]
        assert kernels_allclose(f, g)


class TestBaseInterface:
    """The per-base operations CircleBase and MarkovBase share."""

    @staticmethod
    def bases_with_observable():
        return [
            (CIRCLE, FourierPoly.constant(5.0)),
            (MarkovBase(two_state_chain()), StateFunction(np.array([3.0, -4.0]))),
        ]

    @pytest.mark.parametrize("exponent", [math.inf, math.nan, -math.inf, 0.5])
    def test_lp_norm_rejects_exponent_outside_one_to_inf(self, exponent):
        for base, u in self.bases_with_observable():
            with pytest.raises(ValueError):
                base.lp_norm(u, exponent)

    def test_lp_norm_finite_exponents(self):
        (circle, five), (chain, u) = self.bases_with_observable()
        for p in (1.0, 2.0, 3.5):
            assert abs(circle.lp_norm(five, p) - 5.0) < 1e-12
        # pi = (1/2, 1/2) on the symmetric two-state chain
        assert abs(chain.lp_norm(u, 1.0) - 3.5) < 1e-15
        assert abs(chain.lp_norm(u, 2.0) - math.sqrt(12.5)) < 1e-15
        assert abs(chain.sq_norm(u) - 12.5) < 1e-15

    def test_centring_and_invariant_mean(self):
        for base, u in self.bases_with_observable():
            assert abs(base.mean(u - base.constant(base.mean(u)))) < 1e-15
            # the adjoint step preserves the invariant mean
            assert abs(base.mean(base.adjoint_step(u, 3)) - base.mean(u)) < 1e-14

    def test_state_function_arithmetic(self):
        u = StateFunction(np.array([3.0, -4.0]))
        v = StateFunction(np.array([0.5, 2.0]))
        assert np.array_equal((u + v).values, [3.5, -2.0])
        assert np.array_equal((u - v).values, [2.5, -6.0])
        assert np.array_equal((u * v).values, [1.5, -8.0])
        assert np.array_equal((2.0 * u).values, (u * 2.0).values)
        assert u and not StateFunction(np.zeros(2))

    def test_state_function_truth_is_any_nonzero_value(self):
        for values, truth in (([0.0, -0.0], False), ([-0.0], False), ([5e-324, 0.0], True),
                              ([0.0, math.inf], True), ([math.nan], True), ([-0.0, -1.0], True)):
            values = np.array(values)
            assert bool(StateFunction(values)) is truth is bool(values.any())

    def test_sup_coeff(self):
        (circle, five), (chain, u) = self.bases_with_observable()
        assert circle.sup_coeff(five) == 5.0
        assert circle.sup_coeff(FourierPoly({1: 3 + 4j, -2: -1.0})) == 5.0
        assert chain.sup_coeff(u) == 4.0
        for base in (circle, chain):
            assert base.sup_coeff(base.constant(0.0)) == 0.0
            assert base.sup_coeff(base.constant(-2.5)) == 2.5
        assert math.isnan(chain.sup_coeff(StateFunction(np.array([1.0, math.nan]))))
        assert chain.sup_coeff(StateFunction(np.array([-math.inf, 1.0]))) == math.inf


class TestEvaluation:
    def test_eval_matches_manual_circle(self):
        f = example_kernel()
        x, y = 0.13, 0.71
        manual = 2.0 * math.cos(2.0 * math.pi * 2 * (x - y))
        assert abs(kernel_eval(f, (x, y)) - manual) < 1e-12

    def test_eval_matches_manual_markov(self):
        chain = two_state_chain()
        u = StateFunction(np.array([1.0, -1.0]))
        v = StateFunction(np.array([2.0, 5.0]))
        f = SeparableKernel(2, MarkovBase(chain), (KernelTerm(3.0, (u, v)),))
        assert abs(kernel_eval(f, (0, 1)) - 3.0 * 1.0 * 5.0) < 1e-14
        assert abs(kernel_eval(f, (1, 0)) - 3.0 * (-1.0) * 2.0) < 1e-14

    def test_eval_arity_checked(self):
        with pytest.raises(ValueError):
            kernel_eval(example_kernel(), (0.5,))

    @pytest.mark.parametrize("state", [-1, 2, 7])
    def test_eval_rejects_state_outside_chain(self, state):
        f = SeparableKernel(1, MarkovBase(two_state_chain()), (
            KernelTerm(1.0, (StateFunction(np.array([3.0, -4.0])),)),))
        assert kernel_eval(f, (1,)) == -4.0
        with pytest.raises(ValueError):
            kernel_eval(f, (state,))
        with pytest.raises(ValueError):
            f.terms[0].factors[0].evaluate(np.array([0, 1, state]))

    @pytest.mark.parametrize("state", [1.7, 0.9])
    def test_eval_rejects_non_integral_state(self, state):
        # truncating toward zero would read state 1 for 1.7 and state 0 for 0.9
        f = SeparableKernel(1, MarkovBase(two_state_chain()), (
            KernelTerm(1.0, (StateFunction(np.array([3.0, -4.0])),)),))
        assert kernel_eval(f, (1.0,)) == -4.0
        with pytest.raises(ValueError, match="integers"):
            kernel_eval(f, (state,))
        with pytest.raises(ValueError, match="integers"):
            f.terms[0].factors[0].evaluate(np.array([0.0, state]))

    def test_mean_circle_against_quadrature(self):
        rng = rng_for(301)
        xs = grid()[::8]
        for _ in range(5):
            u = random_poly(rng, n_modes=3, real=True)
            v = random_poly(rng, n_modes=3, real=True)
            f = SeparableKernel(2, CIRCLE, (KernelTerm(1.3, (u, v)),
                                            KernelTerm(-0.4, (v, v))))
            oracle = 0.0
            for t in f.terms:
                prod = t.coeff
                for w in t.factors:
                    prod *= float(np.mean(w.evaluate(xs).real))
                oracle += prod
            assert abs(kernel_mean(f) - oracle) < 1e-9

    def test_mean_markov_uses_stationary_weights(self):
        chain = two_state_chain()
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(chain), (KernelTerm(2.0, (u,)),))
        assert abs(kernel_mean(f) - 2.0 * float(np.dot(chain.pi, u.values))) < 1e-14

    def test_mean_rejects_imaginary(self):
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (FourierPoly({1: 1.0}),)),
                                        KernelTerm(1.0, (FourierPoly({0: 1j}),))))
        with pytest.raises(ValueError):
            kernel_mean(f)

    def test_scale_and_constant(self):
        f = kernel_scale(example_kernel(), -2.0)
        assert abs(kernel_eval(f, (0.0, 0.0)) + 4.0) < 1e-12
        c = constant_kernel(3.5, 2, CIRCLE)
        assert abs(kernel_eval(c, (0.2, 0.9)) - 3.5) < 1e-14
        assert abs(kernel_mean(c) - 3.5) < 1e-14


class TestRestrictions:
    def test_diag_restrict_circle(self):
        f = example_kernel()
        diag = diag_restrict(f)
        xs = grid()[::16]
        lhs = diag.evaluate(xs).real
        rhs = np.array([kernel_eval(f, (x, x)) for x in xs])
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert diag == FourierPoly({0: 2.0})

    def test_diag_restrict_markov(self):
        chain = two_state_chain()
        u = StateFunction(np.array([1.0, -1.0]))
        v = StateFunction(np.array([2.0, 5.0]))
        f = SeparableKernel(2, MarkovBase(chain), (KernelTerm(3.0, (u, v)),))
        diag = diag_restrict(f)
        assert np.allclose(diag.values, [6.0, -15.0])

    def test_piecewise_constant_evaluate(self):
        step = PiecewiseConstant(2, np.array([1.0, 2.0, 3.0, 4.0]))
        assert step.evaluate(0.10) == 1.0
        assert step.evaluate(0.30) == 2.0
        assert np.allclose(step.evaluate(np.array([0.6, 0.99])), [3.0, 4.0])
        with pytest.raises(ValueError):
            PiecewiseConstant(2, np.array([1.0]))

    def test_piecewise_constant_takes_points_mod_one(self):
        step = PiecewiseConstant(2, np.array([1.0, 2.0, 3.0, 4.0]))
        assert step.evaluate(-0.3) == 3.0
        assert step.evaluate(1.25) == 2.0
        # -1e-17 mod 1 rounds to 1.0, which reads the last arc
        assert step.evaluate(-1e-17) == 4.0
        assert step.evaluate(np.array([-0.3, 1.25, 7.0])).tolist() == [3.0, 2.0, 1.0]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                step.evaluate(bad)
            with pytest.raises(ValueError, match="finite"):
                step.evaluate(np.array([0.25, bad]))

    def test_partition_closed_form_sinc_squared(self):
        f = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (FourierPoly({1: 1.0}), FourierPoly({-1: 1.0}))),))
        for level in range(1, 9):
            h = 2.0 ** -level
            want = (math.sin(math.pi * h) / (math.pi * h)) ** 2
            step = partition_restrict(f, level)
            assert np.max(np.abs(step.values - want)) < 1e-12

    def test_partition_against_arc_quadrature(self):
        rng = rng_for(302)
        u = random_poly(rng, n_modes=3, real=True)
        v = random_poly(rng, n_modes=3, real=True)
        f = SeparableKernel(2, CIRCLE, (KernelTerm(0.7, (u, v)),
                                        KernelTerm(1.1, (v, u))))
        level = 3
        n_arcs = 2 ** level
        fine = 20000
        step = partition_restrict(f, level)
        for j in range(n_arcs):
            xs = (j + (np.arange(fine) + 0.5) / fine) / n_arcs
            oracle = 0.0
            for t in f.terms:
                prod = t.coeff
                for w in t.factors:
                    prod *= float(np.mean(w.evaluate(xs)).real)
                oracle += prod
            assert abs(step.values[j] - oracle) < 1e-6

    def test_partition_level_zero_is_mean(self):
        f = example_kernel()
        step = partition_restrict(f, 0)
        assert abs(step.values[0] - kernel_mean(f)) < 1e-12

    def test_partition_rejects_markov_and_bad_level(self):
        chain = two_state_chain()
        g = zero_kernel(1, MarkovBase(chain))
        with pytest.raises(BaseMismatchError):
            partition_restrict(g, 2)
        with pytest.raises(ValueError):
            partition_restrict(example_kernel(), 27)


class TestCoordinateOp:
    def test_forward_is_composition_circle(self):
        f = example_kernel()
        g = coordinate_op(f, (1, 2), adjoint=False)
        for x, y in [(0.11, 0.47), (0.73, 0.05)]:
            want = kernel_eval(f, ((2 * x) % 1.0, (4 * y) % 1.0))
            assert abs(kernel_eval(g, (x, y)) - want) < 1e-10

    def test_adjoint_divides_modes_circle(self):
        f = example_kernel()
        g = coordinate_op(f, (1, 1), adjoint=True)
        want = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (FourierPoly({1: 1.0}), FourierPoly({-1: 1.0}))),
            KernelTerm(1.0, (FourierPoly({-1: 1.0}), FourierPoly({1: 1.0}))),
        ))
        assert kernels_allclose(g, want)
        # one more application kills the odd modes entirely
        assert kernels_allclose(coordinate_op(g, (1, 1), adjoint=True),
                                zero_kernel(2, CIRCLE))

    def test_adjoint_markov_is_q_power(self):
        chain = two_state_chain()
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(chain), (KernelTerm(1.0, (u,)),))
        g = coordinate_op(f, (3,), adjoint=True)
        want = np.linalg.matrix_power(chain.Q, 3) @ u.values
        assert np.allclose(g.terms[0].factors[0].values, want)

    def test_forward_rejected_on_markov(self):
        chain = two_state_chain()
        f = zero_kernel(1, MarkovBase(chain))
        with pytest.raises(BaseMismatchError):
            coordinate_op(f, (1,), adjoint=False)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            coordinate_op(example_kernel(), (1,), adjoint=True)
        with pytest.raises(ValueError):
            coordinate_op(example_kernel(), (1, -1), adjoint=True)


class TestBoundsAndExpansion:
    def test_projective_bound_manual(self):
        u = FourierPoly({1: 3.0})           # |u|_2 = 3
        v = FourierPoly({2: 1.0, -2: 1.0})  # |v|_2 = sqrt(2)
        f = SeparableKernel(2, CIRCLE, (KernelTerm(2.0, (u, v)),
                                        KernelTerm(-1.0, (v, v))))
        want = 2.0 * 3.0 * math.sqrt(2.0) + 1.0 * 2.0
        assert abs(projective_bound(f, 2.0) - want) < 1e-12

    def test_expand_modes_example(self):
        f = example_kernel()
        assert expand_modes(f) == {(2, -2): (1 + 0j), (-2, 2): (1 + 0j)}

    def test_expand_modes_collects_duplicates(self):
        e1 = FourierPoly({1: 1.0})
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (e1,)),
                                        KernelTerm(2.5, (e1,))))
        assert expand_modes(f) == {(1,): (3.5 + 0j)}

    def test_to_tensor_matches_eval(self):
        rng = rng_for(303)
        chain = random_ergodic_chain(rng, 3)
        base = MarkovBase(chain)
        u = StateFunction(rng.normal(size=3))
        v = StateFunction(rng.normal(size=3))
        f = SeparableKernel(2, base, (KernelTerm(1.0, (u, v)),
                                      KernelTerm(-2.0, (v, u))))
        T = kernels._tensor(f)
        assert T.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert abs(T[i, j] - kernel_eval(f, (i, j))) < 1e-12

    def test_sup_coeff_and_allclose(self):
        f = example_kernel()
        assert abs(kernel_sup_coeff(f) - 1.0) < 1e-15
        g = kernel_scale(f, 1.0 + 5e-13)
        assert kernels_allclose(f, g)
        assert not kernels_allclose(f, kernel_scale(f, 1.001))
        # on a chain the exact form is the value tensor
        u = StateFunction(np.array([1.0, -3.0]))
        v = StateFunction(np.array([0.5, 2.0]))
        h = SeparableKernel(2, MarkovBase(two_state_chain()), (KernelTerm(1.0, (u, v)),
                                                               KernelTerm(-0.5, (v, v))))
        assert kernel_sup_coeff(h) == np.max(np.abs(kernels._tensor(h))) == 8.0
        assert kernels_allclose(h, kernel_scale(h, 1.0 + 1e-13))
        # the largest change is 8e-4, at the entry -8
        assert kernels_allclose(h, kernel_scale(h, 1.0 + 1e-4), tol=1e-3)
        assert not kernels_allclose(h, kernel_scale(h, 1.0 + 1e-4), tol=5e-4)

    def test_allclose_sees_through_representation(self):
        # same function written with different term groupings
        e1 = FourierPoly({1: 1.0})
        e2 = FourierPoly({2: 1.0})
        both = FourierPoly({1: 1.0, 2: 1.0})
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (both,)),))
        g = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (e1,)),
                                        KernelTerm(1.0, (e2,))))
        assert kernels_allclose(f, g)


#: chains of 1, 2 and 3 states
_TENSOR_CHAINS = (MarkovChain(np.array([[1.0]])), MarkovChain(np.array([[0.25, 0.75], [0.75, 0.25]])),
                  MarkovChain(np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])))
_SIGNED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3e-160, -3e-160, -7.0])


@st.composite
def signed_chain_kernels(draw):
    """Chain kernels of arity 1-3 over 1-3 states whose products are often -0.0, 0.0 or tiny."""
    base = MarkovBase(draw(st.sampled_from(_TENSOR_CHAINS)))
    s, d = base.chain.n_states, draw(st.integers(1, 3))

    def factor():
        return StateFunction(np.array(draw(st.lists(_SIGNED_VALUES, min_size=s, max_size=s))))

    terms = tuple(KernelTerm(draw(st.sampled_from([1.0, -1.0, 0.5, -3.0, 1e-200])),
                             tuple(factor() for _ in range(d)))
                  for _ in range(draw(st.integers(0, 5))))
    return SeparableKernel(d, base, terms)


class TestTensorOracle:
    """The chain's tensor builder (kernels._tensor) against to_tensor_reference, byte for byte."""

    @staticmethod
    def assert_matches_oracle(f):
        got, want = kernels._tensor(f), to_tensor_reference(f)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_c02_chain_kernels_and_levels(self):
        chain = [f for f in c02_kernels() if isinstance(f.base, MarkovBase)]
        assert len(chain) == 100
        for f in chain:
            self.assert_matches_oracle(f)
            for g in symmetric_parts(f).levels:
                self.assert_matches_oracle(g)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=signed_chain_kernels())
    def test_drawn_kernels(self, f):
        self.assert_matches_oracle(f)

    def test_signed_zeros(self):
        # every product at state 0 is -0.0, which the zeros the sum starts from turn into 0.0
        base = MarkovBase(_TENSOR_CHAINS[1])
        u, v = StateFunction(np.array([-0.0, 1.0])), StateFunction(np.array([2.0, -1.0]))
        f = SeparableKernel(1, base, (KernelTerm(1.0, (u,)), KernelTerm(3.0, (u,))))
        assert kernels._tensor(f).tobytes() == np.array([0.0, 4.0]).tobytes()
        self.assert_matches_oracle(f)
        g = SeparableKernel(2, base, (KernelTerm(-1.0, (u, v)), KernelTerm(1.0, (v, u))))
        self.assert_matches_oracle(g)

    def test_one_state_chain_and_empty_kernel(self):
        base = MarkovBase(_TENSOR_CHAINS[0])
        f = SeparableKernel(3, base, tuple(KernelTerm(c, (StateFunction(np.array([x])),) * 3)
                                           for c, x in ((1.0, 2.0), (-0.5, -1.0), (0.25, 3.0))))
        assert kernels._tensor(f).shape == (1, 1, 1)
        self.assert_matches_oracle(f)
        for base in (MarkovBase(chain) for chain in _TENSOR_CHAINS):
            empty = zero_kernel(2, base)
            assert not kernels._tensor(empty).any()
            self.assert_matches_oracle(empty)

    def test_several_term_groups(self):
        rng = rng_for(331)
        for s, d, n_terms in ((16, 3, 10), (130, 2, 3)):
            base = MarkovBase(random_ergodic_chain(rng, s))
            # 4 terms of 16^3 values to a group; one term to a group when s^d > BLOCK
            assert n_terms > max(1, BLOCK // s ** d)
            f = SeparableKernel(d, base, tuple(
                KernelTerm(rng.normal(), tuple(StateFunction(rng.normal(size=s)) for _ in range(d)))
                for _ in range(n_terms)))
            self.assert_matches_oracle(f)


class TestKernelAdd:
    def test_terms_joined_without_a_recheck(self):
        u, v = FourierPoly({1: 1.0, 0: 0.5}), FourierPoly({-2: 2.0j})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (u, v)),))
        g = SeparableKernel(2, CircleBase(2), (KernelTerm(-2.0, (v, u)), KernelTerm(0.5, (u, u))))
        with mock.patch.object(SeparableKernel, "__post_init__", side_effect=AssertionError):
            h = kernel_add(f, g)
        assert type(h) is SeparableKernel and h.arity == 2 and h.base is f.base
        assert len(h.terms) == 3
        assert all(a is b for a, b in zip(h.terms, f.terms + g.terms))

    def test_mismatch_raises(self):
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (FourierPoly({1: 1.0}),)),))
        with pytest.raises(ValueError, match="arity"):
            kernel_add(f, zero_kernel(2, CIRCLE))
        for base in (CircleBase(3), MarkovBase(two_state_chain())):
            with pytest.raises(BaseMismatchError):
                kernel_add(f, zero_kernel(1, base))

    def test_chain_kernels_compare_chains_by_value(self):
        Q = np.array([[0.75, 0.25], [0.25, 0.75]])
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(MarkovChain(Q)), (KernelTerm(1.0, (u,)),))
        same = SeparableKernel(1, MarkovBase(MarkovChain(Q.copy())), (KernelTerm(2.0, (u,)),))
        h = kernel_add(f, same)
        assert h.base is f.base and [t.coeff for t in h.terms] == [1.0, 2.0]
        other = MarkovChain(np.array([[0.7, 0.3], [0.25, 0.75]]))
        with pytest.raises(BaseMismatchError):
            kernel_add(f, SeparableKernel(1, MarkovBase(other), (KernelTerm(1.0, (u,)),)))


class TestMarkovBaseEquality:
    """Chains are equal when every transition probability agrees to 1e-12, absolutely."""

    Q = np.array([[0.75, 0.25], [0.25, 0.75]])

    def test_difference_of_1e6_is_unequal(self):
        near = np.array([[0.750001, 0.249999], [0.25, 0.75]])
        assert MarkovBase(MarkovChain(self.Q)) != MarkovBase(MarkovChain(near))
        u = StateFunction(np.array([1.0, -1.0]))
        f = SeparableKernel(1, MarkovBase(MarkovChain(self.Q)), (KernelTerm(1.0, (u,)),))
        with pytest.raises(BaseMismatchError):
            kernel_add(f, SeparableKernel(1, MarkovBase(MarkovChain(near)), (KernelTerm(1.0, (u,)),)))

    def test_difference_of_1e13_is_equal(self):
        near = self.Q + np.array([[1e-13, -1e-13], [-1e-13, 1e-13]])
        assert not np.array_equal(near, self.Q)
        assert MarkovBase(MarkovChain(self.Q)) == MarkovBase(MarkovChain(near))

    def test_equal_chains_in_distinct_objects_are_equal(self):
        a, b = MarkovChain(self.Q), MarkovChain(self.Q.copy())
        assert a is not b and MarkovBase(a) == MarkovBase(b)


def _circle_kernel(seed: int, d: int = 2) -> SeparableKernel:
    rng = rng_for(seed)
    return SeparableKernel(d, CIRCLE, tuple(
        KernelTerm(float(rng.normal()), tuple(random_poly(rng, n_modes=3) for _ in range(d)))
        for _ in range(3)))


class TestExpansionMemo:
    """exact_form remembers its last few forms by identity, weakly, and its readers leave them as built."""

    @staticmethod
    def expansions_of(spy, f) -> int:
        return sum(call.args[0] is f for call in spy.call_args_list)

    def test_symmetry_then_equality_expands_once(self):
        f = next(f for f in c02_kernels() if isinstance(f.base, CircleBase) and f.arity == 3)
        total = zero_kernel(f.arity, f.base)
        for piece in hoeffding_components(f).values():
            total = kernel_add(total, piece)
        with mock.patch.object(kernels, "_expand", wraps=kernels._expand) as spy:
            symmetric_parts(f)
            assert kernels_allclose(total, f)
        assert self.expansions_of(spy, f) == 1
        assert self.expansions_of(spy, total) == 1

    def test_martingale_part_expanded_once(self):
        f = next(c09_kernels())
        with mock.patch.object(kernels, "_expand", wraps=kernels._expand) as spy:
            g0 = martingale_coboundary_d2(f).martingale
            assert spectral_decompose(g0)
        assert self.expansions_of(spy, g0) == 1

    def test_bounded(self):
        f = _circle_kernel(601)
        kernels.exact_form(f)
        others = [_circle_kernel(602 + i) for i in range(kernels._EXPANSIONS.maxlen)]
        with mock.patch.object(kernels, "_expand", wraps=kernels._expand) as spy:
            for g in others[1:]:
                kernels.exact_form(g)
            kernels.exact_form(f)
            assert self.expansions_of(spy, f) == 0
            for g in others:
                kernels.exact_form(g)
            kernels.exact_form(f)
        assert self.expansions_of(spy, f) == 1

    def test_keeps_no_kernel_alive(self):
        f = _circle_kernel(610)
        kernels.exact_form(f)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_sum_of_an_expanded_kernel_expands_to_itself(self):
        f, g = _circle_kernel(611), _circle_kernel(612)
        kernels.exact_form(f)
        h = kernel_add(f, g)
        assert vars(h).keys() == vars(f).keys()
        got, want = expand_modes(h), expand_modes_reference(h)
        assert list(got) == list(want)
        assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

    def test_expansion_is_read_only(self):
        # every reader of the remembered form shares its arrays, so none may write to them
        f = next(c09_kernels())
        g0 = martingale_coboundary_d2(f).martingale
        chain = random_symmetric_markov_kernel(rng_for(614), 2, random_ergodic_chain(rng_for(615), 3))
        for h in (f, g0, chain):
            form = kernels.exact_form(h)
            spectral_decompose(h)
            find_asymmetry_witness(h)
            kernel_sup_coeff(h)
            kernels_allclose(h, kernel_scale(h, 2.0))
            form.real_part()
            assert kernels.exact_form(h) is form
            fresh = h.base.form(h)
            for part in ("axis", "codes", "values", "first"):
                assert getattr(form, part).tobytes() == getattr(fresh, part).tobytes()


_COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 1j, -1j, -0.25 + 2j]),
    st.complex_numbers(min_magnitude=0.01, max_magnitude=4.0),
)
_FACTORS = st.dictionaries(st.integers(-3, 3), _COEFFS, min_size=1, max_size=3).map(FourierPoly)


@st.composite
def circle_kernels(draw):
    """Circle kernels of arity 1-4; a term and its negation may both occur, to cancel exactly."""
    d = draw(st.integers(1, 4))
    terms = [KernelTerm(draw(st.sampled_from([1.0, -1.0, 0.5, 3.0])),
                        tuple(draw(_FACTORS) for _ in range(d)))
             for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        terms.append(KernelTerm(-terms[0].coeff, terms[0].factors))
    return SeparableKernel(d, CIRCLE, tuple(terms))


class TestExpansionOracle:
    """expand_modes against the itertools.product expansion: key order and every bit."""

    @staticmethod
    def assert_matches_oracle(f):
        got, want = expand_modes(f), expand_modes_reference(f)
        assert list(got) == list(want)
        assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

    def test_c02_kernels_and_summed_components(self):
        circle = [f for f in c02_kernels() if isinstance(f.base, CircleBase)]
        assert len(circle) == 400
        for f in circle:
            self.assert_matches_oracle(f)
            total = zero_kernel(f.arity, f.base)
            for piece in hoeffding_components(f).values():
                total = kernel_add(total, piece)
            self.assert_matches_oracle(total)

    def test_c09_kernels(self):
        for f in c09_kernels():
            self.assert_matches_oracle(f)
            self.assert_matches_oracle(martingale_coboundary_d2(f).martingale)

    def test_exact_cancellation_and_mode_zero(self):
        u, e1, v = FourierPoly({0: 0.5, 1: 1.0}), FourierPoly({1: -1j}), FourierPoly({1: 1.0})
        # at (1, 1) the two terms give -1j and 1j, an exact zero that is dropped
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (u, e1)), KernelTerm(-1.0, (e1, v))))
        self.assert_matches_oracle(f)
        assert expand_modes(f) == {(0, 1): -0.5j}
        g = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, u)), KernelTerm(-1.0, (e1, u))))
        assert expand_modes(g) == {}
        self.assert_matches_oracle(g)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=circle_kernels())
    def test_drawn_kernels(self, f):
        self.assert_matches_oracle(f)
        # the real part's expansion, against the numpy-scalar form it replaced
        modes = expand_modes_reference(f)
        real = mapping(kernels.exact_form(f).real_part())
        assert list(real) == list(real_part_reference(modes))
        assert set(real) == set(modes) | {tuple(-k for k in key) for key in modes}
        for key, c in real.items():
            neg = tuple(-k for k in key)
            want = complex((modes.get(key, 0.0) + np.conj(modes.get(neg, 0.0))) / 2)
            assert repr(c) == repr(want)


def stored_as_given(coeffs: dict) -> FourierPoly:
    """A polynomial holding exactly these coefficients, zero signs included.

    Python 3.14 keeps a -0.0 imaginary part through 0.0 + c, so a stored
    coefficient may carry one; earlier versions never store a -0.0 part.
    """
    p = object.__new__(FourierPoly)
    p._coeffs = {k: complex(c) for k, c in coeffs.items() if abs(c) >= DROP_TOL}
    return p


_SIGNED_ZERO_COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5j, 2e-15, 1e-16, complex(-0.0, 1.0), complex(1.0, -0.0),
                     complex(-1.0, -0.0), complex(-0.0, -2.0)]),
    st.complex_numbers(min_magnitude=0.01, max_magnitude=4.0),
)


class TestCentreOracle:
    """base.centre against (constant(mean(u)), u - constant(mean(u))), by key order and repr."""

    @staticmethod
    def reference(base, u):
        mean = base.constant(base.mean(u))
        return mean, u - mean

    @staticmethod
    def reprs(p: FourierPoly) -> list:
        return [(k, repr(c)) for k, c in p.items()]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coeffs=st.dictionaries(st.integers(-3, 3), _SIGNED_ZERO_COEFFS, max_size=4))
    def test_circle(self, coeffs):
        for u in (FourierPoly(coeffs), stored_as_given(coeffs)):
            got, want = CIRCLE.centre(u), self.reference(CIRCLE, u)
            assert [self.reprs(p) for p in got] == [self.reprs(p) for p in want]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-16, 0.1]), min_size=2, max_size=2))
    def test_markov(self, values):
        base, u = MarkovBase(two_state_chain()), StateFunction(np.array(values))
        got, want = base.centre(u), self.reference(base, u)
        assert [p.values.tobytes() for p in got] == [p.values.tobytes() for p in want]


@st.composite
def hermitian_circle_kernels(draw):
    """Circle kernels with real factors (c_{-k} = conj c_k, c_0 real) and real coefficients."""
    d = draw(st.integers(1, 4))

    def factor():
        modes = {}
        for k in draw(st.sets(st.integers(0, 3), min_size=1, max_size=2)):
            c = complex(draw(_COEFFS))
            if k == 0:
                modes[0] = complex(c.real, 0.0)
            else:
                modes[k], modes[-k] = c, c.conjugate()
        return FourierPoly(modes)

    terms = [KernelTerm(draw(st.sampled_from([1.0, -1.0, 0.5, 3.0])), tuple(factor() for _ in range(d)))
             for _ in range(draw(st.integers(1, 4)))]
    return SeparableKernel(d, CIRCLE, tuple(terms))


def form_of(modes: dict, arity: int = 1) -> kernels.ExactForm:
    """The exact form holding exactly these entries, in this key order, zero signs included."""
    keys = list(modes)
    slots = [k for key in keys for k in key]
    axis = np.unique(np.array(slots + [-k for k in slots], np.int64))
    radix = len(axis)
    codes = np.array([sum(int(np.searchsorted(axis, k)) * radix ** (arity - 1 - j) for j, k in enumerate(key))
                      for key in keys], np.int64)
    order = np.argsort(codes, kind="stable")
    values = np.array(list(modes.values()), complex)
    return kernels.ExactForm(arity, axis, codes[order], values[order], order)


class TestRealCoefficientsOracle:
    """The real part's exact form (ExactForm.real_part) against real_part_reference, by key order and repr."""

    @staticmethod
    def assert_matches(got, modes):
        want = real_part_reference(modes)
        assert list(got) == list(want)
        assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=hermitian_circle_kernels())
    def test_hermitian_kernels(self, f):
        modes = expand_modes_reference(f)
        assert all(modes.get(tuple(-k for k in key)) == c.conjugate() for key, c in modes.items())
        self.assert_matches(mapping(kernels.exact_form(f).real_part()), modes)

    def test_c02_kernels_and_levels(self):
        for f in c02_kernels():
            if isinstance(f.base, CircleBase):
                for g in (f, *symmetric_parts(f).levels):
                    self.assert_matches(mapping(kernels.exact_form(g).real_part()), expand_modes_reference(g))

    def test_hermitian_expansion_is_its_own_real_part(self):
        cos = FourierPoly({1: 0.5, -1: 0.5})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (cos, cos)),))
        assert kernels.exact_form(f).real_part() is kernels.exact_form(f)

    @pytest.mark.parametrize("modes", [
        # Hermitian by value, but the formula does not give every -0.0 part back
        {(1,): complex(-0.0, 1.0), (-1,): complex(-0.0, -1.0)},
        {(1,): complex(-1.0, -0.0), (-1,): complex(-1.0, 0.0)},
        {(1,): complex(1.0, -0.0), (-1,): complex(1.0, -0.0)},
        {(1,): complex(1.0, -0.0), (-1,): complex(1.0, 0.0)},
        # c + c overflows
        {(1,): complex(1e308, 1.0), (-1,): complex(1e308, -1.0)},
        {(1,): complex(1.0, 1e308), (-1,): complex(1.0, -1e308)},
        # not Hermitian
        {(1,): 1 + 1j, (-1,): 1 + 1j},
        {(1,): 1 + 1j},
        {(0,): complex(2.0, 1e-3)},
        # Hermitian
        {(1,): 1 + 2j, (0,): complex(3.0, 0.0), (-1,): 1 - 2j},
        {},
    ])
    def test_signed_zeros_overflow_and_partners(self, modes, monkeypatch):
        monkeypatch.setattr(kernels, "_expand", lambda f: form_of(modes))
        self.assert_matches(mapping(kernels.exact_form(zero_kernel(1, CIRCLE)).real_part()), modes)


def wide_kernel(seed: int) -> SeparableKernel:
    """Arity 8 with factors drawn from 300 distinct modes: M^8 passes 2^63, so the codes are Python ints.

    The last term repeats the first with two slots swapped and another
    coefficient, so that sums collect across terms and a transpose cancels.
    """
    rng = rng_for(seed)
    pool = rng.choice(np.arange(-2000, 2001), size=300, replace=False)
    terms = [KernelTerm(float(rng.normal()), tuple(
        FourierPoly({int(k): complex(rng.normal(), rng.normal()) for k in rng.choice(pool, rng.integers(1, 3))})
        for _ in range(8))) for _ in range(20)]
    swapped = terms[0].factors[1::-1] + terms[0].factors[2:]
    return SeparableKernel(8, CIRCLE, (*terms, KernelTerm(-0.5, swapped)))


class TestExactForm:
    """The exact form's codes, lookups and checks against the dict-walking references of helpers."""

    def test_codes_past_int64_match_the_oracles(self):
        f = wide_kernel(1101)
        form = kernels.exact_form(f)
        assert form.codes.dtype == object and len(form.axis) ** 8 >= 2 ** 63
        assert list(form.codes) == sorted(set(form.codes))
        modes = expand_modes_reference(f)
        real = mapping(kernels.exact_form(f).real_part())
        for got, want in ((expand_modes(f), modes), (real, real_part_reference(modes))):
            assert list(got) == list(want)
            assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]
        assert kernel_sup_coeff(f) == max(abs(c) for c in modes.values())
        for tol in (1e-9, 0.25, 1e3):
            assert repr(find_asymmetry_witness(f, tol)) == repr(find_asymmetry_witness_reference(f, tol))
        # a term on modes of its own widens the union axis, so both forms are recoded
        extra = SeparableKernel(8, CIRCLE, (KernelTerm(1e-3, tuple(FourierPoly({5001 + j: 1.0}) for j in range(8))),))
        g = kernel_add(f, extra)
        for a, b in ((f, g), (g, f), (f, f)):
            for tol in (COEFF_TOL, 1e-2):
                assert kernels_allclose(a, b, tol) == kernels_allclose_reference(a, b, tol) == (a is b or tol > 1e-3)

    def test_modes_past_int64(self):
        # modes whose negation leaves int64 make the axis Python ints, and so the codes
        u = FourierPoly({2 ** 70: 1.0, -2 ** 63: 2j, 3: 0.5})
        v = FourierPoly({2 ** 63 - 1: 1.0, -2 ** 70: 1 - 1j})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (u, v)), KernelTerm(0.5, (v, u))))
        assert kernels.exact_form(f).axis.dtype == object
        modes = expand_modes_reference(f)
        real = mapping(kernels.exact_form(f).real_part())
        for got, want in ((expand_modes(f), modes), (real, real_part_reference(modes))):
            assert list(got) == list(want)
            assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]
        assert repr(find_asymmetry_witness(f)) == repr(find_asymmetry_witness_reference(f))
        g = kernel_add(f, SeparableKernel(2, CIRCLE, (KernelTerm(1e-3, (FourierPoly({1: 1.0}),) * 2),)))
        for tol in (COEFF_TOL, 1e-2):
            assert kernels_allclose(f, g, tol) == kernels_allclose_reference(f, g, tol) == (tol > 1e-3)

    def test_witness_is_the_smallest_index_not_the_first(self):
        e1, e2, em3 = FourierPoly({1: 1.0}), FourierPoly({2: 1.0}), FourierPoly({-3: 1.0})
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, e2)), KernelTerm(1.0, (em3, e1))))
        # every index of the real part fails transpose 0; (1, 2) comes first, (-3, 1) sorts first
        assert list(mapping(kernels.exact_form(f).real_part())) == [(1, 2), (-1, -2), (-3, 1), (3, -1)]
        witness = find_asymmetry_witness(f)
        assert repr(witness) == repr(find_asymmetry_witness_reference(f))
        assert witness == ((-3, 1), 0, 0.5 + 0j, 0.0)

    def test_allclose_on_disjoint_axes(self):
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1e-13, (FourierPoly({1: 1.0}), FourierPoly({2: 1j}))),))
        g = SeparableKernel(2, CIRCLE, (KernelTerm(2e-13, (FourierPoly({5: 1.0}), FourierPoly({-7: 1.0}))),))
        zero = zero_kernel(2, CIRCLE)
        assert not set(kernels.exact_form(f).axis.tolist()) & set(kernels.exact_form(g).axis.tolist())
        assert len(kernels.exact_form(zero).axis) == 0
        # no index is shared, so each pair is close when both largest coefficients are within tol
        for tol in (0.0, 1e-13, 2e-13, COEFF_TOL):
            for a, b, sup in ((f, g, 2e-13), (g, f, 2e-13), (f, zero, 1e-13), (zero, g, 2e-13)):
                assert kernels_allclose(a, b, tol) == kernels_allclose_reference(a, b, tol) == (sup <= tol)

    def test_chain_witness_allclose_and_sup(self):
        rng = rng_for(1102)
        for d in (2, 3, 4):
            chain = random_ergodic_chain(rng, 3)
            f = random_symmetric_markov_kernel(rng, d, chain, max_terms=8)
            u, v = (StateFunction(rng.normal(size=3)) for _ in range(2))
            g = kernel_add(f, SeparableKernel(d, f.base, (KernelTerm(1e-6, (u, v) + (u,) * (d - 2)),)))
            for h in (f, g):
                for tol in (1e-9, 1e-7, 0.0):
                    assert repr(find_asymmetry_witness(h, tol)) == repr(find_asymmetry_witness_reference(h, tol))
                assert kernel_sup_coeff(h) == max(abs(c) for c in mapping(kernels.exact_form(h)).values())
            for tol in (0.0, COEFF_TOL, 1e-5):
                for a, b in ((f, g), (g, f), (f, kernel_scale(f, 1.0 + 1e-13))):
                    assert kernels_allclose(a, b, tol) == kernels_allclose_reference(a, b, tol)

    def test_sup_follows_python_max_over_nan(self):
        base = MarkovBase(two_state_chain())
        for values in ([1.0, np.nan], [np.nan, 1.0], [np.nan, np.nan], [-2.0, 1.0]):
            f = SeparableKernel(1, base, (KernelTerm(1.0, (StateFunction(np.array(values)),)),))
            want = max((abs(c) for c in mapping(kernels.exact_form(f)).values()), default=0.0)
            assert repr(kernel_sup_coeff(f)) == repr(want)


@st.composite
def allclose_pairs(draw):
    """(f, g): g is f plus one term of coefficient 1e-13, 1e-3 or 1, so g may have keys f lacks."""
    f = draw(circle_kernels())
    extra = KernelTerm(draw(st.sampled_from([1e-13, 1e-3, 1.0])), tuple(draw(_FACTORS) for _ in range(f.arity)))
    g = kernel_add(f, SeparableKernel(f.arity, CIRCLE, (extra,)))
    return (g, f) if draw(st.booleans()) else (f, g)


class TestAllcloseOracle:
    """kernels_allclose against the walk over the union of both key sets."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=allclose_pairs(), tol=st.sampled_from([0.0, COEFF_TOL, 1e-2, 4.0]))
    def test_drawn_pairs(self, pair, tol):
        f, g = pair
        assert kernels_allclose(f, g, tol) == kernels_allclose_reference(f, g, tol)

    def test_keys_only_in_g_and_nan(self):
        e1, e2 = FourierPoly({1: 1.0}), FourierPoly({2: 1.0})
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (e1,)),))
        for extra, tol, close in ((1e-13, COEFF_TOL, True), (1e-3, COEFF_TOL, False),
                                  (1e-3, 1e-2, True), (math.inf, 1.0, False)):
            # mode 2 occurs only in g; an infinite coefficient expands to (inf, nan)
            g = kernel_add(f, SeparableKernel(1, CIRCLE, (KernelTerm(extra, (e2,)),)))
            for a, b in ((f, g), (g, f)):
                assert kernels_allclose(a, b, tol) == kernels_allclose_reference(a, b, tol) == close
        base = MarkovBase(two_state_chain())
        u, nan = StateFunction(np.array([1.0, 2.0])), StateFunction(np.array([np.nan, 2.0]))
        h, k = (SeparableKernel(1, base, (KernelTerm(1.0, (w,)),)) for w in (u, nan))
        for a, b in ((h, k), (k, h), (k, k)):
            assert kernels_allclose(a, b, 4.0) == kernels_allclose_reference(a, b, 4.0) is False

