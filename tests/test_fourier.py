"""Trigonometric polynomial algebra and composition/averaging operators."""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmstat import fourier
from vmstat.fourier import (
    FourierPoly,
    adjoint_orbit_sum,
    apply_koopman,
    apply_transfer,
    integral,
    lp_norm,
    poly_product,
    transfer_orbit_length,
)

from vmstat.kernels import CircleBase, KernelTerm, SeparableKernel

from helpers import (
    grid,
    quad_lp,
    random_poly,
    reparse,
    rng_for,
    transfer_by_preimages,
    turns_exp_reference,
)


class TestAlgebra:
    def test_construct_and_drop_tiny(self):
        p = FourierPoly({2: 1.0, -3: 1e-16})
        assert tuple(p.modes()) == (2,)
        assert p.coeff(-3) == 0

    def test_construct_from_mapping_or_pairs(self):
        want = FourierPoly({1: 2.0, -1: 0.5j})
        for coeffs in (MappingProxyType({1: 2.0, -1: 0.5j}), OrderedDict([(1, 2.0), (-1, 0.5j)]),
                       [(1, 1.5), (-1, 0.5j), (1, 0.5)]):
            p = FourierPoly(coeffs)
            assert list(p.items()) == list(want.items())

    def test_zero_and_constant(self):
        assert FourierPoly.zero().is_zero()
        c = FourierPoly.constant(2.5)
        assert c.coeff(0) == 2.5
        assert integral(c) == 2.5

    @pytest.mark.parametrize("c", [2.5, -1.0, 3, 1 + 2j, np.complex128(1.5 - 0.5j), np.float64(0.25),
                                   -0.0, complex(-0.0, -0.0), complex(1.0, -0.0), complex(-0.0, 2.0),
                                   1e-16, 5e-16j, 2e-15])
    def test_constant_matches_constructor(self, c):
        def stored(p):
            return [(k, type(v), repr(v)) for k, v in p.items()]

        assert stored(FourierPoly.constant(c)) == stored(FourierPoly({0: c}))

    def test_add_sub_scale(self):
        p = FourierPoly({1: 1.0, -1: 1.0})
        q = FourierPoly({1: -1.0, 2: 3.0})
        s = p + q
        assert s.coeff(1) == 0.0 and s.coeff(2) == 3.0
        assert (p - p).is_zero()
        assert (2.0 * p).coeff(1) == 2.0

    def test_product_is_convolution(self):
        p = FourierPoly({1: 1.0, -1: 1.0})
        sq = poly_product(p, p)
        # (2 cos)^2 = 2 + 2 cos(4 pi x): coefficients 2 at 0, 1 at +-2
        assert sq.coeff(0) == 2.0
        assert sq.coeff(2) == 1.0 and sq.coeff(-2) == 1.0

    def test_product_matches_pointwise(self):
        rng = rng_for(101)
        x = grid()[::64]
        for _ in range(25):
            p = random_poly(rng, n_modes=3)
            q = random_poly(rng, n_modes=3)
            lhs = poly_product(p, q).evaluate(x)
            rhs = p.evaluate(x) * q.evaluate(x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_evaluate_scalar_and_array(self):
        p = FourierPoly({1: 1.0})
        assert abs(p.evaluate(0.25) - 1j) < 1e-15
        arr = p.evaluate(np.array([0.0, 0.5]))
        assert np.allclose(arr, [1.0, -1.0])

    def test_evaluate_takes_one_exponential_per_conjugate_pair(self, monkeypatch):
        # mode 0 costs none, and e_{-k} is the conjugate of e_k
        p = FourierPoly({3: 0.5, 0: 2.0, -1: 1j, -3: 0.25 - 1j, 1: -0.5, 7: 1.5})
        x = grid()[::16]
        want = sum(c * np.exp(2j * np.pi * k * x) for k, c in p.items())
        calls = []
        fill = fourier.turns_exp
        monkeypatch.setattr(fourier, "turns_exp", lambda v: calls.append(v.size) or fill(v))
        got = p.evaluate(x)
        monkeypatch.undo()
        assert calls == [x.size] * 3
        assert np.max(np.abs(got - want)) < 1e-13

    def test_evaluate_equals_the_zero_fill_sum(self):
        # values and bits agree, but for the sign of a zero part of the first term
        rng = rng_for(611)
        x = np.concatenate([grid()[::16], rng.random(300), [0.0, 0.25, 0.5, 0.75]])
        polys = [random_poly(rng, n_modes=n) for n in (1, 2, 3, 5)] + [
            FourierPoly.zero(),
            FourierPoly.constant(-1.5 + 0.5j),
            FourierPoly({-3: 1 - 2j, -1: 0.5}),
            FourierPoly({4: 1j, 0: 2.0, -4: -1j}),
            FourierPoly.mode(1, -1.0),
        ]
        for p in polys:
            for pts in (x, 0.3, 0.25):
                got, want = p.evaluate(pts), zero_fill_sum(p, pts)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                a = np.atleast_1d(got).view(np.float64)
                b = np.atleast_1d(want).view(np.float64)
                assert np.array_equal(a, b)
                assert np.all((a.view(np.uint64) == b.view(np.uint64)) | (a == 0.0))
        got = FourierPoly.mode(1, -1.0).evaluate(0.25)  # -1 times (0, 1) exactly
        assert (math.copysign(1.0, got.real), got.imag) == (-1.0, -1.0)
        assert math.copysign(1.0, zero_fill_sum(FourierPoly.mode(1, -1.0), 0.25).real) == 1.0

    def test_evaluate_reduces_points_mod_one(self):
        p = FourierPoly({1: 0.5, -3: 1j, 5: 2.0})
        for x, y in ((1.25, 0.25), (-0.25, 0.75), (7.5, 0.5), (1.0, 0.0), (-1e-300, 0.0)):
            a, b = p.evaluate(x), p.evaluate(y)
            assert (a.real, a.imag) == (b.real, b.imag)
        xs = grid()[::16]
        assert np.array_equal(p.evaluate(xs + 3.0), p.evaluate(xs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_evaluate_rejects_non_finite_points(self, bad):
        for p in (FourierPoly({1: 1.0}), FourierPoly.constant(2.0)):
            with pytest.raises(ValueError, match="finite"):
                p.evaluate(bad)
            with pytest.raises(ValueError, match="finite"):
                p.evaluate(np.array([0.25, bad]))

    @pytest.mark.parametrize("coeffs", [{1: math.nan, 2: 1.0}, {1: math.inf}, {3: complex(0.0, -math.inf)},
                                        [(1, 1e308), (1, 1e308)],
                                        [(2, math.inf), (2, -math.inf)]],
                             ids=["nan", "inf", "imaginary_inf", "overflowing_sum", "inf_minus_inf"])
    def test_constructor_rejects_non_finite_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            FourierPoly(coeffs)

    def test_unchecked_constructor_keeps_what_it_is_given(self):
        # _of checks nothing: inf passes its DROP_TOL test, nan fails it and is dropped
        assert FourierPoly._of({1: complex(math.inf), 2: complex(math.nan), 3: 1.0}).modes() == [1, 3]

    def test_conjugate_and_is_real(self):
        p = FourierPoly({3: 1 + 2j, -3: 1 - 2j})
        assert p.is_real()
        assert p.conjugate().allclose(p)
        q = FourierPoly({3: 1j})
        assert not q.is_real()

    def test_equality_tolerance(self):
        p = FourierPoly({1: 1.0})
        q = FourierPoly({1: 1.0 + 1e-14})
        assert p == q
        assert p != FourierPoly({1: 1.0 + 1e-9})

    def test_json_round_trip(self):
        p = FourierPoly({-2: 1.5 - 0.5j, 7: 2.0})
        d = p.to_json_dict()
        assert d["modes"][0][0] == -2
        f = SeparableKernel(1, CircleBase(2), (KernelTerm(1.0, (p,)),))
        assert reparse(f)["kernel"].terms[0].factors[0] == p


_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3, -0.1 - 0.2, 4e-16, -2.5])
_VALUES = st.one_of(
    st.builds(complex, _PARTS, _PARTS),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)
_POLYS = st.dictionaries(st.integers(-3, 3), _VALUES, max_size=4).map(FourierPoly)
_SCALARS = st.sampled_from([1.0, -1.0, 0.0, -0.0, 1e-16, 2.5, -1j, 0.5 - 0.5j, np.float64(-3.0)])


def checked_sum(p: FourierPoly, q: FourierPoly) -> FourierPoly:
    out = dict(p.items())
    for k, c in q.items():
        out[k] = out.get(k, 0.0) + c
    return FourierPoly(out)


def checked_scale(p: FourierPoly, s) -> FourierPoly:
    return FourierPoly({k: c * complex(s) for k, c in p.items()})


def checked_product(p: FourierPoly, q: FourierPoly) -> FourierPoly:
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
    return FourierPoly(out)


def assert_same_bits(got: FourierPoly, want: FourierPoly):
    assert type(got) is FourierPoly
    assert list(got.items()) == list(want.items())
    assert [repr(c) for _, c in got.items()] == [repr(c) for _, c in want.items()]


class TestArithmeticOracle:
    """+, -, scalar * and poly_product skip the checks of FourierPoly(...) but keep its bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=_POLYS, q=_POLYS, s=_SCALARS)
    def test_against_the_checked_constructor(self, p, q, s):
        assert_same_bits(p + q, checked_sum(p, q))
        assert_same_bits(p - q, checked_sum(p, checked_scale(q, -1.0)))
        assert_same_bits(-p, checked_scale(p, -1.0))
        assert_same_bits(p * s, checked_scale(p, s))
        if not isinstance(s, np.generic):
            assert_same_bits(s * p, checked_scale(p, s))
        assert_same_bits(p * q, checked_product(p, q))
        assert_same_bits(poly_product(p, q), checked_product(p, q))

    def test_results_skip_the_checks(self):
        p, q = FourierPoly({1: 1.0, 0: 0.5j}), FourierPoly({-1: 2.0})
        with mock.patch.object(FourierPoly, "__init__", side_effect=AssertionError):
            for r in (p + q, p - q, -p, 2.0 * p, p * q, poly_product(p, q)):
                assert type(r) is FourierPoly

    def test_negative_zero_and_dropped_coefficients(self):
        # 1j * (-1 + 0j) has real part -0.0, which the constructor makes +0.0
        assert repr((FourierPoly({1: 1j}) * -1.0).coeff(1)) == "-1j"
        assert repr((FourierPoly({1: 1j}) - FourierPoly({1: 2j})).coeff(1)) == "-1j"
        # 0.3 - (0.1 + 0.2) is -5.6e-17, under DROP_TOL
        assert len(FourierPoly({1: 0.3}) + FourierPoly({1: -0.1 - 0.2})) == 0
        assert len(FourierPoly({1: 0.3, 2: 1.0}) * 1e-16) == 0
        assert len(poly_product(FourierPoly({1: 1e-8}), FourierPoly({-1: 1e-8}))) == 0


def zero_fill_sum(p: FourierPoly, x):
    """p at x as evaluate summed it before: every term added into a zero array."""
    v = fourier.turns(x)
    out = np.zeros(v.shape, dtype=np.complex128)
    for k, c in p.items():
        if k == 0:
            out += c
            continue
        e = fourier.turns_exp(np.multiply(v, np.uint64(abs(k) % 2**64)))
        out += c * (e if k > 0 else e.conj())
    return out if out.shape else complex(out)


#: 2 pi to long double precision, for the exponential references below
TAU = 8 * np.arctan(np.longdouble(1))


class TestExactPhases:
    @pytest.mark.parametrize("k", [1, 3, 2**30, 2**53])
    def test_turns_exp_against_long_double(self, k):
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is no wider than double here")
        v = rng_for(7).integers(0, 2**64, size=10**5, dtype=np.uint64)
        edges = np.array([0, 2**31 - 1, 2**31, 2**63, 2**64 - 1], dtype=np.uint64)
        w = np.multiply(np.concatenate([v, edges]), np.uint64(k))
        want = np.exp(1j * TAU * (w.astype(np.longdouble) / np.longdouble(2) ** 64))
        got = fourier.turns_exp(w).astype(np.clongdouble)
        assert float(np.max(np.abs(got - want))) <= 2e-15

    @pytest.mark.parametrize("size", [1, 7, 4096, fourier.BLOCK + 5])
    @pytest.mark.parametrize("k", [1, 3, 2**30, 2**53])
    def test_turns_exp_keeps_the_bits_of_the_table_product(self, size, k):
        # random phases, then the edge phases, times k; the argument stays unwritten
        edges = np.array([0, 2**31 - 1, 2**31, 2**63, 2**64 - 1], dtype=np.uint64)
        v = rng_for(size).integers(0, 2**64, size=size, dtype=np.uint64)
        w = np.multiply(np.concatenate([v, edges]), np.uint64(k))
        for phases in (w[:size], w[size:]):
            before = phases.copy()
            got = fourier.turns_exp(phases)
            assert phases.tobytes() == before.tobytes()
            assert got.tobytes() == turns_exp_reference(before).tobytes()

    def test_turns_exp_exact_at_quarter_turns(self):
        got = fourier.turns_exp(np.arange(4, dtype=np.uint64) << np.uint64(62))
        assert np.array_equal(got, [1, 1j, -1, -1j])

    def test_turns_are_exact_phases(self):
        # exact wherever 2^63 x is an integer, which covers every x >= 2^-11
        x = np.concatenate([grid(), np.maximum(rng_for(8).random(1000), 2.0**-11), [1 - 2.0**-53]])
        want = [int(v * 2**64) for v in x.tolist()]
        assert fourier.turns(x).tolist() == want
        assert fourier.turns(-x).tolist() == [-w % 2**64 for w in want]
        tiny = np.array([3 * 2.0**-64, 2.0**-12 + 2.0**-64])
        assert np.all(np.abs(fourier.turns(tiny).astype(np.int64) - tiny * 2**64) <= 2)

    def test_unit_turns_are_turns(self):
        # the edges of each case of the identity: x <= 1/2 truncates, x > 1/2 wraps, 1.0 gives 0
        x = np.array([0.0, 2.0**-60, np.nextafter(2.0**-11, 0), np.nextafter(0.5, 0), 0.5,
                      np.nextafter(0.5, 1), np.nextafter(1.0, 0), 1.0])
        want = fourier.turns(x)
        assert fourier.unit_turns(x.copy()).tobytes() == want.tobytes()
        assert want[-1] == 0 and want[-2] == 2**64 - 2**11

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_unit_turns_are_turns_on_the_unit_interval(self, points):
        x = np.array(points, dtype=np.float64)
        assert fourier.unit_turns(x.copy()).tobytes() == fourier.turns(x).tobytes()

    def test_evaluate_reads_uint64_as_phases(self, monkeypatch):
        # phases give the same values as the points they are turns of, every
        # bit, and are read as they are; the table holds exponentials only
        rng = rng_for(10)
        x = np.concatenate([rng.random(500), [0.0, 0.25, 0.5, 1 - 2.0**-53]])
        v = fourier.turns(x)
        polys = [random_poly(rng, max_abs_mode=2**20, n_modes=n) for n in (1, 3, 5)] + [
            FourierPoly.zero(), FourierPoly.constant(2.0 - 1j), FourierPoly({0: 1.0, -7: 1j})]
        turned = []
        fill = fourier.turns
        monkeypatch.setattr(fourier, "turns", lambda y: turned.append(y) or fill(y))
        shared = {}
        for p in polys:
            table = {}
            assert repr(p.evaluate(v, table).tolist()) == repr(p.evaluate(x).tolist())
            assert repr(p.evaluate(v[3])) == repr(p.evaluate(x[3]))
            p.evaluate(v, shared)
            assert 0 not in table and set(table) == {abs(k) for k, _ in p.items() if k}
        assert 0 not in shared
        # only the float points went through turns, once per evaluate call
        assert len(turned) == 2 * len(polys)
        assert all(y.dtype == np.float64 for y in map(np.asarray, turned))

    def test_huge_mode_is_one_on_its_dyadic_grid(self):
        # 2^52 j / 2^20 turns is a whole number of turns for every j
        x = np.arange(2**20) / 2**20
        assert np.all(FourierPoly.mode(2**52).evaluate(x) == 1)
        assert np.all(FourierPoly.mode(-2**52).evaluate(x) == 1)

    def test_mode_enters_mod_two_to_the_64(self):
        # k v mod 2^64 depends on k mod 2^64 only, so no mode overflows
        x = rng_for(9).random(500)
        for k, wrapped in ((3, 2**64 + 3), (-5, -5 - 2**64)):
            want = FourierPoly.mode(k).evaluate(x)
            assert np.array_equal(FourierPoly.mode(wrapped).evaluate(x), want)


class TestNorms:
    def test_l2_is_parseval(self):
        p = FourierPoly({1: 3.0, -4: 2j})
        assert abs(lp_norm(p, 2.0) - math.sqrt(13.0)) < 1e-12

    def test_l2_matches_quadrature(self):
        rng = rng_for(102)
        for _ in range(10):
            p = random_poly(rng, n_modes=4)
            direct = lp_norm(p, 2.0)
            oracle = quad_lp(p.evaluate(grid()), 2.0)
            assert abs(direct - oracle) < 1e-9

    def test_l1_of_two_sided_mode(self):
        # integral of |2 cos(2 pi x)| over the circle is 4/pi
        p = FourierPoly({1: 1.0, -1: 1.0})
        assert abs(lp_norm(p, 1.0) - 4.0 / math.pi) < 1e-6

    def test_lp_general_against_finer_quadrature(self):
        rng = rng_for(103)
        for p_exp in (1.0, 3.0, 4.0):
            poly = random_poly(rng, n_modes=3)
            direct = lp_norm(poly, p_exp)
            oracle = quad_lp(poly.evaluate(grid()), p_exp)
            assert abs(direct - oracle) < 5e-4 * max(1.0, oracle)

    def test_l2_past_overflowing_squares_is_rescaled(self):
        # |c|^2 raises OverflowError past about 1.34e154; the sum is taken again
        # scaled by the largest |c|, so a finite norm stays finite
        assert lp_norm(FourierPoly({1: 1e308, -1: 1e308}), 2.0) == math.sqrt(2) * 1e308
        assert lp_norm(FourierPoly({3: 1e155j}), 2.0) == 1e155
        assert lp_norm(FourierPoly({1: 1.5e308, -1: 1.5e308}), 2.0) == math.inf
        # below that every finite norm is the plain sum's square root, bit for bit
        rng = rng_for(104)
        for scale in (1e-300, 1.0, 1e100, 1e150):
            p = FourierPoly({int(k): scale * complex(rng.normal(), rng.normal())
                             for k in rng.integers(-50, 50, size=4)})
            assert lp_norm(p, 2.0) == float(np.sqrt(sum(abs(c) ** 2 for _, c in p.items())))

    def test_quadrature_overflow_is_inf_without_a_warning(self):
        unit = FourierPoly({1: 1.0, -1: 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # |p|^3 passes the largest double at every node, and the sum of |p| over 4096 nodes
            # does too; the norms are finite, the scaled-down polynomial's times the scale
            for scale, exponent in ((1e307, 3), (1e305, 1.0), (1e307, 1.0)):
                got = lp_norm(FourierPoly({1: scale, -1: scale}), exponent)
                assert math.isclose(got, scale * lp_norm(unit, exponent), rel_tol=1e-14)
            assert lp_norm(FourierPoly({1: 1e307, -1: 1e307}), 1.0) == 1.2732392950638007e+307
            # a node value past the largest double makes the norm inf
            assert lp_norm(FourierPoly({1: 1e308, 2: 1e308}), 1.0) == math.inf

    def test_lp_rejects_exponent_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(FourierPoly({1: 1.0}), 0.5)


class TestOperators:
    def test_koopman_shifts_modes(self):
        p = FourierPoly({1: 2.0, -3: 1j})
        q = apply_koopman(p, 2)
        assert q.coeff(2) == 2.0 and q.coeff(-6) == 1j

    def test_koopman_is_composition(self):
        rng = rng_for(104)
        x = grid()[::32]
        for m in (2, 3, 5):
            p = random_poly(rng, n_modes=3)
            lhs = apply_koopman(p, m).evaluate(x)
            rhs = p.evaluate((m * x) % 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_transfer_divides_or_kills(self):
        p = FourierPoly({4: 1.0, 3: 1.0, 0: 5.0})
        q = apply_transfer(p, 2)
        assert q.coeff(2) == 1.0
        assert q.coeff(3) == 0.0 and q.coeff(1) == 0.0
        assert q.coeff(0) == 5.0

    def test_transfer_is_preimage_average(self):
        rng = rng_for(105)
        x = grid()[::32]
        for m in (2, 3, 5):
            for _ in range(5):
                p = random_poly(rng, n_modes=4)
                lhs = apply_transfer(p, m).evaluate(x)
                rhs = transfer_by_preimages(p, m, x)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_transfer_after_koopman_is_identity(self):
        rng = rng_for(106)
        for m in (2, 3, 5):
            for _ in range(20):
                p = random_poly(rng, n_modes=4)
                assert apply_transfer(apply_koopman(p, m), m).allclose(p, tol=1e-12)

    def test_koopman_after_transfer_is_projection(self):
        # keeps exactly the modes divisible by m, including mode 0
        p = FourierPoly({0: 1.0, 2: 1.0, 3: 1.0, -4: 2.0})
        proj = apply_koopman(apply_transfer(p, 2), 2)
        assert proj == FourierPoly({0: 1.0, 2: 1.0, -4: 2.0})
        # and projecting twice changes nothing
        assert apply_koopman(apply_transfer(proj, 2), 2) == proj

    def test_transfer_preserves_integral(self):
        rng = rng_for(107)
        for _ in range(10):
            p = random_poly(rng, n_modes=4)
            assert abs(integral(apply_transfer(p, 3)) - integral(p)) < 1e-14

    def test_adjoint_identity_in_l2(self):
        # <V p, q> = <p, V* q> with the inner product read off coefficients
        def inner(a: FourierPoly, b: FourierPoly) -> complex:
            return sum(a.coeff(k) * b.coeff(k).conjugate()
                       for k in set(a.modes()) | set(b.modes()))

        rng = rng_for(108)
        for m in (2, 3):
            for _ in range(10):
                p = random_poly(rng, n_modes=3)
                q = random_poly(rng, n_modes=3)
                lhs = inner(apply_koopman(p, m), q)
                rhs = inner(p, apply_transfer(q, m))
                assert abs(lhs - rhs) < 1e-12


class TestOrbits:
    def test_orbit_length_counts_divisibility(self):
        assert transfer_orbit_length(6, 2) == 2
        assert transfer_orbit_length(8, 2) == 4
        assert transfer_orbit_length(5, 2) == 1
        assert transfer_orbit_length(-12, 2) == 3
        assert transfer_orbit_length(9, 3) == 3

    def test_orbit_length_rejects_zero(self):
        with pytest.raises(ValueError):
            transfer_orbit_length(0, 2)

    def test_orbit_sum_telescopes(self):
        # g = sum_k V*^k u satisfies g - V* g = u for mean-zero u
        rng = rng_for(109)
        for m in (2, 3):
            for _ in range(10):
                u = random_poly(rng, n_modes=3, zero_mean=True)
                g = adjoint_orbit_sum(u, m)
                assert (g - apply_transfer(g, m)).allclose(u, tol=1e-12)

    def test_orbit_sum_on_power_of_two_mode(self):
        g = adjoint_orbit_sum(FourierPoly({8: 1.0}), 2)
        assert g == FourierPoly({8: 1.0, 4: 1.0, 2: 1.0, 1: 1.0})

    def test_orbit_sum_requires_zero_mean(self):
        with pytest.raises(ValueError):
            adjoint_orbit_sum(FourierPoly({0: 1.0, 1: 1.0}), 2)
