"""Sparse trigonometric polynomials on the circle and the m-adic operators.

A point of the circle is a fraction of the full turn, x in [0, 1).  The
basis functions are e_k(x) = exp(2 pi i k x) for integer k, and a
polynomial is a finite complex combination sum_k c_k e_k stored sparsely
as {k: c_k}.  For the map T x = m x mod 1 the composition operator acts
on modes as k -> m k, and its L2 adjoint (the averaging operator over
the m preimages) acts as k -> k / m when m divides k and annihilates the
mode otherwise.  Both actions are exact on this representation.

Evaluation takes the phase of a point in exact integers: turns(x) is
v = frac(x) 2^64 as a uint64, so the phase of e_k is k v mod 2^64 in
wrapping uint64 arithmetic for every integer k, and turns_exp reads
e(v / 2^64) off three 2048-entry tables and a first-order tail, with an
error below about 1e-15 whatever k is (docs/constants.md).

Norms: the L2 norm is computed exactly from coefficients, every other
L_p norm by uniform-grid quadrature on the circle.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Mapping

import numpy as np

#: coefficients below this modulus are dropped on normalization
DROP_TOL = 1e-15
#: two polynomials are equal iff coefficients agree within this
EQ_TOL = 1e-12
#: grid points of the quadrature behind every L_p norm with p != 2
QUAD_POINTS = 4096

#: points turns_exp, and dynamics.contract, work through at a time, so
#: their temporaries stay in cache
BLOCK = 2 ** 14


def _turn_table(bits: int) -> np.ndarray:
    """e(j / 2^bits) for j < 2^11, exact at quarter turns, else rounded once from long double."""
    tau = 8 * np.arctan(np.longdouble(1))
    quarter, rest = np.divmod(np.arange(2 ** 11), 2 ** (bits - 2))
    e = np.exp(1j * tau * (rest / np.longdouble(2) ** bits)).astype(np.complex128)
    return e * np.array([1, 1j, -1, -1j])[quarter]


#: e(j / 2^11), e(j / 2^22) and e(j / 2^33) for j < 2^11 (3 x 32 KB)
_TURN_TABLES = tuple(_turn_table(bits) for bits in (11, 22, 33))
#: low 31 bits of a phase, which turns_exp takes to first order
_TAIL_MASK = np.uint64(2 ** 31 - 1)
#: radians per unit of a uint64 phase
_RADIANS_PER_UNIT = 2 * np.pi * 2.0 ** -64


def turns(x) -> np.ndarray:
    """Phases v = frac(x) 2^64 of finite points x, as uint64.

    x - rint(x) is exact and lies in [-1/2, 1/2]; times 2^63 it is cast
    to int64 and doubled in wrapping uint64 arithmetic.  So v is exact
    whenever 2^63 x is an integer, which holds for every |x| >= 2^-11,
    and otherwise within 2 of frac(x) 2^64.  For every integer k >= 0,
    e_k(x) = turns_exp(k v) with k v taken mod 2^64.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("circle points must be finite")
    r = np.rint(x, out=np.empty_like(x))
    np.subtract(x, r, out=r)
    r *= 2.0 ** 63
    v = r.astype(np.int64).view(np.uint64)
    v <<= np.uint64(1)
    return v


def unit_turns(x: np.ndarray) -> np.ndarray:
    """turns(x), bit for bit, of float64 points x in [0, 1], which it overwrites.

    Three passes where turns takes seven: v = (2^63 x as uint64) << 1.
    For x <= 1/2, rint(x) = 0, so turns truncates the same 2^63 x.  For
    x > 1/2, x - 1 is exact and 2^63 x an integer, so turns casts 2^63 x
    less 2^63 exactly, and the doubling wraps that difference to 0; x =
    1.0 gives 0.  It checks nothing, where turns rejects a non-finite x:
    it is for points the generator builds in [0, 1].
    """
    x *= 2.0 ** 63
    v = x.astype(np.uint64)
    v <<= np.uint64(1)
    return v


def as_phases(x) -> np.ndarray:
    """Circle values as uint64 phases: a uint64 x is kept as it is, any other x becomes turns(x)."""
    return x if getattr(x, "dtype", None) == np.uint64 else turns(x)


def turns_exp(v) -> np.ndarray:
    """e(v / 2^64) = exp(2 pi i v / 2^64) for uint64 phases v.

    Bits 63-53, 52-42 and 41-31 of v index e(j / 2^11), e(j / 2^22) and
    e(j / 2^33); the low 31 bits t, under 2^-33 turns, enter as the factor
    1 + 2 pi i t / 2^64, whose error is below (2 pi 2^-33)^2 / 2 < 2.7e-19.
    Points are taken BLOCK at a time, which changes no bit of the result,
    and v is left unwritten.
    """
    v = np.asarray(v, dtype=np.uint64)
    out = np.empty(v.shape, dtype=np.complex128)
    flat, res = v.reshape(-1), out.reshape(-1)
    high, mid, low = _TURN_TABLES
    for a in range(0, flat.size, BLOCK):
        w, o = flat[a:a + BLOCK], res[a:a + BLOCK]
        i = (w >> np.uint64(31)).view(np.int64)  # bits 63-31
        # every index is in range, and mode "raise" would buffer the output
        np.take(high, i >> 22, out=o, mode="clip")
        i &= 2 ** 22 - 1
        o *= mid.take(i >> 11)
        o *= low.take(i & 2 ** 11 - 1)
        # theta in one contiguous pass, then one strided copy into the tail
        theta = (w & _TAIL_MASK).astype(np.float64)
        theta *= _RADIANS_PER_UNIT
        tail = np.empty_like(o)
        tail.real = 1.0
        tail.imag = theta
        o *= tail
    return out


class FourierPoly:
    """Immutable sparse trigonometric polynomial sum_k c_k e_k."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        """Sums the coefficients given for each mode; raises ValueError when a sum is not finite."""
        items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
        acc: dict[int, complex] = {}
        for k, c in items:
            if not isinstance(k, (int, np.integer)):
                raise TypeError(f"mode index must be an integer, got {k!r}")
            acc[int(k)] = acc.get(int(k), 0.0) + complex(c)
        if not all(map(cmath.isfinite, acc.values())):
            raise ValueError(f"coefficients must be finite, got {acc}")
        self._coeffs = {k: c for k, c in acc.items() if abs(c) >= DROP_TOL}

    @classmethod
    def _of(cls, coeffs: dict) -> "FourierPoly":
        """From int keys and Python complex values: __init__ without its checks, same bits."""
        p = object.__new__(cls)
        p._coeffs = {k: 0.0 + c for k, c in coeffs.items() if abs(c) >= DROP_TOL}
        return p

    @classmethod
    def mode(cls, k: int, c: complex = 1.0) -> "FourierPoly":
        return cls({k: c})

    @classmethod
    def constant(cls, c: complex) -> "FourierPoly":
        return cls._of({0: complex(c)})

    @classmethod
    def zero(cls) -> "FourierPoly":
        return cls()

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0.0)

    def items(self):
        return self._coeffs.items()

    def modes(self) -> list[int]:
        return sorted(self._coeffs)

    def is_zero(self, tol: float = EQ_TOL) -> bool:
        return all(abs(c) <= tol for c in self._coeffs.values())

    def is_real(self, tol: float = EQ_TOL) -> bool:
        """True when the polynomial is real-valued, i.e. c_{-k} = conj(c_k)."""
        return all(
            abs(c - np.conj(self._coeffs.get(-k, 0.0))) <= tol
            for k, c in self._coeffs.items()
        )

    def allclose(self, other: "FourierPoly", tol: float = EQ_TOL) -> bool:
        keys = set(self._coeffs) | set(other._coeffs)
        return all(abs(self.coeff(k) - other.coeff(k)) <= tol for k in keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierPoly):
            return NotImplemented
        return self.allclose(other)

    __hash__ = None  # tolerance-based equality

    def __add__(self, other: "FourierPoly") -> "FourierPoly":
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return FourierPoly._of(out)

    def __sub__(self, other: "FourierPoly") -> "FourierPoly":
        return self + (-1.0) * other

    def __neg__(self) -> "FourierPoly":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, FourierPoly):
            return poly_product(self, other)
        return FourierPoly._of({k: c * complex(other) for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self._coeffs.items()))
        return f"FourierPoly({{{body}}})"

    def evaluate(self, x, table=None):
        """Value sum_k c_k exp(2 pi i k x) at circle points x, taken mod 1.

        A uint64 x, such as a circle trajectory's values, is read as the
        phases v = frac(x) 2^64 themselves, any other x as finite points
        with phases turns(x).  table holds, for these same x, e_{|k|}(x) =
        turns_exp(|k| v mod 2^64) under each |k| > 0, so the phase is exact
        integer arithmetic for every k.  A missing entry is computed and
        stored: polynomials evaluated at the same x can share one table.
        Mode 0 takes none and mode -k reads conj(e_k).  The terms are added
        in stored order from the first one, not into zeros, so a zero part
        of that term keeps its sign (an empty polynomial gives zeros).
        Raises ValueError on a non-finite point.
        """
        v = as_phases(x)
        table = {} if table is None else table
        out = None
        for k, c in self._coeffs.items():
            if k == 0:
                term = c
            else:
                e = table.get(abs(k))
                if e is None:
                    w = v if abs(k) == 1 else np.multiply(v, np.uint64(abs(k) % 2 ** 64))
                    e = table[abs(k)] = turns_exp(w)
                term = c * (e if k > 0 else e.conj())
            if out is None:
                out = np.full(v.shape, term) if k == 0 else term
            else:
                out += term
        if out is None:
            out = np.zeros(v.shape, dtype=np.complex128)
        return out if out.shape else complex(out)

    def conjugate(self) -> "FourierPoly":
        return FourierPoly({-k: np.conj(c) for k, c in self._coeffs.items()})

    def to_json_dict(self) -> dict:
        return {
            "modes": [[k, float(c.real), float(c.imag)]
                      for k, c in sorted(self._coeffs.items())]
        }


def poly_product(p: FourierPoly, q: FourierPoly) -> FourierPoly:
    """Pointwise product, a convolution of coefficient maps."""
    out: dict[int, complex] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = out.get(k, 0.0) + c1 * c2
    return FourierPoly._of(out)


def integral(p: FourierPoly) -> complex:
    """Mean over the circle; only the constant mode survives."""
    return p.coeff(0)


def lp_norm(p: FourierPoly, exponent: float) -> float:
    """L_p norm, 1 <= p < inf: exact for p = 2, else QUAD_POINTS-point uniform quadrature.

    For p = 2 it is inf once some |c|^2 exceeds the largest double.
    """
    if not 1 <= exponent < np.inf:
        raise ValueError("exponent must be finite and >= 1")
    if exponent == 2:
        try:
            return float(np.sqrt(sum(abs(c) ** 2 for _, c in p.items())))
        except OverflowError:  # a |c|^2 past the largest double
            return np.inf
    x = np.arange(QUAD_POINTS, dtype=np.float64) / QUAD_POINTS
    vals = np.abs(p.evaluate(x))
    return float(np.mean(vals ** exponent) ** (1.0 / exponent))


def _check_base(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"map base must be an integer >= 2, got {m!r}")


def apply_koopman(p: FourierPoly, m: int) -> FourierPoly:
    """Composition with x -> m x mod 1: mode k moves to m k."""
    _check_base(m)
    return FourierPoly({m * k: c for k, c in p.items()})


def apply_transfer(p: FourierPoly, m: int) -> FourierPoly:
    """Preimage average: mode k moves to k/m when m | k, otherwise dies."""
    _check_base(m)
    return FourierPoly({k // m: c for k, c in p.items() if k % m == 0})


def transfer_orbit_length(k: int, m: int) -> int:
    """Number of transfer applications until mode k dies, i.e. v_m(|k|) + 1.

    Defined for k != 0; the constant mode is invariant and never dies.
    """
    _check_base(m)
    if k == 0:
        raise ValueError("mode 0 has no finite transfer orbit")
    k = abs(k)
    count = 1
    while k % m == 0:
        k //= m
        count += 1
    return count


def adjoint_orbit_sum(p: FourierPoly, m: int) -> FourierPoly:
    """Sum of the full transfer orbit p + V*p + V*^2 p + ...

    Requires a mean-zero polynomial; the constant mode is transfer
    invariant so its orbit sum would diverge.
    """
    if abs(p.coeff(0)) > EQ_TOL:
        raise ValueError("orbit sum requires a mean-zero polynomial")
    out: dict[int, complex] = {}
    for k, c in p.items():
        kk = k
        while True:
            out[kk] = out.get(kk, 0.0) + c
            if kk % m != 0:
                break
            kk //= m
    return FourierPoly(out)
