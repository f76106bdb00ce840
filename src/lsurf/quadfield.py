"""Exact arithmetic in a real quadratic field Q(w).

The generator w is the positive root of ``w**2 = e + f*w`` (so
``w = (f + sqrt(f**2 + 4e))/2``) and every element is stored as an exact
pair ``r + i*w`` with rational r, i.  Comparisons and floors rewrite the
value as (p + q*sqrt(m))/den with integers and go through the two integer
primitives ``sign_sqrt`` and ``floor_sqrt``, which ``lsurf.surface`` calls
directly on point numerators.  ``sign_sqrt_array`` and ``floor_sqrt_array``
are the same two primitives lane by lane on int64 arrays, for the orbit-ball
level kernel of ``lsurf.surface``: in int64 while every square fits, else
by mapping the scalar primitive over the lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm, sqrt

import numpy as np


def _is_square_fraction(x: Fraction) -> bool:
    """True iff x is the square of a rational."""
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def sign_sqrt(p: int, q: int, m: int) -> int:
    """Exact sign of p + q*sqrt(m) for integers p, q and a non-square m > 0."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp == sq or sq == 0:
        return sp
    if sp == 0:
        return sq
    # opposite signs; p*p == q*q*m is impossible for non-square m
    return sp if p * p > q * q * m else sq


def floor_sqrt(p: int, q: int, m: int, den: int) -> int:
    """Exact floor of (p + q*sqrt(m))/den for integers p, q, den > 0 and a
    non-square m > 0: q*sqrt(m) is t or -t - 1 for t = isqrt(q*q*m), plus a
    fraction in [0, 1) that never carries past a multiple of den."""
    t = isqrt(q * q * m)
    return (p + (t if q >= 0 else -t - 1)) // den


def _squares_fit(aq: np.ndarray, m: int) -> bool:
    """q*q*m < 2**62 on every lane of aq = |q|: the square guard, inside which
    p*|p| + q*|q|*m is exact in int64 for |p| < 2**31."""
    return int(aq.max(initial=0)) <= isqrt((2**62 - 1) // m)


def _per_lane(scalar, *args) -> np.ndarray:
    """``scalar`` on the Python ints of each lane of the broadcast arguments."""
    lanes = np.broadcast_arrays(*args)
    values = [*map(scalar, *(x.ravel().tolist() for x in lanes))]
    return np.array(values, np.int64).reshape(lanes[0].shape)


def sign_sqrt_array(p: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """``sign_sqrt`` lane by lane on int64 arrays.

    p + q*sqrt(m) has the sign of p*|p| + q*|q|*m, which is never 0 unless
    p = q = 0.  A call with a lane past the square guard maps ``sign_sqrt``.
    """
    ap, aq = np.abs(p), np.abs(q)
    if ap.max(initial=0) >= 2**31 or not _squares_fit(aq, m):
        return _per_lane(sign_sqrt, p, q, m)
    return np.sign(p * ap + q * aq * m)


def floor_sqrt_array(p: np.ndarray, q: np.ndarray, m: int, den) -> np.ndarray:
    """``floor_sqrt`` lane by lane on int64 arrays, den > 0 (an int or an array).

    t = isqrt(q*q*m) starts from the float |q|*sqrt(m), which is off by less
    than 1 while |q|*sqrt(m) < 2**31, and one exact integer step each way
    corrects it.  A call with a lane past the square guard maps
    ``floor_sqrt``; the caller keeps the quotient within int64.
    """
    aq = np.abs(q)
    if not _squares_fit(aq, m):
        return _per_lane(floor_sqrt, p, q, m, den)
    qq = aq * aq * m
    t = np.floor(aq * sqrt(m)).astype(np.int64)
    t -= t * t > qq
    t += (t + 1) * (t + 1) <= qq
    return (p + np.where(q >= 0, t, -t - 1)) // den


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of Q(w) with w**2 = e + f*w, positive root, w > 1."""

    e: Fraction
    f: Fraction
    m: Fraction = dc_field(init=False, compare=False)  # discriminant f^2 + 4e

    def __post_init__(self) -> None:
        e = Fraction(self.e)
        f = Fraction(self.f)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        m = f * f + 4 * e
        object.__setattr__(self, "m", m)
        if m <= 0:
            raise ValueError(f"f^2 + 4e = {m} must be positive")
        if _is_square_fraction(m):
            raise ValueError(f"f^2 + 4e = {m} is a rational square; w would be rational")
        # w > 1  <=>  sqrt(m) > 2 - f
        if 2 - f > 0 and m <= (2 - f) ** 2:
            raise ValueError("positive root w is not > 1")

    def from_rational(self, x: Fraction | int) -> QuadNum:
        return QuadNum(Fraction(x), Fraction(0), self)

    # built once per field: hot paths read these on every step
    @cached_property
    def one(self) -> QuadNum:
        return self.from_rational(1)

    @cached_property
    def w(self) -> QuadNum:
        return QuadNum(Fraction(0), Fraction(1), self)

    def w_float(self) -> float:
        return (float(self.f) + float(self.m) ** 0.5) / 2.0


class QuadNum:
    """Immutable exact element r + i*w of a fixed real quadratic field."""

    __slots__ = ("r", "i", "field")

    def __init__(self, r: Fraction | int, i: Fraction | int, field: FieldSpec) -> None:
        object.__setattr__(self, "r", Fraction(r))
        object.__setattr__(self, "i", Fraction(i))
        object.__setattr__(self, "field", field)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other: QuadNum | Fraction | int) -> QuadNum:
        if isinstance(other, QuadNum):
            if other.field != self.field:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other, 0, self.field)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations --------------------------------------------------

    def __add__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.r + o.r, self.i + o.i, self.field)

    __radd__ = __add__

    def __sub__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.r - o.r, self.i - o.i, self.field)

    def __rsub__(self, other: QuadNum | Fraction | int) -> QuadNum:
        return (-self) + other

    def __neg__(self) -> QuadNum:
        return QuadNum(-self.r, -self.i, self.field)

    def __mul__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (r1 + i1 w)(r2 + i2 w) with w^2 = e + f w
        e, f = self.field.e, self.field.f
        return QuadNum(
            self.r * o.r + e * self.i * o.i,
            self.r * o.i + self.i * o.r + f * self.i * o.i,
            self.field,
        )

    __rmul__ = __mul__

    def conjugate(self) -> QuadNum:
        """Image under w -> f - w (the other root)."""
        return QuadNum(self.r + self.i * self.field.f, -self.i, self.field)

    def norm(self) -> Fraction:
        """Rational norm self * self.conjugate()."""
        return self.r * self.r + self.r * self.i * self.field.f - self.i * self.i * self.field.e

    def inverse(self) -> QuadNum:
        if self.r == 0 and self.i == 0:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return QuadNum((self.r + self.i * self.field.f) / n, -self.i / n, self.field)

    def __truediv__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    # -- ordering ---------------------------------------------------------

    def _surd(self) -> tuple[int, int, int, int]:
        """Integers (p, q, m, den) with self = (p + q*sqrt(m))/den, den > 0:
        r + i*w = (r + i*f/2) + (i/(2*md))*sqrt(mn*md) for m = mn/md."""
        m = self.field.m
        P, Q = self.r + self.i * self.field.f / 2, self.i / (2 * m.denominator)
        den = lcm(P.denominator, Q.denominator)
        p, q = (t.numerator * (den // t.denominator) for t in (P, Q))
        return p, q, m.numerator * m.denominator, den

    def sign(self) -> int:
        """Sign of r + i*w under the positive real embedding, exactly."""
        p, q, m, _ = self._surd()
        return sign_sqrt(p, q, m)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return self.field == other.field and self.r == other.r and self.i == other.i
        if isinstance(other, (int, Fraction)):
            return self.i == 0 and self.r == other
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash like the int/Fraction they compare equal to
        return hash(self.r) if self.i == 0 else hash((self.r, self.i))

    def __lt__(self, other: QuadNum | Fraction | int) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: QuadNum | Fraction | int) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: QuadNum | Fraction | int) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: QuadNum | Fraction | int) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> QuadNum:
        return -self if self.sign() < 0 else self

    # -- floor / mod ------------------------------------------------------

    def floor(self) -> int:
        """Unique n with n <= self < n+1, certified by sign() checks."""
        n = floor_sqrt(*self._surd())
        if (self - n).sign() < 0 or (self - (n + 1)).sign() >= 0:
            raise ArithmeticError(f"floor certification failed for {self!r}")
        return n

    def ceil(self) -> int:
        return -((-self).floor())

    def __float__(self) -> float:
        return float(self.r) + float(self.i) * self.field.w_float()

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        r, i = self.r, self.i
        sep = "+" if i >= 0 else "-"
        ai = abs(i)
        return f"{r.numerator}/{r.denominator}{sep}{ai.numerator}/{ai.denominator}*w"

    def __repr__(self) -> str:
        return f"QuadNum({self.r!r}, {self.i!r})"


def reduce_mod(a: QuadNum, p: QuadNum) -> tuple[int, QuadNum]:
    """Division with remainder: a = q*p + rem with 0 <= rem < p.

    The quotient is computed exactly in the field and floored; requires p > 0.
    """
    if not isinstance(p, QuadNum):
        raise TypeError("modulus must be a QuadNum")
    if p.sign() <= 0:
        raise ValueError("modulus must be positive")
    q = (a / p).floor()
    rem = a - p * q
    if rem.sign() < 0 or (p - rem).sign() <= 0:
        raise ArithmeticError("reduce_mod postcondition failed")
    return q, rem


def qmax(first: QuadNum, *rest: QuadNum) -> QuadNum:
    out = first
    for x in rest:
        if x > out:
            out = x
    return out

