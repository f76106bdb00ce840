"""L-shaped genus-2 prototype surfaces and their parabolic generator actions.

A prototype is the L-polygon glued from a lower cylinder ``[0, p_low) x [0, 1]``
and an upper cylinder ``[0, 1) x (1, p_left)``; the canonical point of each
boundary identification is the one with smaller coordinates.  The two cylinder
periods ``p_low`` and ``p_left`` determine everything else: each coordinate
lies in a near cylinder of height 1 or in a far one of height ``p_left - 1``
(horizontal) or ``p_low - 1`` (vertical).

A point is five integers ``(N; a, b, c, d)`` in lowest terms, with
x = (a + b*w)/N and y = (c + d*w)/N; N is an orbit invariant.  A generator
acts per cylinder as an exact Dehn twist on the numerators: n twists of the
cylinder of u add n*u*period (near) or n*(u - 1)*period (far) to the moved
coordinate v, then subtract one integer floor times the circumference (the
period, or 1).  With w^2 = e + f*w, multiplying (a + b*w) by the period
r + s*w is the generator's integer block ((r, e*s), (s, r + f*s)) on (a, b),
``SurfaceProto.wiring[gen].block``; ``lsurf.modn`` applies it mod N.  Signs
and floors are the integer primitives of ``lsurf.quadfield``: with
w = (f + sqrt(D))/2, u + v*w has the sign of ``sign_sqrt(2*u + f*v, v, D)``.
Each prototype caches its integer constants once (``f``, ``D`` and the
near-cylinder circumferences ``low`` = p_low and ``left`` = p_left as
integer pairs), and the point constructor and ``twist`` call ``sign_sqrt``
on them directly.  ``twist_lanes`` and ``check_lanes`` are the same twist
and constructor tests on int64 arrays of numerators, one lane per point,
which orbit balls run a whole BFS level at a time while ``lanes_fit``
holds; the scalar functions are their oracle.

Code written once for both generators reads its side through ``axes``,
``apply``, ``is_periodic``, ``SurfaceProto.far`` and ``.wiring``:

    gen  cylinder  moved  period  far size                   coeffs  exponent
    A    x         y      p_left  right_width = p_low - 1    [0]     k
    B    y         x      p_low   upper_height = p_left - 1  [1]     l
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from .quadfield import (
    FieldSpec,
    QuadNum,
    floor_sqrt,
    floor_sqrt_array,
    qmax,
    sign_sqrt,
    sign_sqrt_array,
)

Pair = tuple[int, int]
Block = tuple[Pair, Pair]


class InvalidPointError(ValueError):
    """Coordinates outside the canonical polygon, or a singular corner."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in lsurf, never a bad input."""


def _pair(q: QuadNum) -> Pair:
    """(r, i) of an integral q = r + i*w."""
    if q.r.denominator != 1 or q.i.denominator != 1:
        raise ValueError(f"{q} is not integral")
    return int(q.r), int(q.i)


class Divisor(NamedTuple):
    """An integral q > 0 and the block of g/q = +-conj(q), g = |norm q|."""

    q: Pair
    scale: Block
    g: int


class Wiring(NamedTuple):
    """A generator's period block, period divisor, far size and coeffs divisor."""

    block: Block
    near: Divisor
    far: Pair
    coeff: Divisor


@dataclass(frozen=True, eq=False)
class SurfaceProto:
    """Immutable prototype surface L_{D,eps}, fixed by its two cylinder periods.

    ``p_low``/``p_left`` are the circumferences of the lower horizontal and
    the left vertical cylinder; the other two cylinders have circumference 1.
    B twists by p_low and A by p_left.  The polygon is p_left high, and the
    far cylinders are ``upper_height = p_left - 1`` high and
    ``right_width = p_low - 1`` wide.  ``coeffs`` = (-conj(p_left),
    -conj(p_low)) set the growth thresholds: n near-cylinder twists of A move
    y.i by -n*x.i*coeffs[0] up to less than 1, and those of B move x.i by
    -n*y.i*coeffs[1].
    """

    D: int
    eps: int
    field: FieldSpec
    p_low: QuadNum
    p_left: QuadNum

    @property
    def w(self) -> QuadNum:
        return self.field.w

    @cached_property
    def upper_height(self) -> QuadNum:
        return self.p_left - 1

    @cached_property
    def right_width(self) -> QuadNum:
        return self.p_low - 1

    @cached_property
    def coeffs(self) -> tuple[QuadNum, QuadNum]:
        return -self.p_left.conjugate(), -self.p_low.conjugate()

    def far(self, gen: str) -> QuadNum:
        """Size of the far cylinder of the coordinate whose cylinder gen twists."""
        return self.right_width if gen == "A" else self.upper_height

    # -- integer wiring: w = (f + sqrt(D))/2 with f = 0 or 1 -----------------

    @cached_property
    def f(self) -> int:
        """The f of w = (f + sqrt(D))/2: u + v*w has the sign of
        ``sign_sqrt(2*u + f*v, v, D)``."""
        return int(self.eps != 0)

    @cached_property
    def low(self) -> Pair:
        """p_low as (r, i), the near-cylinder circumference that B twists by."""
        return _pair(self.p_low)

    @cached_property
    def left(self) -> Pair:
        """p_left as (r, i), the near-cylinder circumference that A twists by."""
        return _pair(self.p_left)

    def sign(self, u: int, v: int) -> int:
        """Exact sign of u + v*w for integers u, v."""
        return sign_sqrt(2 * u + self.f * v, v, self.D)

    def quotient(self, v0: int, v1: int, den: int, d: Divisor) -> int:
        """Exact floor of (v0 + v1*w)/(den*q) for den > 0: v/q = v*(g/q)/g."""
        u, v = shear(d.scale, 1, v0, v1, 0, 0)
        return floor_sqrt(2 * u + self.f * v, v, self.D, 2 * den * d.g)

    def _block(self, q: QuadNum) -> Block:
        # columns q*1 and q*w: ((r, e*s), (s, r + f*s)) for q = r + s*w
        (r0, i0), (r1, i1) = _pair(q), _pair(q * self.w)
        return (r0, r1), (i0, i1)

    def _divisor(self, q: QuadNum) -> Divisor:
        g = abs(q.norm())
        return Divisor(_pair(q), self._block(q.inverse() * g), int(g))

    @cached_property
    def wiring(self) -> dict[str, Wiring]:
        """Each generator's integer data, derived once from its period."""
        return {
            gen: Wiring(self._block(p), self._divisor(p), _pair(self.far(gen)), self._divisor(c))
            for gen, p, c in zip("AB", (self.p_left, self.p_low), self.coeffs)
        }

    @cached_property
    def lane_growth(self) -> int:
        """C such that every value that ``twist_lanes`` and ``check_lanes``
        compute is below C*M*(E + 1) in size, for numerators and N below M
        and exponents below E in size (see ``lanes_fit``).

        With beta and sigma the largest row sums of the period blocks and of
        the divisor scales, tau the largest divisor entry and rho >= tau the
        largest entry of the periods and far sizes: the shear output V is
        below M*(1 + 2*beta*E), the floor reads values below
        sigma*V*(3 + sqrt(D)) and takes off k*N*q with |k*N| below
        sigma*V*(3 + sqrt(D))/2 + M, which leaves moved numerators W, and
        every later value is below 6*rho*(W + rho*M).
        """
        wirings = self.wiring.values()

        def row_sum(blocks) -> int:
            return max(abs(x) + abs(y) for m in blocks for x, y in m)

        beta = max(1, row_sum(w.block for w in wirings))
        sigma = max(1, row_sum(w.near.scale for w in wirings))
        tau = max(1, *(abs(x) for w in wirings for x in w.near.q))
        pairs = (self.low, self.left, *(w.far for w in wirings))
        rho = max(tau, *(abs(x) for pair in pairs for x in pair))
        return 6 * rho * (2 * beta * (1 + tau * sigma * (4 + isqrt(self.D))) + 2 * rho)

    @property
    def name(self) -> str:
        if self.eps == 0:
            return f"L{self.D}"
        return f"L{self.D}{'+' if self.eps > 0 else '-'}1"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfaceProto):
            return NotImplemented
        return self.D == other.D and self.eps == other.eps

    def __hash__(self) -> int:
        return hash((self.D, self.eps))

    def __repr__(self) -> str:
        return f"SurfaceProto({self.name})"


# the cylinder periods (p_low - w, p_left - w) per spin eps
_PERIODS = {0: (1, 0), 1: (1, -1), -1: (0, 0)}
UNIT = Divisor((1, 0), ((1, 0), (0, 1)), 1)  # the divisor 1: far-cylinder circumference


@lru_cache(maxsize=None)
def prototype(D: int, eps: int = 0) -> SurfaceProto:
    """Build L_D (eps=0) or L_{D,+-1} from its two cylinder periods."""
    if D < 5 or D % 4 not in (0, 1) or isqrt(D) ** 2 == D:
        raise ValueError(f"D={D} must be a non-square integer >= 5, = 0 or 1 mod 4")
    if eps == 0 and D % 4 != 0:
        raise ValueError("eps=0 requires D = 0 mod 4")
    if eps == -1 and D % 4 != 1:
        raise ValueError("eps=-1 requires D = 1 mod 4")
    if eps == 1 and D % 8 != 1:
        raise ValueError("eps=+1 requires D = 1 mod 8")
    if eps not in (-1, 0, 1):
        raise ValueError("eps must be 0, +1 or -1")

    if eps == 0:
        fs = FieldSpec(Fraction(D, 4), Fraction(0))
    else:
        fs = FieldSpec(Fraction(D - 1, 4), Fraction(1))
    low, left = (fs.w + c for c in _PERIODS[eps])
    proto = SurfaceProto(D=D, eps=eps, field=fs, p_low=low, p_left=left)
    if proto.upper_height.sign() <= 0:
        raise ValueError(f"degenerate upper cylinder for D={D}, eps={eps}")
    return proto


def numerator_window(period: QuadNum, N: int, i: int) -> range:
    """Numerators r with r/N + (i/N)*w in [0, period), i.e. -i*w <= r < N*period - i*w."""
    fs = period.field
    return range(QuadNum(0, -i, fs).ceil(), QuadNum(N * period.r, N * period.i - i, fs).ceil())


_SURFACE_RE = re.compile(r"^L(?P<D>\d+)(?P<eps>[+-]1)?$")


def surface(selector: str) -> SurfaceProto:
    """Parse a selector like "L8", "L5-1", or "L17+1"."""
    mo = _SURFACE_RE.match(selector.strip())
    if mo is None:
        raise ValueError(f"bad surface selector {selector!r}")
    eps = 0 if mo.group("eps") is None else int(mo.group("eps")[0] + "1")
    return prototype(int(mo.group("D")), eps)


class SurfacePoint:
    """Canonical nonsingular point (N; a, b, c, d) of a prototype surface,
    x = (a + b*w)/N and y = (c + d*w)/N with gcd(N, a, b, c, d) = 1.

    Construction divides out the gcd, validates polygon membership with
    integer signs, rejects the two singular corners (0,0) and (1,1), and
    normalizes the identified top edge (x, 1) ~ (x, 0) for x > 1, so that
    equal surface points have equal numerators.  ``x``, ``y`` and ``key``
    are exact read-only views.  The hash of (N, a, b, c, d) is kept in a
    slot, filled on the first ``hash``: most points of a reduction are never
    hashed, while an orbit-ball vertex is hashed on every lookup.
    """

    __slots__ = ("N", "a", "b", "c", "d", "proto", "_hash")

    def __init__(self, proto: SurfaceProto, N: int, a: int, b: int, c: int, d: int) -> None:
        if N < 1:
            raise ValueError(f"denominator N={N} must be >= 1")
        g = gcd(N, a, b, c, d)
        if g > 1:
            N, a, b, c, d = N // g, a // g, b // g, c // g, d // g
        # each test is the sign of some u + v*w: sign_sqrt(2*u + f*v, v, D)
        f, D = proto.f, proto.D
        if sign_sqrt(2 * (c - N) + f * d, d, D) <= 0:  # lower cylinder: 0 <= y <= 1, 0 <= x < p_low
            r, i = proto.low
            s, t = N * r - a, N * i - b
            inside = (
                sign_sqrt(2 * c + f * d, d, D) >= 0
                and sign_sqrt(2 * a + f * b, b, D) >= 0
                and sign_sqrt(2 * s + f * t, t, D) > 0
            )
        else:  # upper cylinder: 1 < y < p_left, 0 <= x < 1
            r, i = proto.left
            s, t = N * r - c, N * i - d
            inside = (
                sign_sqrt(2 * s + f * t, t, D) > 0
                and sign_sqrt(2 * a + f * b, b, D) >= 0
                and sign_sqrt(2 * (N - a) - f * b, -b, D) > 0
            )
        if not inside:
            raise InvalidPointError(f"({a} + {b}w, {c} + {d}w)/{N} is outside {proto.name}")
        if b == d == 0 and (a == c == 0 or a == c == N):
            raise InvalidPointError("singular corner")
        if c == N and d == 0 and sign_sqrt(2 * (a - N) + f * b, b, D) > 0:
            c = 0  # (x,1) ~ (x,0) for x > 1; keep smaller coordinates
        put = object.__setattr__  # one call per slot, faster than a loop
        put(self, "N", N)
        put(self, "a", a)
        put(self, "b", b)
        put(self, "c", c)
        put(self, "d", d)
        put(self, "proto", proto)
        put(self, "_hash", None)  # filled by the first __hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SurfacePoint is immutable")

    @classmethod
    def from_fractions(cls, proto: SurfaceProto, *coords: Fraction | int) -> SurfacePoint:
        """The point with rational coordinates (x_r, x_i, y_r, y_i)."""
        parts = [Fraction(t) for t in coords]
        N = lcm(*(t.denominator for t in parts))
        return cls(proto, N, *(t.numerator * (N // t.denominator) for t in parts))

    @classmethod
    def _from_checked(cls, proto: SurfaceProto, key: tuple[int, int, int, int, int]) -> SurfacePoint:
        """The point (N, a, b, c, d) = key, which ``check_lanes`` has checked
        and normalized, with N the orbit invariant of the point it came from."""
        P = object.__new__(cls)
        set_N, set_a, set_b, set_c, set_d, set_proto, set_hash = _SLOT_SETTERS
        set_N(P, key[0])
        set_a(P, key[1])
        set_b(P, key[2])
        set_c(P, key[3])
        set_d(P, key[4])
        set_proto(P, proto)
        set_hash(P, hash(key))  # what __hash__ computes
        return P

    @property
    def x(self) -> QuadNum:
        return QuadNum(Fraction(self.a, self.N), Fraction(self.b, self.N), self.proto.field)

    @property
    def y(self) -> QuadNum:
        return QuadNum(Fraction(self.c, self.N), Fraction(self.d, self.N), self.proto.field)

    @property
    def key(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(t, self.N) for t in (self.a, self.b, self.c, self.d))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfacePoint):
            return NotImplemented
        return (self.N, self.a, self.b, self.c, self.d) == (
            other.N, other.a, other.b, other.c, other.d
        ) and (self.proto is other.proto or self.proto == other.proto)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.N, self.a, self.b, self.c, self.d))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.key)

    def __repr__(self) -> str:
        return f"SurfacePoint({self} on {self.proto.name})"


# the slots' own setters, which skip the refusing __setattr__
_SLOT_SETTERS = tuple(SurfacePoint.__dict__[name].__set__ for name in SurfacePoint.__slots__)


def parse_point(proto: SurfaceProto, literal: str) -> SurfacePoint:
    """Parse "x_r,x_i,y_r,y_i" with each component a rational like -141 or 1/2."""
    parts = [p.strip() for p in literal.split(",")]
    if len(parts) != 4:
        raise ValueError(f"point literal needs 4 comma-separated rationals: {literal!r}")
    try:
        xr, xi, yr, yi = (Fraction(p) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in point literal {literal!r}") from None
    return SurfacePoint.from_fractions(proto, xr, xi, yr, yi)


def shear(m: Block, n, u0, u1, v0, v1):
    """(v0, v1) + n * m @ (u0, u1): n twists adding u times the block's
    number to v, on numerator pairs of ints or of numpy arrays."""
    (p, q), (r, s) = m
    return v0 + n * (p * u0 + q * u1), v1 + n * (r * u0 + s * u1)


def twist(P: SurfacePoint, gen: str, n: int) -> Pair:
    """Numerators over P.N of the coordinate v that gen moves, after n twists
    of the cylinder that the other coordinate u lies in.

    In the near cylinder (u <= 1, circumference the period) v moves by
    u*period per twist, in the far one (circumference 1) by (u - 1)*period;
    then one exact floor reduces v modulo the circumference.
    """
    proto, N = P.proto, P.N
    if gen == "A":
        u0, u1, v0, v1 = P.a, P.b, P.c, P.d
    else:
        u0, u1, v0, v1 = P.c, P.d, P.a, P.b
    f, D, wiring = proto.f, proto.D, proto.wiring[gen]
    modulus = wiring.near
    if sign_sqrt(2 * (u0 - N) + f * u1, u1, D) > 0:  # u > 1: the far cylinder
        u0, modulus = u0 - N, UNIT
    v0, v1 = shear(wiring.block, n, u0, u1, v0, v1)
    k = proto.quotient(v0, v1, N, modulus)
    t0, t1 = modulus.q
    v0, v1 = v0 - k * N * t0, v1 - k * N * t1
    s, t = N * t0 - v0, N * t1 - v1
    if sign_sqrt(2 * v0 + f * v1, v1, D) < 0 or sign_sqrt(2 * s + f * t, t, D) <= 0:
        raise InternalError(f"twist remainder ({v0} + {v1}*w)/{N} outside [0, {t0} + {t1}*w)")
    return v0, v1


def apply_B(P: SurfacePoint, l: int) -> SurfacePoint:
    """Horizontal parabolic power: twists x within its horizontal cylinder."""
    if l == 0:
        return P
    return SurfacePoint(P.proto, P.N, *twist(P, "B", l), P.c, P.d)


def apply_A(P: SurfacePoint, k: int) -> SurfacePoint:
    """Vertical parabolic power: twists y within its vertical cylinder."""
    if k == 0:
        return P
    return SurfacePoint(P.proto, P.N, P.a, P.b, *twist(P, "A", k))


def apply(P: SurfacePoint, gen: str, n: int) -> SurfacePoint:
    """The n-th power of the generator named gen ("A" or "B") applied to P."""
    # module globals looked up per call, so a wrapped apply_A/apply_B sees it
    if gen == "A":
        return apply_A(P, n)
    if gen == "B":
        return apply_B(P, n)
    raise ValueError(f"unknown generator {gen!r}")


# -- the same steps on int64 arrays, one lane per point, where lanes_fit holds --


def lanes_fit(proto: SurfaceProto, M: int, E: int) -> bool:
    """True if int64 lanes with numerators and N below M in size, stepped by
    exponents below E in size, keep every value below 2**62; elsewhere a
    caller steps its points through ``apply``."""
    return M * (E + 1) * proto.lane_growth < 2**62


def lane_signs(proto: SurfaceProto, u, v):
    """Exact signs of u + v*w, lane by lane; u and v may stack several tests."""
    return sign_sqrt_array(2 * u + v if proto.f else 2 * u, v, proto.D)


def twist_lanes(proto: SurfaceProto, gen: str, N: int, u0, u1, v0, v1, n):
    """``twist`` lane by lane: lane j moves (v0[j], v1[j]) by n[j] twists of
    the cylinder that (u0[j], u1[j]) lies in, with the same far-cylinder test,
    floor and remainder postcondition."""
    f, D, wiring = proto.f, proto.D, proto.wiring[gen]
    near = wiring.near
    far = lane_signs(proto, u0 - N, u1) > 0
    u0 = np.where(far, u0 - N, u0)
    v0, v1 = shear(wiring.block, n, u0, u1, v0, v1)
    # SurfaceProto.quotient per lane: the divisor is 1 on far lanes
    (p, q), (r, s) = near.scale
    x, y = np.where(far, v0, p * v0 + q * v1), np.where(far, v1, r * v0 + s * v1)
    kN = N * floor_sqrt_array(2 * x + f * y, y, D, np.where(far, 2 * N, 2 * N * near.g))
    t0, t1 = np.where(far, 1, near.q[0]), np.where(far, 0, near.q[1])
    v0, v1 = v0 - kN * t0, v1 - kN * t1
    s0, s1 = N * t0 - v0, N * t1 - v1
    low, high = lane_signs(proto, np.array((v0, s0)), np.array((v1, s1)))
    bad = (low < 0) | (high <= 0)
    if bad.any():
        j = int(bad.argmax())
        raise InternalError(f"twist remainder ({v0[j]} + {v1[j]}*w)/{N} outside [0, {t0[j]} + {t1[j]}*w)")
    return v0, v1


def check_lanes(proto: SurfaceProto, N: int, a, b, c, d):
    """The point constructor's membership and corner tests and ``is_periodic``
    for both generators, lane by lane, on numerators over N in lowest terms.

    Returns c with the top edge (x, 1) ~ (x, 0) normalized, and the A- and
    B-periodicity flags (which that normalization does not change).
    """
    r, i = proto.low
    s, t = proto.left
    x_pos, x_far, x_in_low, x_in_up, y_pos, y_far, y_in_up = lane_signs(
        proto,
        np.array((a, a - N, N * r - a, N - a, c, c - N, N * s - c)),
        np.array((b, b, N * i - b, -b, d, d, N * t - d)),
    )
    lower = y_far <= 0
    inside = (x_pos >= 0) & np.where(
        lower, (y_pos >= 0) & (x_in_low > 0), (y_in_up > 0) & (x_in_up > 0)
    )
    if not inside.all():
        j = int(inside.argmin())
        raise InvalidPointError(f"({a[j]} + {b[j]}w, {c[j]} + {d[j]}w)/{N} is outside {proto.name}")
    if ((b == 0) & (d == 0) & (((a == 0) & (c == 0)) | ((a == N) & (c == N)))).any():
        raise InvalidPointError("singular corner")
    (rA, iA), (rB, iB) = proto.wiring["A"].far, proto.wiring["B"].far
    on_A = np.where(x_far <= 0, b == 0, (a - N) * iA == b * rA)
    on_B = np.where(lower, d == 0, (c - N) * iB == d * rB)
    c = np.where((c == N) & (d == 0) & (x_far > 0), 0, c)
    return c, on_A, on_B


def axes(P: SurfacePoint, gen: str) -> tuple[Pair, Pair]:
    """Numerator pairs (u, v) over P.N: the coordinate whose cylinder gen
    twists and the one gen moves."""
    x, y = (P.a, P.b), (P.c, P.d)
    return (x, y) if gen == "A" else (y, x)


def is_periodic(P: SurfacePoint, gen: str) -> bool:
    """Finite orbit under gen: the twisted coordinate u has a rational
    splitting ratio, u itself in the near cylinder (u <= 1), (u - 1)/far in
    the far one."""
    (u0, u1), N = axes(P, gen)[0], P.N
    if P.proto.sign(u0 - N, u1) <= 0:
        return u1 == 0
    r, i = P.proto.wiring[gen].far
    return (u0 - N) * i == u1 * r


def is_B_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the horizontal parabolic (rational splitting ratio)."""
    return is_periodic(P, "B")


def is_A_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the vertical parabolic (rational splitting ratio)."""
    return is_periodic(P, "A")


def s_value(P: SurfacePoint) -> Fraction:
    """Complexity |x_i| + |y_i| driving all growth arguments."""
    return Fraction(abs(P.b) + abs(P.d), P.N)


def n_value(P: SurfacePoint) -> int:
    """Common denominator N of the four coordinates; an orbit invariant."""
    return P.N


@dataclass(frozen=True)
class Thresholds:
    """Exponent bounds; k and l are the smallest multiples of N beyond k1, l1."""

    k0: QuadNum
    l0: QuadNum
    k1: QuadNum
    l1: QuadNum
    k: int
    l: int


@lru_cache(maxsize=4096)
def thresholds(proto: SurfaceProto, N: int) -> Thresholds:
    """Growth thresholds for denominator N.

    Beyond k0/l0 any generator power strictly grows the complexity of points
    periodic under the other generator; beyond k1/l1 at least three of the
    four signed powers grow it for doubly non-periodic points.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    fs = proto.field

    def bounds(c: QuadNum) -> tuple[QuadNum, QuadNum, int]:
        # c > 0 on every prototype, so 2(N + 1)/c also bounds (2 + N)/c
        t0 = qmax(fs.from_rational(3 * N) / c, fs.from_rational(2 * N + 1))
        t1 = qmax(t0, fs.from_rational(2 * (N + 1)) / c)
        return t0, t1, N * ((t1 / N).floor() + 1)

    (k0, k1, k), (l0, l1, l) = (bounds(c) for c in proto.coeffs)
    return Thresholds(k0=k0, l0=l0, k1=k1, l1=l1, k=k, l=l)


class GeneratorWord:
    """Word in the two parabolic generators, stored in application order.

    ``letters[0]`` acts first.  The normal form merges adjacent letters with
    the same generator and drops zero exponents.  ``str()`` prints the word in
    composition order (last-applied leftmost), e.g. "A^-1 B^-1 A^1".
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...] | list[tuple[str, int]] = ()):
        merged: list[tuple[str, int]] = []
        for gen, exp in letters:
            if gen not in ("A", "B"):
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                continue
            if merged and merged[-1][0] == gen:
                prev = merged.pop()
                total = prev[1] + exp
                if total != 0:
                    merged.append((gen, total))
            else:
                merged.append((gen, exp))
        object.__setattr__(self, "letters", tuple(merged))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GeneratorWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: GeneratorWord) -> GeneratorWord:
        """Concatenation in application order: self acts first, then other."""
        return GeneratorWord(self.letters + other.letters)

    def inverse(self) -> GeneratorWord:
        return GeneratorWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "<empty>"
        return " ".join(f"{g}^{e}" for g, e in reversed(self.letters))

    def __repr__(self) -> str:
        return f"GeneratorWord({list(self.letters)!r})"


def apply_word(P: SurfacePoint, word: GeneratorWord) -> SurfacePoint:
    """Apply the word letters left to right (application order)."""
    for gen, exp in word.letters:
        P = apply(P, gen, exp)
    return P
