"""L-shaped genus-2 prototype surfaces and their parabolic generator actions.

A prototype is the L-polygon glued from a lower cylinder ``[0, p_low) x [0, 1]``
and an upper cylinder ``[0, 1) x (1, p_left)``; the canonical point of each
boundary identification is the one with smaller coordinates.  The two cylinder
periods ``p_low`` and ``p_left`` determine everything else: each coordinate
lies in a near cylinder of height 1 or in a far one of height ``p_left - 1``
(horizontal) or ``p_low - 1`` (vertical).  The two parabolic generators act per
cylinder as exact Dehn twists computed with division with remainder in Q(w);
no floating point enters any orbit computation.

The generators mirror each other; code written once for both reads its side
through ``axes``, ``apply``, ``is_periodic`` and ``SurfaceProto.far``:

    gen  cylinder  moved  period  far size                   coeffs  exponent
    A    x         y      p_left  right_width = p_low - 1    [0]     k
    B    y         x      p_low   upper_height = p_left - 1  [1]     l
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm

from .quadfield import FieldSpec, QuadNum, qmax, reduce_mod


class InvalidPointError(ValueError):
    """Coordinates outside the canonical polygon, or a singular corner."""


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
        fs = FieldSpec(Fraction(D, 4), Fraction(0), label="sqrt(D/4)")
    else:
        fs = FieldSpec(Fraction(D - 1, 4), Fraction(1), label="(1+sqrt(D))/2")
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
    """Canonical nonsingular point of a prototype surface.

    Construction validates polygon membership, rejects the two singular
    corners (0,0) and (1,1), and normalizes the identified top edge
    (x, 1) ~ (x, 0) for x > 1 so that equal surface points have equal keys.
    """

    __slots__ = ("x", "y", "proto")

    def __init__(self, x: QuadNum, y: QuadNum, proto: SurfaceProto) -> None:
        if y.sign() < 0:
            raise InvalidPointError(f"y={y} < 0")
        in_lower = (y - 1).sign() <= 0
        if in_lower:
            if x.sign() < 0 or (x - proto.p_low).sign() >= 0:
                raise InvalidPointError(f"x={x} outside [0, {proto.p_low})")
        else:
            if (y - proto.p_left).sign() >= 0:
                raise InvalidPointError(f"y={y} outside [0, {proto.p_left})")
            if x.sign() < 0 or (x - 1).sign() >= 0:
                raise InvalidPointError(f"x={x} outside [0, 1) in the upper cylinder")
        if (x.is_zero() and y.is_zero()) or (x == 1 and y == 1):
            raise InvalidPointError("singular corner")
        if y == 1 and (x - 1).sign() > 0:
            y = proto.field.zero  # (x,1) ~ (x,0) for x > 1; keep smaller coordinates
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "proto", proto)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SurfacePoint is immutable")

    @classmethod
    def from_fractions(
        cls,
        proto: SurfaceProto,
        x_r: Fraction | int,
        x_i: Fraction | int,
        y_r: Fraction | int,
        y_i: Fraction | int,
    ) -> SurfacePoint:
        return cls(
            QuadNum(Fraction(x_r), Fraction(x_i), proto.field),
            QuadNum(Fraction(y_r), Fraction(y_i), proto.field),
            proto,
        )

    @property
    def key(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x.r, self.x.i, self.y.r, self.y.i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfacePoint):
            return NotImplemented
        return self.proto == other.proto and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.key)

    def __repr__(self) -> str:
        return f"SurfacePoint({self} on {self.proto.name})"


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


def _twist(u: QuadNum, v: QuadNum, n: int, period: QuadNum) -> QuadNum:
    """Coordinate v after n twists of the cylinder that coordinate u lies in.

    In the near cylinder (u <= 1, circumference ``period``) v moves by
    u*period per twist; in the far one (circumference 1) by (u - 1)*period.
    """
    off = u - 1
    if off.sign() <= 0:
        return reduce_mod(v + u * period * n, period)[1]
    return reduce_mod(v + off * period * n, u.field.one)[1]


def apply_B(P: SurfacePoint, l: int) -> SurfacePoint:
    """Horizontal parabolic power: twists x within its horizontal cylinder."""
    if l == 0:
        return P
    return SurfacePoint(_twist(P.y, P.x, l, P.proto.p_low), P.y, P.proto)


def apply_A(P: SurfacePoint, k: int) -> SurfacePoint:
    """Vertical parabolic power: twists y within its vertical cylinder."""
    if k == 0:
        return P
    return SurfacePoint(P.x, _twist(P.x, P.y, k, P.proto.p_left), P.proto)


def apply(P: SurfacePoint, gen: str, n: int) -> SurfacePoint:
    """The n-th power of the generator named gen ("A" or "B") applied to P."""
    # module globals looked up per call, so a wrapped apply_A/apply_B sees it
    return (apply_A if gen == "A" else apply_B)(P, n)


def axes(P: SurfacePoint, gen: str) -> tuple[QuadNum, QuadNum]:
    """(u, v): the coordinate whose cylinder gen twists and the one gen moves."""
    return (P.x, P.y) if gen == "A" else (P.y, P.x)


def delta_A(P: SurfacePoint, k: int) -> Fraction:
    """Exact increment of the irrational part of y under the k-th vertical power."""
    return apply_A(P, k).y.i - P.y.i


def delta_B(P: SurfacePoint, l: int) -> Fraction:
    """Exact increment of the irrational part of x under the l-th horizontal power."""
    return apply_B(P, l).x.i - P.x.i


def is_periodic(P: SurfacePoint, gen: str) -> bool:
    """Finite orbit under gen: the twisted coordinate u has a rational
    splitting ratio, u itself in the near cylinder (u <= 1), (u - 1)/far in
    the far one."""
    u = axes(P, gen)[0]
    off = u - 1
    if off.sign() <= 0:
        return u.i == 0
    far = P.proto.far(gen)
    return off.r * far.i == off.i * far.r


def is_B_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the horizontal parabolic (rational splitting ratio)."""
    return is_periodic(P, "B")


def is_A_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the vertical parabolic (rational splitting ratio)."""
    return is_periodic(P, "A")


def splitting_ratio(P: SurfacePoint, direction: str) -> QuadNum:
    """Height of the point in its cylinder divided by the cylinder height.

    direction "horizontal" uses the cylinders twisted by B, "vertical" the
    ones twisted by A; the boundary y=1 (resp. x=1) counts as the near
    cylinder.  The ratio is rational iff the point is periodic under the
    corresponding generator (``is_periodic``).
    """
    gen = {"horizontal": "B", "vertical": "A"}.get(direction)
    if gen is None:
        raise ValueError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")
    u = axes(P, gen)[0]
    off = u - 1
    return u if off.sign() <= 0 else off / P.proto.far(gen)


def s_value(P: SurfacePoint) -> Fraction:
    """Complexity |x_i| + |y_i| driving all growth arguments."""
    return abs(P.x.i) + abs(P.y.i)


def n_value(P: SurfacePoint) -> int:
    """Least common denominator of the four coordinates; an orbit invariant."""
    return lcm(
        P.x.r.denominator, P.x.i.denominator, P.y.r.denominator, P.y.i.denominator
    )


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


def parse_word(text: str) -> GeneratorWord:
    """Inverse of str(): letters in composition order, e.g. "A^-1 B^2"."""
    text = text.strip()
    if not text or text == "<empty>":
        return GeneratorWord()
    letters: list[tuple[str, int]] = []
    for tok in text.split():
        mo = re.match(r"^([AB])\^(-?\d+)$", tok)
        if mo is None:
            raise ValueError(f"bad word token {tok!r}")
        letters.append((mo.group(1), int(mo.group(2))))
    return GeneratorWord(tuple(reversed(letters)))


def apply_word(P: SurfacePoint, word: GeneratorWord) -> SurfacePoint:
    """Apply the word letters left to right (application order)."""
    for gen, exp in word.letters:
        P = apply(P, gen, exp)
    return P
