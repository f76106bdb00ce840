"""L-shaped genus-2 prototype surfaces and their parabolic generator actions.

A prototype is the L-polygon glued from a lower cylinder ``[0, p_low) x [0, 1]``
and an upper cylinder ``[0, 1) x (1, H)``; the canonical point of each boundary
identification is the one with smaller coordinates.  The two parabolic
generators act per cylinder as exact Dehn twists computed with division with
remainder in Q(w); no floating point enters any orbit computation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .quadfield import FieldSpec, QuadNum, parse_quadnum, qmax, reduce_mod


class InvalidPointError(ValueError):
    """Coordinates outside the canonical polygon, or a singular corner."""


def _is_square(n: int) -> bool:
    from math import isqrt

    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True, eq=False)
class SurfaceProto:
    """Immutable prototype surface L_{D,eps} with all derived constants.

    ``p_low``/``p_left`` are the circumferences of the lower horizontal and
    the left vertical cylinder; the other two cylinders have circumference 1.
    B twists by p_low and A by p_left, which fixes both generators' wiring.
    """

    D: int
    eps: int
    field: FieldSpec
    p_low: QuadNum
    p_left: QuadNum
    upper_height: QuadNum
    right_width: QuadNum
    poly_height: QuadNum
    # linear periodicity conditions alpha*r + beta*i == 1 on the far cylinder
    a_right_cond: tuple[Fraction, Fraction]
    b_upper_cond: tuple[Fraction, Fraction]
    # coefficients of the leading irrational-increment term on the near cylinder
    a_left_coeff: QuadNum
    b_lower_coeff: QuadNum

    @property
    def w(self) -> QuadNum:
        return self.field.w

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


@lru_cache(maxsize=None)
def prototype(D: int, eps: int = 0) -> SurfaceProto:
    """Build L_D (eps=0) or L_{D,+-1} with exact derived constants."""
    if D < 5 or D % 4 not in (0, 1) or _is_square(D):
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
    w = fs.w

    if eps == 0:
        proto = SurfaceProto(
            D=D,
            eps=0,
            field=fs,
            p_low=w + 1,
            p_left=w,
            upper_height=w - 1,
            right_width=w,
            poly_height=w,
            a_right_cond=(Fraction(1), Fraction(0)),
            b_upper_cond=(Fraction(1), Fraction(1)),
            a_left_coeff=w,
            b_lower_coeff=w - 1,
        )
    elif eps == 1:
        proto = SurfaceProto(
            D=D,
            eps=1,
            field=fs,
            p_low=w + 1,
            p_left=w - 1,
            upper_height=w - 2,
            right_width=w,
            poly_height=w - 1,
            a_right_cond=(Fraction(1), Fraction(0)),
            b_upper_cond=(Fraction(1), Fraction(2)),
            a_left_coeff=w,
            b_lower_coeff=w - 2,
        )
    else:
        proto = SurfaceProto(
            D=D,
            eps=-1,
            field=fs,
            p_low=w,
            p_left=w,
            upper_height=w - 1,
            right_width=w - 1,
            poly_height=w,
            a_right_cond=(Fraction(1), Fraction(1)),
            b_upper_cond=(Fraction(1), Fraction(1)),
            a_left_coeff=w - 1,
            b_lower_coeff=w - 1,
        )
    if proto.upper_height.sign() <= 0:
        raise ValueError(f"degenerate upper cylinder for D={D}, eps={eps}")
    return proto


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
            if (y - proto.poly_height).sign() >= 0:
                raise InvalidPointError(f"y={y} outside [0, {proto.poly_height})")
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

    def in_lower(self) -> bool:
        return (self.y - 1).sign() <= 0

    def in_left(self) -> bool:
        return (self.x - 1).sign() <= 0


def parse_point(proto: SurfaceProto, literal: str) -> SurfacePoint:
    """Parse "x_r,x_i,y_r,y_i" with each component a rational like -141 or 1/2."""
    parts = [p.strip() for p in literal.split(",")]
    if len(parts) != 4:
        raise ValueError(f"point literal needs 4 comma-separated rationals: {literal!r}")
    xr, xi, yr, yi = (Fraction(p) for p in parts)
    return SurfacePoint.from_fractions(proto, xr, xi, yr, yi)


def apply_B(P: SurfacePoint, l: int) -> SurfacePoint:
    """Horizontal parabolic power: twists x within its horizontal cylinder."""
    if l == 0:
        return P
    proto = P.proto
    if P.in_lower():
        val = P.x + P.y * proto.p_low * l
        _, x_new = reduce_mod(val, proto.p_low)
    else:
        val = P.x + (P.y - 1) * proto.p_low * l
        _, x_new = reduce_mod(val, proto.field.one)
    return SurfacePoint(x_new, P.y, proto)


def apply_A(P: SurfacePoint, k: int) -> SurfacePoint:
    """Vertical parabolic power: twists y within its vertical cylinder."""
    if k == 0:
        return P
    proto = P.proto
    if P.in_left():
        val = P.y + P.x * proto.p_left * k
        _, y_new = reduce_mod(val, proto.p_left)
    else:
        val = P.y + (P.x - 1) * proto.p_left * k
        _, y_new = reduce_mod(val, proto.field.one)
    return SurfacePoint(P.x, y_new, proto)


def delta_A(P: SurfacePoint, k: int) -> Fraction:
    """Exact increment of the irrational part of y under the k-th vertical power."""
    return apply_A(P, k).y.i - P.y.i


def delta_B(P: SurfacePoint, l: int) -> Fraction:
    """Exact increment of the irrational part of x under the l-th horizontal power."""
    return apply_B(P, l).x.i - P.x.i


def is_B_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the horizontal parabolic (rational splitting ratio)."""
    if P.in_lower():
        return P.y.i == 0
    a, b = P.proto.b_upper_cond
    return a * P.y.r + b * P.y.i == 1


def is_A_periodic(P: SurfacePoint) -> bool:
    """Finite orbit under the vertical parabolic (rational splitting ratio)."""
    if P.in_left():
        return P.x.i == 0
    a, b = P.proto.a_right_cond
    return a * P.x.r + b * P.x.i == 1


def splitting_ratio(P: SurfacePoint, direction: str) -> QuadNum:
    """Height of the point in its cylinder divided by the cylinder height.

    direction "horizontal" uses the cylinders twisted by B, "vertical" the
    ones twisted by A; the boundary y=1 (resp. x=1) counts as the near
    cylinder.  The ratio is rational iff the point is periodic under the
    corresponding generator.
    """
    proto = P.proto
    if direction == "horizontal":
        if P.in_lower():
            return P.y
        return (P.y - 1) / proto.upper_height
    if direction == "vertical":
        if P.in_left():
            return P.x
        return (P.x - 1) / proto.right_width
    raise ValueError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")


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
    ca, cb = proto.a_left_coeff, proto.b_lower_coeff
    far = fs.from_rational(2 * N + 1)
    k0 = qmax(fs.from_rational(3 * N) / ca, far)
    l0 = qmax(fs.from_rational(3 * N) / cb, far)
    k1 = qmax(fs.from_rational(2 + N) / ca, k0, fs.from_rational(2 * (N + 1)) / ca)
    l1 = qmax(fs.from_rational(2 + N) / cb, l0, fs.from_rational(2 * (N + 1)) / cb)
    k = N * ((k1 / N).floor() + 1)
    l = N * ((l1 / N).floor() + 1)
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
        P = apply_A(P, exp) if gen == "A" else apply_B(P, exp)
    return P
