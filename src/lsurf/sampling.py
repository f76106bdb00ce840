"""Seeded sampling of connection points.

All samplers draw from a caller-supplied random.Random, so a seed fully
determines every sampled point.  Numerators are taken over a common
denominator N and clipped to a box; polygon membership is enforced exactly
(rejection on the rare singular or empty-window draws).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .surface import (
    InvalidPointError,
    SurfacePoint,
    SurfaceProto,
    is_A_periodic,
    is_B_periodic,
    numerator_window,
)


def _boxed(window: range, box: int) -> range:
    return range(max(window.start, -box), min(window.stop, box + 1))


def sample_point(
    proto: SurfaceProto, N: int, rng: random.Random, box: int = 10_000
) -> SurfacePoint:
    """Uniform-ish point with all numerators over denominator N within the box."""
    for _ in range(10_000):
        b = rng.randint(-box, box)
        window = _boxed(numerator_window(proto.p_low, N, b), box)
        if not window:
            continue
        a = rng.choice(window)
        d = rng.randint(-box, box)
        window = _boxed(numerator_window(proto.p_left, N, d), box)
        if not window:
            continue
        c = rng.choice(window)
        try:
            return SurfacePoint.from_fractions(
                proto, Fraction(a, N), Fraction(b, N), Fraction(c, N), Fraction(d, N)
            )
        except InvalidPointError:
            continue
    raise RuntimeError("sampling failed to produce a valid point")


def sample_nonperiodic_point(
    proto: SurfaceProto, N: int, rng: random.Random, box: int = 10_000
) -> SurfacePoint:
    """Point periodic under neither generator."""
    for _ in range(10_000):
        P = sample_point(proto, N, rng, box)
        if not is_A_periodic(P) and not is_B_periodic(P):
            return P
    raise RuntimeError("could not sample a doubly non-periodic point")


def _sample_y_lower(proto: SurfaceProto, N: int, rng: random.Random) -> tuple[Fraction, Fraction]:
    """(y_r, y_i) with 0 <= y <= 1 (the full-width strip)."""
    w = proto.w
    dmax = (proto.field.one / w * N).floor() + 1
    while True:
        d = rng.randint(-dmax, dmax)
        lo = (-w * d).ceil()
        hi = (proto.field.from_rational(N) - w * d).floor()  # y = 1 allowed
        if lo > hi:
            continue
        c = rng.randint(lo, hi)
        return Fraction(c, N), Fraction(d, N)


def _sample_x_left_column(proto: SurfaceProto, N: int, rng: random.Random) -> tuple[Fraction, Fraction]:
    """(x_r, x_i) with 0 <= x < 1 (the full-height column)."""
    bmax = (proto.field.one / proto.w * N).floor() + 1
    while True:
        b = rng.randint(-bmax, bmax)
        window = numerator_window(proto.field.one, N, b)
        if window:
            return Fraction(rng.choice(window), N), Fraction(b, N)


def sample_a_periodic_point(
    proto: SurfaceProto,
    N: int,
    rng: random.Random,
    b_periodic: bool | None = False,
) -> SurfacePoint:
    """Point periodic under the vertical generator.

    b_periodic=False additionally rejects points periodic under the
    horizontal one; None accepts either.
    """
    far = proto.right_width
    for _ in range(10_000):
        if N >= 2 and rng.random() < 0.5:
            # far cylinder: x - 1 a rational multiple of the far width; x > 1 forces y <= 1
            x_i = Fraction(rng.randint(1, N - 1), N)
            x_r = 1 + x_i * far.r / far.i
            y_r, y_i = _sample_y_lower(proto, N, rng)
        else:
            # near cylinder: x rational in [0, 1]; any in-polygon y pairs with it
            x_r, x_i = Fraction(rng.randint(0, N), N), Fraction(0)
            donor = sample_point(proto, N, rng, box=3 * N + 10)
            y_r, y_i = donor.y.r, donor.y.i
        try:
            P = SurfacePoint.from_fractions(proto, x_r, x_i, y_r, y_i)
        except InvalidPointError:
            continue
        if not is_A_periodic(P):
            continue
        if b_periodic is False and is_B_periodic(P):
            continue
        if b_periodic is True and not is_B_periodic(P):
            continue
        return P
    raise RuntimeError("could not sample an A-periodic point")


def sample_b_periodic_point(
    proto: SurfaceProto,
    N: int,
    rng: random.Random,
    a_periodic: bool | None = False,
) -> SurfacePoint:
    """Point periodic under the horizontal generator (mirror of the above)."""
    far = proto.upper_height
    for _ in range(10_000):
        if N >= 2 and rng.random() < 0.5:
            # upper cylinder: y - 1 a rational multiple of its height; y > 1 forces x < 1
            y_i = Fraction(rng.randint(1, N - 1), N)
            y_r = 1 + y_i * far.r / far.i
            x_r, x_i = _sample_x_left_column(proto, N, rng)
        else:
            # lower cylinder: y rational in [0, 1]; any in-polygon x pairs with it
            y_r, y_i = Fraction(rng.randint(0, N), N), Fraction(0)
            donor = sample_point(proto, N, rng, box=3 * N + 10)
            x_r, x_i = donor.x.r, donor.x.i
        try:
            P = SurfacePoint.from_fractions(proto, x_r, x_i, y_r, y_i)
        except InvalidPointError:
            continue
        if not is_B_periodic(P):
            continue
        if a_periodic is False and is_A_periodic(P):
            continue
        if a_periodic is True and not is_A_periodic(P):
            continue
        return P
    raise RuntimeError("could not sample a B-periodic point")
