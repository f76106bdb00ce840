"""Seeded sampling of connection points.

All samplers draw from a caller-supplied random.Random, so a seed fully
determines every sampled point.  Numerators are taken over a common
denominator N and clipped to a box; polygon membership is enforced exactly
(rejection on the rare singular or empty-window draws).
"""

from __future__ import annotations

import random

from .surface import (
    InvalidPointError,
    Pair,
    SurfacePoint,
    SurfaceProto,
    axes,
    is_A_periodic,
    is_B_periodic,
    is_periodic,
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
            return SurfacePoint(proto, N, a, b, c, d)
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


def _sample_unit(proto: SurfaceProto, N: int, rng: random.Random, closed: bool) -> Pair:
    """Numerators over N of a coordinate in [0, 1], or in [0, 1) unless
    closed.  The two windows differ only at i = 0, the one case where the
    endpoint N/N is a numerator."""
    fs = proto.field
    imax = (fs.one / fs.w * N).floor() + 1
    while True:
        i = rng.randint(-imax, imax)
        window = range(N + 1) if closed and i == 0 else numerator_window(fs.one, N, i)
        if window:
            return rng.choice(window), i


def _sample_periodic(
    proto: SurfaceProto, N: int, rng: random.Random, gen: str, other_periodic: bool | None
) -> SurfacePoint:
    """Point periodic under gen; other_periodic=False rejects points periodic
    under the other generator too, True requires them to be, None accepts
    either."""
    other = "B" if gen == "A" else "A"
    R, S = proto.wiring[gen].far
    for _ in range(10_000):
        if N >= 2 and rng.random() < 0.5:
            # far cylinder: u - 1 = (k/N)*(R + S*w)/S, over denominator N*S.
            # u > 1 puts v in the unit interval of the other coordinate's near
            # cylinder: [0, 1] for y (y = 1 is glued to y = 0), [0, 1) for x
            k = rng.randint(1, N - 1)
            den, u = N * S, (N * S + k * R, k * S)
            v = tuple(t * S for t in _sample_unit(proto, N, rng, closed=gen == "A"))
        else:
            # near cylinder: u rational in [0, 1]; any in-polygon v pairs with it
            den, u = N, (rng.randint(0, N), 0)
            donor = sample_point(proto, N, rng, box=3 * N + 10)
            v = tuple(t * (N // donor.N) for t in axes(donor, gen)[1])
        x, y = (u, v) if gen == "A" else (v, u)
        try:
            P = SurfacePoint(proto, den, *x, *y)
        except InvalidPointError:
            continue
        if is_periodic(P, gen) and other_periodic in (None, is_periodic(P, other)):
            return P
    raise RuntimeError(f"could not sample a point periodic under {gen}")


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
    return _sample_periodic(proto, N, rng, "A", b_periodic)


def sample_b_periodic_point(
    proto: SurfaceProto,
    N: int,
    rng: random.Random,
    a_periodic: bool | None = False,
) -> SurfacePoint:
    """Point periodic under the horizontal generator; a_periodic as above."""
    return _sample_periodic(proto, N, rng, "B", a_periodic)
