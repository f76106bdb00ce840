import functools
import importlib
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lsurf.quadfield import QuadNum, reduce_mod
from lsurf.sampling import sample_a_periodic_point, sample_b_periodic_point, sample_point
from lsurf.surface import (
    GeneratorWord,
    InternalError,
    InvalidPointError,
    SurfacePoint,
    apply,
    apply_A,
    apply_B,
    apply_word,
    check_lanes,
    is_A_periodic,
    is_B_periodic,
    lanes_fit,
    n_value,
    numerator_window,
    parse_point,
    prototype,
    s_value,
    surface,
    thresholds,
    twist,
    twist_lanes,
)

ALL_SURFACES = [(8, 0), (5, -1), (17, 1), (12, 0), (13, -1), (41, 1)]

# The per-spin constants as they were once written out by hand, each as (r, i)
# meaning r + i*w; the conditions are (alpha, beta) with alpha*r + beta*i == 1
# on the far cylinder.
HAND_WRITTEN = {
    0: dict(poly_height=(0, 1), upper_height=(-1, 1), right_width=(0, 1),
            coeffs=((0, 1), (-1, 1)), a_right_cond=(1, 0), b_upper_cond=(1, 1)),
    1: dict(poly_height=(-1, 1), upper_height=(-2, 1), right_width=(0, 1),
            coeffs=((0, 1), (-2, 1)), a_right_cond=(1, 0), b_upper_cond=(1, 2)),
    -1: dict(poly_height=(0, 1), upper_height=(-1, 1), right_width=(-1, 1),
             coeffs=((-1, 1), (-1, 1)), a_right_cond=(1, 1), b_upper_cond=(1, 1)),
}


def pt(proto, xr, xi, yr, yi):
    return SurfacePoint.from_fractions(proto, F(xr), F(xi), F(yr), F(yi))


# -- prototypes ----------------------------------------------------------------


def test_prototype_validation():
    with pytest.raises(ValueError):
        prototype(9, 0)  # square
    with pytest.raises(ValueError):
        prototype(8, -1)  # needs D = 1 mod 4
    with pytest.raises(ValueError):
        prototype(5, 1)  # needs D = 1 mod 8
    with pytest.raises(ValueError):
        prototype(3, 0)


def test_surface_selector():
    assert surface("L8").name == "L8"
    assert surface("L5-1").eps == -1
    assert surface("L17+1").eps == 1
    with pytest.raises(ValueError):
        surface("M8")


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_derived_constants_match_hand_written_table(D, eps):
    proto = prototype(D, eps)
    old = HAND_WRITTEN[eps]
    w = proto.w

    def q(ri):
        return ri[0] + ri[1] * w

    assert proto.p_left == q(old["poly_height"])
    assert proto.upper_height == q(old["upper_height"])
    assert proto.right_width == q(old["right_width"])
    assert proto.coeffs == tuple(q(c) for c in old["coeffs"])


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_far_cylinder_periodicity_matches_hand_written_conditions(D, eps, rng):
    proto = prototype(D, eps)
    a_alpha, a_beta = HAND_WRITTEN[eps]["a_right_cond"]
    b_alpha, b_beta = HAND_WRITTEN[eps]["b_upper_cond"]
    seen_a, seen_b = set(), set()
    for _ in range(60):
        N = rng.randint(2, 6)
        for P in (
            sample_point(proto, N, rng, box=60),
            sample_a_periodic_point(proto, N, rng, b_periodic=None),
            sample_b_periodic_point(proto, N, rng, a_periodic=None),
        ):
            if (P.x - 1).sign() > 0:
                want = a_alpha * P.x.r + a_beta * P.x.i == 1
                assert is_A_periodic(P) == want
                seen_a.add(want)
            if (P.y - 1).sign() > 0:
                want = b_alpha * P.y.r + b_beta * P.y.i == 1
                assert is_B_periodic(P) == want
                seen_b.add(want)
    assert seen_a == {True, False} and seen_b == {True, False}


def test_generator_matrices(L8, L5m1, L17p1):
    w8 = L8.w
    assert L8.p_left == w8 and L8.p_low == 1 + w8
    assert L5m1.p_low == L5m1.w
    assert L17p1.p_left == L17p1.w - 1


# -- canonical domain ------------------------------------------------------------


def test_singular_corners_rejected(L8):
    with pytest.raises(InvalidPointError):
        pt(L8, 0, 0, 0, 0)
    with pytest.raises(InvalidPointError):
        pt(L8, 1, 0, 1, 0)


def test_out_of_polygon_rejected(L8):
    with pytest.raises(InvalidPointError):
        pt(L8, -1, 0, 0, 0)
    with pytest.raises(InvalidPointError):
        pt(L8, 3, 0, F(1, 2), 0)  # x beyond 1+w
    with pytest.raises(InvalidPointError):
        pt(L8, F(3, 2), 0, F(5, 4), 0)  # upper region needs x < 1
    with pytest.raises(InvalidPointError):
        pt(L8, 1, 0, F(5, 4), 0)  # x = 1 is identified away above y = 1


def test_top_edge_identification(L8):
    # (x, 1) with x > 1 is the same surface point as (x, 0)
    P = pt(L8, 2, 0, 1, 0)
    assert P.y == 0
    assert P == pt(L8, 2, 0, 0, 0)
    # with x <= 1 the height-1 point is interior and kept
    Q = pt(L8, F(1, 2), 0, 1, 0)
    assert Q.y == 1


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_equal_points_hash_equal_by_every_route(D, eps, rng):
    # the hash is kept after the first call; each route builds a new instance
    proto = prototype(D, eps)
    for _ in range(20):
        P = sample_point(proto, rng.randint(1, 6), rng, box=200)
        n = rng.choice([-3, -1, 2, 5])
        routes = [
            SurfacePoint(proto, 6 * P.N, 6 * P.a, 6 * P.b, 6 * P.c, 6 * P.d),  # gcd 6
            SurfacePoint.from_fractions(proto, *P.key),
            apply(apply(P, "A", n), "A", -n),
            apply(apply(P, "B", n), "B", -n),
        ]
        for Q in routes:
            assert Q == P and Q is not P
            assert hash(Q) == hash(P) == hash((P.N, P.a, P.b, P.c, P.d))
            assert hash(Q) == hash(Q)  # the second call reads the kept slot
    # the top-edge normalisation: (x, 1) ~ (x, 0) for x > 1
    top, bottom = pt(proto, F(3, 2), 0, 1, 0), pt(proto, F(3, 2), 0, 0, 0)
    assert top == bottom and hash(top) == hash(bottom) == hash((2, 3, 0, 0, 0))


def test_parse_point_roundtrip(L8):
    P = parse_point(L8, "-141,100,1/2,0")
    assert P.key == (F(-141), F(100), F(1, 2), F(0))
    assert str(P) == "-141,100,1/2,0"
    with pytest.raises(ValueError):
        parse_point(L8, "1,2,3")


# -- actions ---------------------------------------------------------------------


def test_apply_B_lower_example(L8):
    P = pt(L8, 0, 0, F(1, 2), 0)
    assert apply_B(P, 1).key == (F(1, 2), F(1, 2), F(1, 2), F(0))


def test_apply_A_left_example(L8):
    P = pt(L8, F(1, 2), 0, 0, 0)
    assert apply_A(P, 1).key == (F(1, 2), F(0), F(0), F(1, 2))


def test_identity_powers(L8, rng):
    for _ in range(20):
        P = sample_point(L8, rng.randint(1, 8), rng, box=500)
        assert apply_A(P, 0) == P
        assert apply_B(P, 0) == P


def test_apply_A_right_cylinder_periodic_return(L8):
    # x = 1 + w/2 has rational part 1: the third vertical power returns y to itself
    P = pt(L8, 1, F(1, 2), F(1, 4), 0)
    assert apply_A(P, 3) == P
    assert is_A_periodic(P)


def test_action_additivity(L8, L5m1, L17p1, rng):
    for proto in (L8, L5m1, L17p1):
        for _ in range(25):
            P = sample_point(proto, rng.randint(1, 6), rng, box=300)
            k1, k2 = rng.randint(-10, 10), rng.randint(-10, 10)
            assert apply_A(apply_A(P, k1), k2) == apply_A(P, k1 + k2)
            assert apply_B(apply_B(P, k1), k2) == apply_B(P, k1 + k2)


def test_apply_dispatches_through_module_names(L8, monkeypatch):
    # apply and apply_word must reach apply_A/apply_B through the module's
    # current names, so that a wrapper installed there sees every step
    module = importlib.import_module("lsurf.surface")
    seen = []
    for gen in "AB":
        monkeypatch.setattr(module, f"apply_{gen}", lambda P, n, g=gen: seen.append((g, n)) or P)
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    assert apply(P, "A", 3) is P and apply(P, "B", -2) is P
    assert apply_word(P, GeneratorWord([("B", 1), ("A", 4)])) is P
    assert seen == [("A", 3), ("B", -2), ("B", 1), ("A", 4)]


def test_composition_oracle_for_double_step(L8):
    P = pt(L8, 0, 0, F(3, 4), F(1, 4))
    assert apply_B(apply_B(P, 1), 1) == apply_B(P, 2)


# -- increments -------------------------------------------------------------------


def test_delta_right_cylinder_closed_form(L8, rng):
    # points with x > 1: increment is k times the periodicity defect
    for _ in range(40):
        P = sample_point(L8, rng.randint(1, 8), rng, box=200)
        if (P.x - 1).sign() <= 0:
            continue
        k = rng.randint(-9, 9)
        assert apply_A(P, k).y.i - P.y.i == k * (P.x.r - 1)


def test_delta_zero_power(L8, rng):
    P = sample_point(L8, 3, rng, box=100)
    assert apply_A(P, 0).y.i == P.y.i and apply_B(P, 0).x.i == P.x.i


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_delta_near_cylinder_remainder_bound(D, eps, rng):
    # near-cylinder closed form: delta = -k * x_i * coeff - r with |r| < 1
    proto = prototype(D, eps)
    coeff_a, coeff_b = proto.coeffs
    checked_a = checked_b = 0
    while checked_a < 30 or checked_b < 30:
        P = sample_point(proto, rng.randint(1, 6), rng, box=150)
        k = rng.choice([kk for kk in range(-7, 8) if kk])
        if (P.x - 1).sign() <= 0 and checked_a < 30:
            r = -(proto.field.from_rational(apply_A(P, k).y.i - P.y.i) + coeff_a * (k * P.x.i))
            assert (r - 1).sign() < 0 and (r + 1).sign() > 0
            checked_a += 1
        if (P.y - 1).sign() <= 0 and checked_b < 30:
            r = -(proto.field.from_rational(apply_B(P, k).x.i - P.x.i) + coeff_b * (k * P.y.i))
            assert (r - 1).sign() < 0 and (r + 1).sign() > 0
            checked_b += 1


def test_delta_matches_far_cylinder_condition(L5m1, rng):
    # for the -1 variant the far-cylinder defect involves both parts of x
    for _ in range(200):
        P = sample_point(L5m1, rng.randint(1, 6), rng, box=150)
        if (P.x - 1).sign() > 0:
            k = rng.randint(-6, 6)
            assert apply_A(P, k).y.i - P.y.i == k * (P.x.r + P.x.i - 1)


# -- periodicity and splitting ratios ----------------------------------------------


def splitting_ratio(P, direction):
    """Height of the point in its cylinder divided by the cylinder height.

    direction "horizontal" uses the cylinders twisted by B, "vertical" the
    ones twisted by A; the boundary y=1 (resp. x=1) counts as the near
    cylinder.  The ratio is rational iff the point is periodic under the
    corresponding generator: the QuadNum oracle of ``is_periodic``.
    """
    gen = {"horizontal": "B", "vertical": "A"}.get(direction)
    if gen is None:
        raise ValueError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")
    u = P.x if gen == "A" else P.y
    off = u - 1
    return u if off.sign() <= 0 else off / P.proto.far(gen)


def test_periodicity_examples(L8):
    assert is_B_periodic(pt(L8, F(1, 3), F(1, 3), F(1, 2), 0))
    assert is_A_periodic(pt(L8, 1, F(1, 2), F(1, 4), 0))
    assert not is_A_periodic(pt(L8, 0, F(1, 3), F(1, 4), 0))


def test_splitting_ratio_examples(L8):
    assert splitting_ratio(pt(L8, F(1, 3), 0, F(1, 2), 0), "horizontal") == F(1, 2)
    assert splitting_ratio(pt(L8, F(1, 2), 0, 1, 0), "horizontal") == 1
    upper = pt(L8, F(1, 2), 0, F(1, 2), F(1, 2))
    assert splitting_ratio(upper, "horizontal") == F(1, 2)
    with pytest.raises(ValueError):
        splitting_ratio(upper, "diagonal")


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_periodicity_iff_rational_splitting_ratio(D, eps, rng):
    proto = prototype(D, eps)
    for _ in range(150):
        P = sample_point(proto, rng.randint(1, 6), rng, box=60)
        assert is_B_periodic(P) == (splitting_ratio(P, "horizontal").i == 0)
        assert is_A_periodic(P) == (splitting_ratio(P, "vertical").i == 0)


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_periodic_points_return_after_n_steps(D, eps, rng):
    proto = prototype(D, eps)
    for _ in range(25):
        N = rng.randint(1, 6)
        P = sample_a_periodic_point(proto, N, rng, b_periodic=None)
        assert apply_A(P, n_value(P)) == P
        Q = sample_b_periodic_point(proto, N, rng, a_periodic=None)
        assert apply_B(Q, n_value(Q)) == Q


# -- s, N, thresholds ----------------------------------------------------------------


def test_s_and_n_examples(L8):
    P = pt(L8, F(-23, 6), 3, F(10, 3), -2)  # |x_i| + |y_i| = 5, lcm of denominators 6
    assert s_value(P) == 5
    assert n_value(P) == 6
    Q = pt(L8, 2, 0, 1, 0)
    assert s_value(Q) == 0 and n_value(Q) == 1


def test_thresholds_L8_N1(L8):
    th = thresholds(L8, 1)
    assert th.k0 == 3 and th.k1 == 3
    assert th.k == 4
    w = L8.w
    assert th.l1 == (w + 1) * 4  # 2(N+1)/(w-1) with 1/(w-1) = w+1
    assert th.l == 10


def test_threshold_coefficients_are_positive():
    # thresholds() bounds k1, l1 by 2(N + 1)/c alone: it covers (2 + N)/c only for c > 0
    protos = []
    for D in range(5, 400):
        for eps in (0, 1, -1):
            try:
                protos.append(prototype(D, eps))
            except ValueError:
                pass
    assert len(protos) == 220
    for proto in protos:
        assert all(c.sign() > 0 for c in proto.coeffs), proto.name


def test_thresholds_multiple_of_n(L8, L5m1, L17p1):
    for proto in (L8, L5m1, L17p1):
        for N in (1, 2, 3, 5):
            th = thresholds(proto, N)
            assert th.k % N == 0 and th.l % N == 0
            assert (th.k - th.k1).sign() > 0 and (th.k - N - th.k1).sign() <= 0
            assert (th.l - th.l1).sign() > 0
            assert th.l0.sign() > 0 and th.k0.sign() > 0


# -- words -----------------------------------------------------------------------------


def test_word_normal_form():
    word = GeneratorWord([("A", 1), ("A", 2), ("B", 0), ("B", -1), ("B", 1), ("A", 3)])
    assert word.letters == (("A", 6),)
    assert len(GeneratorWord([("A", 1), ("A", -1)])) == 0


def test_word_str():
    word = GeneratorWord([("A", 1), ("B", -1), ("A", -1)])
    assert str(word) == "A^-1 B^-1 A^1"
    assert str(GeneratorWord()) == "<empty>"


def test_word_inverse_and_concat(L8, rng):
    for _ in range(20):
        P = sample_point(L8, rng.randint(1, 6), rng, box=100)
        letters = [
            ("A" if rng.random() < 0.5 else "B", rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 10))
        ]
        word = GeneratorWord(letters)
        assert apply_word(P, word * word.inverse()) == P
        assert apply_word(apply_word(P, word), word.inverse()) == P


def test_apply_word_examples(L8):
    P = pt(L8, F(1, 2), 0, F(1, 3), 0)
    assert apply_word(P, GeneratorWord()) == P
    assert apply_word(P, GeneratorWord([("A", 1), ("A", -1)])) == P


def test_word_preserves_denominator(L8, rng):
    for _ in range(30):
        P = sample_point(L8, rng.randint(1, 10), rng, box=500)
        letters = [
            ("A" if rng.random() < 0.5 else "B", rng.choice((-3, -1, 1, 3)))
            for _ in range(12)
        ]
        assert n_value(apply_word(P, GeneratorWord(letters))) == n_value(P)


# -- the integer kernel against the QuadNum oracle ----------------------------------
#
# The oracle is the earlier QuadNum implementation of the point constructor
# and of the generator twist, kept here verbatim in substance.


def oracle_point(proto, x, y):
    """Canonical (x, y) of a QuadNum point, or InvalidPointError."""
    if y.sign() < 0:
        raise InvalidPointError("y < 0")
    if (y - 1).sign() <= 0:
        if x.sign() < 0 or (x - proto.p_low).sign() >= 0:
            raise InvalidPointError("x outside [0, p_low)")
    else:
        if (y - proto.p_left).sign() >= 0:
            raise InvalidPointError("y outside [0, p_left)")
        if x.sign() < 0 or (x - 1).sign() >= 0:
            raise InvalidPointError("x outside [0, 1) in the upper cylinder")
    if (x == 0 and y == 0) or (x == 1 and y == 1):
        raise InvalidPointError("singular corner")
    if y == 1 and (x - 1).sign() > 0:
        y = proto.field.from_rational(0)
    return x, y


def oracle_twist(u, v, n, period):
    off = u - 1
    if off.sign() <= 0:
        return reduce_mod(v + u * period * n, period)[1]
    return reduce_mod(v + off * period * n, u.field.one)[1]


def oracle_apply(P, gen, n):
    x, y = P.x, P.y
    if gen == "A":
        y = oracle_twist(x, y, n, P.proto.p_left)
    else:
        x = oracle_twist(y, x, n, P.proto.p_low)
    x, y = oracle_point(P.proto, x, y)
    return x.r, x.i, y.r, y.i


def numerator_grid(proto, rng):
    """(N, a, b, c, d) around the polygon's edges: every tuple near the
    origin at N = 1 (both singular corners, x = 1, y = 1 and the top edge),
    then seeded draws at N = 2..6 on and next to the ends of the numerator
    windows of [0, 1), [0, p_low) and [0, p_left), with common factors."""
    yield from ((1, a, b, c, d) for a, b, c, d in itertools.product(range(-1, 4), range(-1, 2), repeat=2))
    for _ in range(800):
        N = rng.randint(2, 6)
        b, d = rng.randint(-2 * N, 2 * N), rng.randint(-2 * N, 2 * N)
        ends = []
        for period, i in ((proto.field.one, b), (proto.p_low, b), (proto.field.one, d), (proto.p_left, d)):
            window = numerator_window(period, N, i)
            ends.append([t + s for t in (window.start, window.stop) for s in (-1, 0)])
        a = rng.choice(ends[0] + ends[1])
        c = rng.choice(ends[2] + ends[3] + [N])
        g = rng.choice((1, 1, 1, 2, 3))
        yield g * N, g * a, g * b, g * c, g * d


def test_numerator_constructor_matches_oracle():
    rng = random.Random("numerator-grid")
    outcomes = set()
    for D, eps in ALL_SURFACES:
        proto = prototype(D, eps)
        for N, a, b, c, d in numerator_grid(proto, rng):
            try:
                want = oracle_point(proto, *(QuadNum(F(r, N), F(i, N), proto.field) for r, i in ((a, b), (c, d))))
            except InvalidPointError:
                want = None
            try:
                P = SurfacePoint(proto, N, a, b, c, d)
            except InvalidPointError:
                got = None
            else:
                got = P.key  # stored in lowest terms over the least common denominator
                assert P.N == math.lcm(*(t.denominator for t in got)) and math.gcd(P.N, P.a, P.b, P.c, P.d) == 1
            assert got == (None if want is None else (want[0].r, want[0].i, want[1].r, want[1].i)), (
                proto.name, (N, a, b, c, d))
            outcomes.add(got is None)
    assert outcomes == {True, False}


def boundary_numerators(proto, N, period, rng):
    """Numerator pairs over N of the coordinate values 0, 1 and period, one
    numerator to either side of each (rational and irrational part), and
    two values drawn from inside [0, period)."""
    pairs = set()
    for r, i in ((0, 0), (N, 0), (N * period.r, N * period.i)):
        r, i = int(r), int(i)
        pairs.update(((r, i), (r - 1, i), (r + 1, i), (r, i - 1), (r, i + 1)))
    for _ in range(2):
        i = rng.randint(-2 * N, 2 * N)
        pairs.add((rng.choice(numerator_window(period, N, i)), i))
    return sorted(pairs)


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_membership_on_polygon_boundaries(D, eps):
    # x on 0, 1, p_low and y on 0, 1, p_left, each against every other value
    proto = prototype(D, eps)
    rng = random.Random(f"boundaries:{proto.name}")
    accepted = rejected = 0
    for N in (1, 2, 3, 5):
        xs = boundary_numerators(proto, N, proto.p_low, rng)
        ys = boundary_numerators(proto, N, proto.p_left, rng)
        for (a, b), (c, d) in itertools.product(xs, ys):
            x, y = (QuadNum(F(r, N), F(i, N), proto.field) for r, i in ((a, b), (c, d)))
            try:
                want = oracle_point(proto, x, y)
            except ValueError as exc:  # the error type is compared below
                want = type(exc)
            else:
                want = (want[0].r, want[0].i, want[1].r, want[1].i)
            try:
                got = SurfacePoint(proto, N, a, b, c, d).key
            except ValueError as exc:
                got = type(exc)
            assert got == want, (proto.name, (N, a, b, c, d))
            accepted += want is not InvalidPointError
            rejected += want is InvalidPointError
    assert accepted > 100 and rejected > 100, (accepted, rejected)


def _differential_points(proto, rng):
    """1,600 seeded points: the grid's valid points (the edges), the
    periodic samplers' far- and near-cylinder points, then general points
    drawn from the numerator windows."""
    points = []
    for numerators in numerator_grid(proto, rng):
        try:
            points.append(SurfacePoint(proto, *numerators))
        except InvalidPointError:
            pass
    for _ in range(150):
        N = rng.randint(1, 8)
        points.append(sample_a_periodic_point(proto, N, rng, b_periodic=None))
        points.append(sample_b_periodic_point(proto, N, rng, a_periodic=None))
    while len(points) < 1600:
        N, box = rng.randint(1, 12), rng.choice((40, 400))
        b, d = rng.randint(-box, box), rng.randint(-box, box)
        a = rng.choice(numerator_window(proto.p_low, N, b))
        c = rng.choice(numerator_window(proto.p_left, N, d))
        try:
            points.append(SurfacePoint(proto, N, a, b, c, d))
        except InvalidPointError:
            pass
    return points


@functools.lru_cache(maxsize=None)
def differential_points(D, eps):
    proto = prototype(D, eps)
    return _differential_points(proto, random.Random(f"differential:{proto.name}"))


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_integer_actions_match_quadnum_oracle(D, eps):
    proto = prototype(D, eps)
    points = differential_points(D, eps)
    assert len(points) >= 1500
    # the edge cases are all present: y = 1, x = 1, both far cylinders and
    # the top edge (y = 1 with x > 1, stored as y = 0)
    assert any(P.c == P.N and P.d == 0 for P in points)
    assert any(P.a == P.N and P.b == 0 for P in points)
    assert any((P.x - 1).sign() > 0 for P in points) and any((P.y - 1).sign() > 0 for P in points)
    r, i = proto.wiring["B"].near.q  # x = (1 + p_low)/2 on the top edge
    assert SurfacePoint(proto, 2, 1 + r, i, 2, 0).c == 0
    # one oracle twist per point, cycling through A and B at +-1 and at
    # +-the threshold exponent k (A) or l (B)
    for j, P in enumerate(points):
        gen = "AB"[j % 2]
        big = getattr(thresholds(proto, P.N), "kl"[j % 2])
        n = (1, -1, big, -big)[j // 2 % 4]
        assert apply(P, gen, n).key == oracle_apply(P, gen, n), (P, gen, n)


def test_twist_remainder_postcondition(L8, monkeypatch):
    # a wrong floor leaves the remainder outside [0, period)
    monkeypatch.setattr(type(L8), "quotient", lambda self, *args: 0)
    with pytest.raises(InternalError):
        apply_A(pt(L8, F(1, 2), 0, F(1, 2), 0), 5)


# -- the array kernel against the scalar one -----------------------------------


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_check_lanes_matches_the_constructor(D, eps):
    # the constructor's membership, corners and top edge, and is_periodic,
    # lane by lane on the edge grids in lowest terms, one call per N
    proto = prototype(D, eps)
    rng = random.Random(f"check-lanes:{proto.name}")
    grid = list(numerator_grid(proto, rng))
    for N in (1, 2, 3):
        xs = boundary_numerators(proto, N, proto.p_low, rng)
        ys = boundary_numerators(proto, N, proto.p_left, rng)
        grid += [(N, a, b, c, d) for (a, b), (c, d) in itertools.product(xs, ys)]
    valid, want = {}, {}
    for numerators in grid:
        g = math.gcd(*numerators)
        N, *lane = [t // g for t in numerators]
        try:
            P = SurfacePoint(proto, N, *lane)
        except InvalidPointError:
            with pytest.raises(InvalidPointError):
                check_lanes(proto, N, *np.array([[t] for t in lane], dtype=np.int64))
            continue
        valid.setdefault(N, []).append(lane)
        want.setdefault(N, []).append((P.c, is_A_periodic(P), is_B_periodic(P)))
    assert any(c == 0 and lane[2] == N for N in want for (c, _, _), lane in zip(want[N], valid[N]))  # top edge
    for N, lanes in valid.items():
        c, on_A, on_B = check_lanes(proto, N, *np.array(lanes, dtype=np.int64).T)
        assert list(zip(c.tolist(), on_A.tolist(), on_B.tolist())) == want[N]


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_twist_lanes_match_twist(D, eps, monkeypatch):
    # per point the exponents +-1 and +-the threshold exponent of gen, on
    # int64 lanes.  On the way, the premise of the level guard:
    # for numerators and N below M in size and exponents below E, every input
    # of a sign or floor (the values that get squared) and every image
    # numerator is below M*(E + 1)*lane_growth
    proto = prototype(D, eps)
    module = importlib.import_module("lsurf.surface")  # not the surface() function
    seen = []
    real_sign, real_floor = module.sign_sqrt_array, module.floor_sqrt_array
    monkeypatch.setattr(module, "sign_sqrt_array", lambda p, q, m: seen.extend((p, q)) or real_sign(p, q, m))
    monkeypatch.setattr(
        module, "floor_sqrt_array", lambda p, q, m, den: seen.extend((p, q)) or real_floor(p, q, m, den)
    )
    points = differential_points(D, eps)
    for gen in "AB":
        for N in {P.N for P in points}:
            big = getattr(thresholds(proto, N), "k" if gen == "A" else "l")
            lanes = [(P, e) for P in points if P.N == N for e in (1, -1, big, -big)]
            want = [twist(P, gen, e) for P, e in lanes]
            a, b, c, d, n = np.array([(P.a, P.b, P.c, P.d, e) for P, e in lanes], dtype=np.int64).T
            M = max(N, *np.abs(np.array([a, b, c, d])).ravel())
            assert lanes_fit(proto, M, big)
            seen.clear()
            if gen == "A":
                c, d = moved = twist_lanes(proto, gen, N, a, b, c, d, n)
            else:
                a, b = moved = twist_lanes(proto, gen, N, c, d, a, b, n)
            assert list(zip(*(v.tolist() for v in moved))) == want
            check_lanes(proto, N, a, b, c, d)
            largest = max(max(np.abs(x).ravel()) for x in seen + [a, b, c, d])
            assert largest < M * (big + 1) * proto.lane_growth
    # so lanes_fit admits lanes below that bound, and nothing past it
    limit = 2**62 // proto.lane_growth
    assert lanes_fit(proto, limit // 8 - 1, 7)
    assert not lanes_fit(proto, limit // 8 + 1, 7)


def test_twist_lanes_remainder_postcondition(L8, monkeypatch):
    # a wrong floor leaves a remainder outside [0, period)
    surface_module = importlib.import_module("lsurf.surface")  # not the surface() function
    monkeypatch.setattr(surface_module, "floor_sqrt_array", lambda p, q, m, den: 0 * q)
    P = pt(L8, F(1, 2), 0, F(1, 2), 0)
    lanes = np.array([[P.a], [P.b], [P.c], [P.d]])
    with pytest.raises(InternalError, match="twist remainder"):
        twist_lanes(L8, "A", P.N, *lanes, np.array([5]))
