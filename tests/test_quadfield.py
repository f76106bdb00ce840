import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsurf.quadfield import (
    FieldSpec,
    QuadNum,
    floor_sqrt,
    floor_sqrt_array,
    qmax,
    reduce_mod,
    sign_sqrt,
    sign_sqrt_array,
)

SQRT2 = FieldSpec(F(2), F(0))
GOLDEN = FieldSpec(F(1), F(1))


def q2(r, i):
    return QuadNum(F(r), F(i), SQRT2)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=60
)


@st.composite
def quadnums(draw, field=SQRT2):
    return QuadNum(draw(rationals), draw(rationals), field)


# -- construction and validation ---------------------------------------------


def test_fieldspec_rejects_square_discriminant():
    with pytest.raises(ValueError):
        FieldSpec(F(4), F(0))  # w would be 2
    with pytest.raises(ValueError):
        FieldSpec(F(2), F(1))  # f^2 + 4e = 9
    with pytest.raises(ValueError):
        FieldSpec(F(-1), F(0))  # negative discriminant


def test_fieldspec_requires_w_greater_one():
    # w = (0 + sqrt(2))/2 ~ 0.707
    with pytest.raises(ValueError):
        FieldSpec(F(1, 2), F(0))


# -- arithmetic ---------------------------------------------------------------


def test_mul_difference_of_squares():
    assert (q2(1, 1) * q2(-1, 1)) == q2(1, 0)  # (1+w)(w-1) = w^2-1 = 1


def test_add_identity():
    a = q2(F(3, 7), F(-2, 5))
    assert a + q2(0, 0) == a


def test_golden_ratio_defining_relation():
    one = GOLDEN.one
    w = GOLDEN.w
    assert (one + w) * (w - 1) == w  # w^2 - 1 = w
    assert GOLDEN.w is GOLDEN.w and GOLDEN.one is GOLDEN.one  # built once per field


def test_rational_values_hash_like_rationals():
    assert QuadNum(3, 0, SQRT2) == 3
    assert QuadNum(3, 0, SQRT2) in {3}
    assert hash(QuadNum(F(1, 2), 0, SQRT2)) == hash(F(1, 2))


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        q2(1, 0) + GOLDEN.one
    with pytest.raises(ValueError):
        q2(1, 0) * GOLDEN.w


def test_division_roundtrip():
    a, b = q2(F(5, 3), F(-7, 2)), q2(F(2), F(9, 4))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / q2(0, 0)


# -- sign, ordering, floor ----------------------------------------------------


def test_sign_examples():
    assert q2(3, -2).sign() == 1  # 9 > 8
    assert q2(0, 0).sign() == 0
    assert q2(-1, 1).sign() == 1  # 1 < 2


def test_floor_examples():
    assert SQRT2.w.floor() == 1
    assert SQRT2.from_rational(F(5, 2)).floor() == 2
    assert (-SQRT2.w).floor() == -2


def test_ordering_consistent_with_floats():
    a, b = q2(F(7, 5), F(1, 3)), q2(2, F(1, 4))
    assert (a < b) == (float(a) < float(b))
    assert qmax(a, b) == b and min(a, b) == a


@given(quadnums(), quadnums())
def test_sign_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


def test_sign_multiplicative_bulk():
    rng = random.Random(1)
    for _ in range(10_000):
        a = q2(F(rng.randint(-99, 99), rng.randint(1, 30)), F(rng.randint(-99, 99), rng.randint(1, 30)))
        b = q2(F(rng.randint(-99, 99), rng.randint(1, 30)), F(rng.randint(-99, 99), rng.randint(1, 30)))
        assert (a * b).sign() == a.sign() * b.sign()


@given(quadnums(), quadnums())
def test_sign_of_sum_matches_float_when_clear(a, b):
    s = a + b
    fs = float(s)
    if abs(fs) > 1e-6 * (1 + abs(float(a)) + abs(float(b))):
        assert s.sign() == (1 if fs > 0 else -1)


@given(quadnums())
def test_floor_bounds(a):
    n = a.floor()
    assert (a - n).sign() >= 0
    assert (a - (n + 1)).sign() < 0


@given(quadnums())
def test_float_shadow(a):
    shadow = float(a.r) + float(a.i) * (2.0**0.5)
    assert abs(float(a) - shadow) <= 1e-9 * (1 + abs(shadow))


# -- the integer primitives on Pell pairs ---------------------------------------


def pell_pairs(m, lower=10**16):
    """Pairs (x, y) with x*x - m*y*y = +-1 and x > lower: powers of the
    smallest solution (x0 + y0*sqrt(m))^n, multiplied out in integers."""
    y0 = next(y for y in range(1, 10**4) if math.isqrt(m * y * y + 1) ** 2 in (m * y * y + 1, m * y * y - 1))
    x0 = math.isqrt(m * y0 * y0 + 1)
    x, y, out = x0, y0, []
    while len(out) < 4:
        if x > lower:
            out.append((x, y))
        x, y = x * x0 + m * y * y0, x * y0 + y * x0
    return out


@pytest.mark.parametrize("m", [2, 5, 8, 12, 13, 17, 41])
def test_integer_primitives_on_pell_pairs(m):
    # x - y*sqrt(m) = (x*x - m*y*y)/(x + y*sqrt(m)) is +-1/(2x) or so: far
    # below float64 resolution at x > 10^16, where the float difference of
    # x and y*sqrt(m) is zero or of the wrong sign
    float_wrong = 0
    for x, y in pell_pairs(m):
        norm = x * x - m * y * y
        assert norm in (1, -1)
        assert sign_sqrt(x, -y, m) == norm and sign_sqrt(-x, y, m) == -norm
        # y*sqrt(m) = sqrt(x*x - norm) lies in (x - 1, x) or in (x, x + 1)
        assert floor_sqrt(0, y, m, 1) == (x - 1 if norm == 1 else x)
        assert floor_sqrt(0, -y, m, 1) == (-x if norm == 1 else -x - 1)
        assert floor_sqrt(x, -y, m, 1) == (0 if norm == 1 else -1)
        float_wrong += (float(x) - float(y) * math.sqrt(m) > 0) != (norm > 0)
    assert float_wrong > 0


def _check_array_primitives(ps, qs, m, rng):
    dens = [rng.randint(1, 1000) for _ in qs]
    P, Q = np.array(ps, dtype=np.int64), np.array(qs, dtype=np.int64)
    signs, floors = sign_sqrt_array(P, Q, m), floor_sqrt_array(P, Q, m, np.array(dens))
    assert signs.dtype == floors.dtype == np.int64
    assert signs.tolist() == [sign_sqrt(p, q, m) for p, q in zip(ps, qs)]
    assert floors.tolist() == [floor_sqrt(p, q, m, den) for p, q, den in zip(ps, qs, dens)]
    assert floor_sqrt_array(P, Q, m, 3).tolist() == [floor_sqrt(p, q, m, 3) for p, q in zip(ps, qs)]


@pytest.mark.parametrize("m", [5, 8, 12, 13, 17, 41])
def test_array_primitives_match_the_scalar_ones_across_the_guard(m):
    # a call computes in int64 when every lane has |p| < 2**31 and
    # q*q*m < 2**62, else maps the scalar primitive.  Pell pairs and near-ties
    # p = -+isqrt(q*q*m) + e are where a float sign, or the float seed of
    # isqrt without its integer correction, goes wrong.
    rng = random.Random(f"array-primitives:{m}")
    q_limit = math.isqrt((2**62 - 1) // m)
    x0, y0 = pell_pairs(m, lower=0)[0]
    pell, (x, y) = [], (x0, y0)
    while x < 2**31:
        pell.append((x, y))
        x, y = x * x0 + m * y * y0, x * y0 + y * x0
    cases = [
        ([x for x, _ in pell] + [-x for x, _ in pell], [-y for _, y in pell] + [y for _, y in pell]),
        ([0] * len(pell), [y for _, y in pell]),
        ([2**31 - 1, -(2**31 - 1)], [-q_limit, q_limit]),
        ([2**31, 5], [1, q_limit + 1]),
        # one square past 2**62 in an otherwise small call
        ([rng.randint(-(2**33), 2**33) for _ in range(60)], [rng.randint(-255, 255) for _ in range(60)]),
        ([rng.randint(-9, 9) for _ in range(60)], [rng.choice((1, -1)) * rng.randint(q_limit + 1, 2 * q_limit) for _ in range(60)]),
    ]
    for bits in (8, 16, 24, 30, 31, 32, 40):
        qs = [rng.randint(-(2**bits), 2**bits) // (math.isqrt(m) + 1) for _ in range(60)]
        near = [-math.isqrt(q * q * m) * (1 if q >= 0 else -1) + rng.randint(-2, 2) for q in qs]
        cases += [(near, qs), ([rng.randint(-(2**bits), 2**bits) for _ in qs], qs)]
    fits = [max(map(abs, ps)) < 2**31 and max(map(abs, qs)) <= q_limit for ps, qs in cases]
    assert fits[:3] == [True] * 3 and sum(fits) > 10 and not all(fits)
    for ps, qs in cases:
        _check_array_primitives(ps, qs, m, rng)


@pytest.mark.parametrize("scale", [1 - 1e-10, 1 + 1e-10])
def test_floor_sqrt_array_corrects_its_float_seed(monkeypatch, scale):
    # a float seed of isqrt that is off by one, down or up, is corrected
    monkeypatch.setattr("lsurf.quadfield.sqrt", lambda m: math.sqrt(m) * scale)
    rng = random.Random(f"float-seed:{scale}")
    for m in (5, 8, 41):
        qs = [rng.randint(-(2**28), 2**28) for _ in range(2000)]
        ts = floor_sqrt_array(np.zeros(len(qs), np.int64), np.array(qs), m, 1).tolist()
        assert ts == [floor_sqrt(0, q, m, 1) for q in qs]
        assert ts != [math.floor(q * math.sqrt(m) * scale) for q in qs]


# -- reduce_mod ---------------------------------------------------------------


def test_reduce_mod_worked_example():
    q, rem = reduce_mod(q2(5, 2), q2(1, 1))
    assert q == 3
    assert rem == q2(2, -1)


def test_reduce_mod_zero_and_exact():
    p = q2(1, 1)
    assert reduce_mod(q2(0, 0), p) == (0, q2(0, 0))
    assert reduce_mod(p, p) == (1, q2(0, 0))


def test_reduce_mod_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        reduce_mod(q2(1, 0), q2(-1, 0))
    with pytest.raises(ValueError):
        reduce_mod(q2(1, 0), q2(0, 0))


@given(quadnums(), quadnums())
def test_reduce_mod_reconstruction(a, p):
    if p.sign() <= 0:
        return
    q, rem = reduce_mod(a, p)
    assert p * q + rem == a
    assert rem.sign() >= 0
    assert (p - rem).sign() == 1


# -- text form ----------------------------------------------------------------


def test_str_canonical_form():
    assert str(q2(F(-141), F(100))) == "-141/1+100/1*w"
    assert str(q2(F(1, 2), F(-3, 4))) == "1/2-3/4*w"
