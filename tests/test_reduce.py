import random
from fractions import Fraction as F

import pytest

from lsurf.modn import component_labels, dense_index, project
from lsurf.reduce import (
    CASE_SHRINK_X,
    CASE_SHRINK_Y,
    BracketReport,
    ReduceProgressError,
    enumerate_S,
    in_S,
    orbit_class_bracket,
    reduce_point,
    s_bound,
)
from lsurf.schreier import ResourceCapError
from lsurf.sampling import sample_point
from lsurf.surface import (
    GeneratorWord,
    SurfacePoint,
    apply,
    apply_A,
    apply_B,
    axes,
    is_A_periodic,
    is_B_periodic,
    n_value,
    numerator_window,
    twist,
)


def pt(L8, xr, xi, yr, yi):
    return SurfacePoint.from_fractions(L8, F(xr), F(xi), F(yr), F(yi))


def test_s_bound_value(L8):
    b = s_bound(L8)
    assert (b.r, b.i) == (35, 24)
    assert 68.9 < float(b) < 69.0


def test_in_s_examples(L8):
    assert in_S(pt(L8, -96, 68, 0, 0))  # |x_i| = 68 <= 35 + 24w
    assert not in_S(pt(L8, -141, 100, 0, 0))  # 100 > 35 + 24w
    assert in_S(pt(L8, 2, 0, 1, 0))


def _in_S_by_quadnum(P):
    bound = s_bound(P.proto)
    return abs(P.x.i) <= bound and abs(P.y.i) <= bound


def test_in_s_at_the_boundary_matches_quadnum(L8):
    # |x_i| or |y_i| just inside and just outside N*(35 + 24w), N = 1..12
    for N in range(1, 13):
        edge = (s_bound(L8) * N).floor()
        for t in (edge - 1, edge, edge + 1):
            for sign in (1, -1):
                b = sign * t
                a = numerator_window(L8.p_low, N, b)[0]
                c = numerator_window(L8.p_left, N, b)[0]
                for P in (SurfacePoint(L8, N, a, b, 1, 0), SurfacePoint(L8, N, 0, 1, c, b)):
                    assert in_S(P) == _in_S_by_quadnum(P) == (t <= edge), (N, t, P)


def test_wrong_surface_rejected(L5m1):
    P = SurfacePoint.from_fractions(L5m1, F(1, 2), 0, F(1, 3), 0)
    with pytest.raises(ValueError):
        in_S(P)
    with pytest.raises(ValueError):
        reduce_point(P)


def test_member_reduces_trivially(L8):
    P = pt(L8, 0, 0, F(1, 2), 0)
    res = reduce_point(P)
    assert res.steps == 0 and len(res.word) == 0 and res.output == P


def test_b_periodic_case_fires_first(L8):
    P = pt(L8, -141, 100, F(1, 2), 0)  # y_i = 0: horizontally periodic
    res = reduce_point(P, check=True)
    assert res.trace[0][0] == 1
    assert in_S(res.output)


def replay_trace_measures(P, trace):
    """Independent per-iteration replay from the recorded cases; returns the
    sequence of max(|x_i|, |y_i|) and the final point."""
    ms = [max(abs(P.x.i), abs(P.y.i))]
    cur = P
    for case, exp in trace:
        if case == 1:
            cur = apply_A(apply_B(apply_A(cur, 1), -1), -1)
        elif case == 2:
            cur = apply_B(apply_A(apply_B(cur, 1), -1), -1)
        elif case == 3:
            cur = apply_A(cur, exp)
        else:
            cur = apply_B(cur, exp)
        ms.append(max(abs(cur.x.i), abs(cur.y.i)))
    return ms, cur


def test_case_coverage_and_progress(L8, rng):
    cases_seen = set()
    for _ in range(150):
        P = sample_point(L8, rng.randint(1, 12), rng, box=4000)
        res = reduce_point(P, check=True)
        assert in_S(res.output)
        assert n_value(res.output) == n_value(P)
        for case, exp in res.trace:
            cases_seen.add(case)
            assert case in (1, 2, 3, 4)
            if case in (3, 4):
                assert exp != 0
        ms, final = replay_trace_measures(P, res.trace)
        assert final == res.output
        for i in range(2, len(ms)):
            assert ms[i] < ms[i - 2]
    assert {3, 4} <= cases_seen


def test_word_empty_iff_member(L8, rng):
    for _ in range(60):
        P = sample_point(L8, rng.randint(1, 6), rng, box=200)
        res = reduce_point(P)
        assert (len(res.word) == 0) == in_S(P)


def test_output_in_same_residue_component(L8, rng):
    for _ in range(40):
        P = sample_point(L8, rng.randint(1, 6), rng, box=2000)
        res = reduce_point(P)
        N = n_value(P)
        labels = component_labels(N)
        assert labels[dense_index(project(P))] == labels[dense_index(project(res.output))]


def test_enumerate_s_small_denominator_membership(L8, rng):
    pts = enumerate_S(1)
    assert len(pts) > 50_000
    by_key = sorted(pts, key=lambda P: P.key)
    for P in random.Random(3).sample(by_key, 200):
        assert in_S(P) and n_value(P) == 1
    # reductions of perturbed members land back in the enumerated set
    members = set(pts)
    for P in random.Random(4).sample(by_key, 30):
        from lsurf.surface import apply_A

        moved = apply_A(P, 1)
        out = reduce_point(moved).output
        assert out in members


def test_bracket_cap_fires_during_enumeration():
    with pytest.raises(ResourceCapError):
        orbit_class_bracket(1, max_points=10)
    with pytest.raises(ResourceCapError):
        enumerate_S(1, max_points=10)


def test_s_is_l8_only(L5m1, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("S was enumerated before the prototype was refused")

    monkeypatch.setattr("lsurf.reduce.numerator_window", no_enumeration)
    with pytest.raises(ValueError, match="S is defined for L8 only"):
        enumerate_S(1, L5m1)
    with pytest.raises(ValueError, match="S is defined for L8 only"):
        orbit_class_bracket(1, L5m1)


def _reduce_building_both_candidates(P):
    """Oracle: the reduction loop that built both shrink candidates gen^n P
    and gen^-n P as points and kept one, testing membership in S with
    QuadNum; returns (word, output, trace)."""
    proto, N = P.proto, P.N
    letters, trace, cur = [], [], P
    while not _in_S_by_quadnum(cur):
        if is_B_periodic(cur):
            cur = apply_A(apply_B(apply_A(cur, 1), -1), -1)
            letters += [("A", 1), ("B", -1), ("A", -1)]
            trace.append((1, None))
        elif is_A_periodic(cur):
            cur = apply_B(apply_A(apply_B(cur, 1), -1), -1)
            letters += [("B", 1), ("A", -1), ("B", -1)]
            trace.append((2, None))
        else:
            gen = "A" if abs(cur.b) < abs(cur.d) else "B"
            u0, u1 = axes(cur, gen)[0]
            near = proto.sign(u0 - N, u1) < 0
            n = -proto.quotient(-N, 0, abs(u1), proto.wiring[gen].coeff) if near else 1
            plus, minus = apply(cur, gen, n), apply(cur, gen, -n)
            if abs(axes(plus, gen)[1][1]) <= abs(axes(minus, gen)[1][1]):
                cur, e = plus, n
            else:
                cur, e = minus, -n
            letters.append((gen, e))
            trace.append((3 if gen == "A" else 4, e))
    return GeneratorWord(letters), cur, tuple(trace)


def test_shrink_step_matches_two_candidate_oracle(L8):
    rng = random.Random("two-candidates")
    shrink_steps = 0
    for N in range(1, 13):
        for _ in range(12):
            P = sample_point(L8, N, rng, box=10_000)
            res = reduce_point(P)
            assert (res.word, res.output, res.trace) == _reduce_building_both_candidates(P), P
            assert res.steps == len(res.trace)
            shrink_steps += sum(case in (3, 4) for case, _ in res.trace)
    assert shrink_steps > 2000


def test_shrink_tie_goes_to_plus_n(L8, monkeypatch):
    # a point whose first shrink step takes -n; then both candidates of that
    # step are made the -n image, so the tie rule alone picks the exponent
    rng = random.Random("shrink-tie")
    P = next(
        Q
        for Q in (sample_point(L8, rng.randint(1, 4), rng, box=10_000) for _ in range(50))
        if (t := reduce_point(Q).trace) and t[0][0] in (CASE_SHRINK_X, CASE_SHRINK_Y) and t[0][1] < 0
    )
    n_calls = []

    def tied(Q, gen, n):
        n_calls.append(n)
        return twist(Q, gen, -abs(n) if len(n_calls) <= 2 else n)

    monkeypatch.setattr("lsurf.reduce.twist", tied)
    res = reduce_point(P)
    n = n_calls[0]
    assert n > 0 and n_calls[1] == -n
    assert res.trace[0][1] == n
