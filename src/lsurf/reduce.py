"""Reduction of connection points of L_8 into the bounded set S.

S is the set of canonical points with |x_i|, |y_i| <= 35 + 24w (w = sqrt 2).
A continued-fraction-like loop picks, at each step, a generator power that
shrinks the larger irrational part; periodic points get a fixed conjugating
triple instead.  The accumulated word is an exact certificate: replaying it
on the input reproduces the output.  The measure max(|x_i|, |y_i|) must
strictly decrease over every window of two iterations; a violation raises
immediately (it would mean an implementation bug, not a bad input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

from .modn import _UnionFind, components
from .quadfield import QuadNum
from .schreier import ResourceCapError
from .surface import (
    UNIT,
    GeneratorWord,
    InternalError,
    InvalidPointError,
    SurfacePoint,
    SurfaceProto,
    apply,
    apply_A,
    apply_B,
    apply_word,
    axes,
    is_A_periodic,
    is_B_periodic,
    numerator_window,
    prototype,
    twist,
)

_L8 = prototype(8, 0)

CASE_B_PERIODIC = 1
CASE_A_PERIODIC = 2
CASE_SHRINK_Y = 3
CASE_SHRINK_X = 4

_MAX_STEPS = 10**6


class ReduceProgressError(InternalError):
    """The 2-step decrease of max(|x_i|, |y_i|) failed: internal error."""


def _l8(proto: SurfaceProto | None) -> SurfaceProto:
    """L8, for None or L8: S and the reduction into it exist only there."""
    if proto not in (_L8, None):
        raise ValueError(f"reduction into S is defined for L8 only, got {proto.name}")
    return _L8


def s_bound(proto: SurfaceProto | None = None) -> QuadNum:
    """The complexity cutoff 35 + 24w defining membership in S."""
    return QuadNum(35, 24, _l8(proto).field)


_S_PAIR = (s_bound().r.numerator, s_bound().i.numerator)  # its parts are integers


def _s_cutoff(N: int) -> int:
    """floor(N*(35 + 24w)): an integer numerator t over N has
    |t|/N <= 35 + 24w iff |t| <= this."""
    r, i = _S_PAIR
    return _L8.quotient(N * r, N * i, 1, UNIT)


def in_S(P: SurfacePoint) -> bool:
    """Exact membership test |x_i| <= 35+24w and |y_i| <= 35+24w."""
    _l8(P.proto)
    return max(abs(P.b), abs(P.d)) <= _s_cutoff(P.N)


@dataclass(frozen=True)
class ReduceResult:
    input: SurfacePoint
    word: GeneratorWord
    output: SurfacePoint
    steps: int
    trace: tuple[tuple[int, int | None], ...]


def reduce_point(P: SurfacePoint, check: bool = False) -> ReduceResult:
    """Drive P into S, returning the certificate word (application order).

    Case order per iteration: B-periodic, A-periodic, then one shrink step:
    gen = A if |x_i| < |y_i| (shrink |y_i|), else B (shrink |x_i|).  With u
    the coordinate whose cylinder gen twists, the exponent is
    ceil(1/(|u_i| * coeffs[gen])) when u < 1 and 1 otherwise; of +-n the one
    leaving the smaller moved irrational part wins, ties toward +n.  Both
    candidates are compared on their moved numerators, and only the winner
    is built as a point.
    """
    _l8(P.proto)
    proto, N = P.proto, P.N
    cutoff = _s_cutoff(N)
    letters: list[tuple[str, int]] = []
    trace: list[tuple[int, int | None]] = []
    cur = P
    m_window: list[int] = []  # numerators over the orbit invariant N

    while (m := max(abs(cur.b), abs(cur.d))) > cutoff:  # until cur is in S
        if len(trace) >= _MAX_STEPS:
            raise ReduceProgressError(f"no convergence after {_MAX_STEPS} steps")
        m_window.append(m)
        if len(m_window) >= 3:
            if not m_window[-1] < m_window[-3]:
                raise ReduceProgressError(
                    f"measure {m_window[-3]}/{N} -> {m_window[-1]}/{N} did not decrease "
                    f"over two iterations at step {len(trace)}"
                )
            m_window.pop(0)

        if is_B_periodic(cur):
            cur = apply_A(apply_B(apply_A(cur, 1), -1), -1)
            letters += [("A", 1), ("B", -1), ("A", -1)]
            trace.append((CASE_B_PERIODIC, None))
        elif is_A_periodic(cur):
            cur = apply_B(apply_A(apply_B(cur, 1), -1), -1)
            letters += [("B", 1), ("A", -1), ("B", -1)]
            trace.append((CASE_A_PERIODIC, None))
        else:
            gen = "A" if abs(cur.b) < abs(cur.d) else "B"
            u = axes(cur, gen)[0]
            # near cylinder: ceil(1/(|u_i|*c)) = -floor(-N/(|u1|*c))
            near = proto.sign(u[0] - N, u[1]) < 0
            n = -proto.quotient(-N, 0, abs(u[1]), proto.wiring[gen].coeff) if near else 1
            plus, minus = twist(cur, gen, n), twist(cur, gen, -n)
            v, e = (plus, n) if abs(plus[1]) <= abs(minus[1]) else (minus, -n)
            # gen keeps u and moves v: A sets (x, y) = (u, v), B sets (v, u)
            cur = SurfacePoint(proto, N, *(u + v if gen == "A" else v + u))
            letters.append((gen, e))
            trace.append((CASE_SHRINK_Y if gen == "A" else CASE_SHRINK_X, e))

    word = GeneratorWord(letters)
    if check and apply_word(P, word) != cur:
        raise InternalError("word replay does not reproduce the output")
    return ReduceResult(input=P, word=word, output=cur, steps=len(trace), trace=tuple(trace))


# -- enumeration of S and the orbit-class bracket ----------------------------


def enumerate_S(
    N: int, proto: SurfaceProto | None = None, max_points: int | None = None
) -> list[SurfacePoint]:
    """All canonical points of S with least common denominator exactly N, in
    enumeration order.

    Numerators over denominator N: the irrational parts range over
    |b|, |d| <= floor(N*(35+24w)) and the rational parts over the finitely
    many values placing the point inside the polygon; gcd(a,b,c,d,N)=1 pins
    the denominator.  Singular corners are skipped; identified edge points
    deduplicate through canonical normalization.  Raises ResourceCapError as
    soon as more than max_points points exist.
    """
    proto = _l8(proto)
    nb = _s_cutoff(N)
    points: dict[SurfacePoint, None] = {}  # insertion-ordered set
    x_pairs = [
        (a, b, gcd(a, b, N))
        for b in range(-nb, nb + 1)
        for a in numerator_window(proto.p_low, N, b)
    ]
    y_pairs = [
        (c, d, gcd(c, d, N))
        for d in range(-nb, nb + 1)
        for c in numerator_window(proto.p_left, N, d)
    ]
    for a, b, gx in x_pairs:
        for c, d, gy in y_pairs:
            if gcd(gx, gy) != 1:
                continue
            try:
                point = SurfacePoint(proto, N, a, b, c, d)
            except InvalidPointError:
                continue
            points.setdefault(point)
            if max_points is not None and len(points) > max_points:
                raise ResourceCapError(f"S has more than {max_points} points")
    return list(points)


@dataclass
class BracketReport:
    """Orbit-count bracket [C(N), upper] from the finite reduction graph."""

    N: int
    lower: int
    upper: int
    vertex_count: int
    excluded_periodic: list[str]
    class_sizes: list[int]
    class_representatives: list[str]
    classes: dict[SurfacePoint, int] = field(repr=False, default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": "lsurf-orbit-bracket-v1",
            "N": self.N,
            "lower_bound_components": self.lower,
            "upper_bound_h_components": self.upper,
            "reduced_set_size": self.vertex_count,
            "excluded_periodic_points": self.excluded_periodic,
            "class_sizes": self.class_sizes,
            "class_representatives": self.class_representatives,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def orbit_class_bracket(
    N: int, proto: SurfaceProto | None = None, max_points: int = 2_000_000
) -> BracketReport:
    """Bracket the number of generator-orbits of denominator-N points.

    Vertices: non-periodic points of S with denominator N.  Edges: each
    vertex joins the reduction of each single generator step applied to it;
    edges stay within one true orbit, so the component count bounds the orbit
    count from above while C(N) bounds it from below.
    """
    proto = _l8(proto)
    pts = enumerate_S(N, proto, max_points)
    excluded = []
    vertices: list[SurfacePoint] = []
    for point in pts:
        if is_A_periodic(point) and is_B_periodic(point):
            excluded.append(str(point))
        else:
            vertices.append(point)
    index = {p: i for i, p in enumerate(vertices)}

    uf = _UnionFind(len(vertices))
    for i, point in enumerate(vertices):
        for gen, exp in (("A", 1), ("A", -1), ("B", 1), ("B", -1)):
            out = reduce_point(apply(point, gen, exp)).output
            j = index.get(out)
            if j is None:
                raise InternalError(f"reduction left the enumerated set: {out}")
            uf.union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(len(vertices)):
        groups.setdefault(uf.find(i), []).append(i)
    class_sizes = sorted((len(g) for g in groups.values()), reverse=True)
    reps = sorted(str(vertices[min(g)]) for g in groups.values())
    lower = components(N, proto)[0]
    classes = {point: uf.find(i) for i, point in enumerate(vertices)}
    return BracketReport(
        N=N,
        lower=lower,
        upper=len(groups),
        vertex_count=len(vertices),
        excluded_periodic=sorted(excluded),
        class_sizes=class_sizes,
        class_representatives=reps,
        classes=classes,
    )
