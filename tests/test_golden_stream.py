"""Golden random streams: the seeded samplers, the growth thresholds, pruned
orbit balls, the lemma suites and L8 reductions must keep producing the same
bytes.

A byte-identity check of the CLI artifacts cannot see a change in how many
random draws a sampler consumes when its printed result happens to be the
same (``verify-lemmas`` prints a header and "ok" lines), so this test
hashes the sampled points themselves.  The digest was computed once from a
reference run and is never re-derived from the code under test.
"""

import hashlib
import random
from fractions import Fraction

from lsurf.lemmas import run_suites
from lsurf.reduce import reduce_point
from lsurf.sampling import (
    sample_a_periodic_point,
    sample_b_periodic_point,
    sample_nonperiodic_point,
    sample_point,
)
from lsurf.schreier import build_G2, classify_component
from lsurf.surface import SurfacePoint, prototype, thresholds

SURFACES = ((8, 0), (5, -1), (17, 1), (12, 0), (13, -1), (41, 1))
DENOMINATORS = (1, 2, 3, 5, 7)
GOLDEN_DIGEST = "3dd753bf3aa54d3bb9281249b78c870abf8c6965e49bbe70485330960a304bd8"


def _sampler_records(proto, N):
    rng = random.Random(f"golden:{proto.name}:{N}")
    for flag in (False, True, None):
        yield f"A {flag} {sample_a_periodic_point(proto, N, rng, b_periodic=flag)}"
        yield f"B {flag} {sample_b_periodic_point(proto, N, rng, a_periodic=flag)}"
    yield f"nonperiodic {sample_nonperiodic_point(proto, N, rng, box=50 * N)}"


def _records():
    for D, eps in SURFACES:
        proto = prototype(D, eps)
        for N in DENOMINATORS:
            for record in _sampler_records(proto, N):
                yield f"{proto.name} N={N} {record}"
        for N in range(1, 13):
            th = thresholds(proto, N)
            yield f"{proto.name} thresholds N={N} {th.k0} {th.l0} {th.k1} {th.l1} {th.k} {th.l}"
        P = sample_nonperiodic_point(proto, 2, random.Random(f"golden-ball:{proto.name}"), box=40)
        ball = build_G2(P, radius=2)
        yield f"{proto.name} G2 {classify_component(ball).kind}\n{ball.to_dot()}"
        for report in run_suites(proto, seed=3, samples=10):
            yield f"{proto.name} {report.line()} {report.violations}"
    L8 = prototype(8, 0)
    rng = random.Random("golden-reduce")
    starts = [sample_point(L8, rng.randint(1, 6), rng, box=400) for _ in range(48)]
    # periodic points far out of S: a rational coordinate in [0, 1] next to a
    # large irrational part in the other one
    for N in range(2, 8):
        P = sample_point(L8, N, rng, box=300 * N)
        u = Fraction(rng.randint(1, N - 1), N)
        starts.append(SurfacePoint.from_fractions(L8, u, 0, P.y.r, P.y.i))
        starts.append(SurfacePoint.from_fractions(L8, P.x.r, P.x.i, u, 0))
    for P in starts:
        result = reduce_point(P, check=True)
        yield f"reduce {P} {result.word} {result.output} {result.trace}"


def test_golden_stream_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(record.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST
