"""The benchmark's workloads: seeded inputs, the op each input goes through,
and the check of each op's output.

A workload hands out its inputs as batches.  A batch is the smallest mix the
workload stands for (one point per denominator, one ball per prototype and
start kind, one full residue table, one sample of every lemma check on every
prototype), so throughput and latency taken over whole batches do not depend
on where the time budget cuts the run.  Inputs are derived from the seed with
``random.Random`` (for ``reduce`` only their order, for ``residue-table``
not at all); the library only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass

import lsurf.lemmas as lemmas
import lsurf.modn as modn
import lsurf.reduce as reduction
import lsurf.sampling as sampling
import lsurf.schreier as schreier
import lsurf.spectral as spectral

# the package re-exports the function surface(), which shadows the module
# in ``import lsurf.surface as surface``
surface = importlib.import_module("lsurf.surface")

# Seed whose outputs are pinned below; other seeds get the seed-independent
# checks only.
PIN_SEED = 0

# C(1..28) is TABLE_CN of the acceptance tests; C(29..36) pinned from lsurf
# at the commit that added this benchmark.
EXPECTED_CN = (
    1, 5, 1, 8, 1, 5, 3, 8, 1, 5, 1, 8, 1, 15, 1, 8, 3, 5, 1, 8, 3, 5, 3, 8, 1, 5, 1, 24,
    1, 5, 3, 8, 1, 15, 3, 8,
)

# Dirichlet bottom of the radius-(r-1) support inside a radius-r pruned ball:
# the 4-valent tree, and the tree whose root carries the loop.
TREE_MU0 = {3: 1.3542486889354102, 6: 0.8166585775494086}
LOOPED_MU0 = {3: 0.9999999999999992, 6: 0.7292155232980931}
MU0_TOL = 1e-9

PROTOS = ((8, 0), (5, -1), (17, 1))


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


class Reduce:
    """c2 distribution: L8 points, N = 1..12, numerators within a 10^4 box,
    each driven into S with a replay-checked certificate.

    Step counts are heavy-tailed: the median is about 18, but one point in a
    few hundred needs thousands of steps (one took 2968 steps, 4.5 s).  Over
    ten seeds, the total steps of 288 seeded points, about what a run holds,
    spread by 28 % (interquartile range over median), and a run's throughput
    swings with the rare long points it happens to draw.  So every seed
    reduces the same corpus of 144 points, drawn once from a fixed seed; the
    seed sets the order.  One batch is one pass over the corpus."""

    name = "reduce"
    speed_kernel = "fraction"

    def __init__(self, quick: bool) -> None:
        self.proto = surface.prototype(8, 0)
        # groups of 12 points, one per denominator N = 1..12
        self.corpus_groups = 2 if quick else 12
        self.pool_batches = self.trace_batches = self.pin_batches = 1

    def _points(self, seed, groups: int) -> list:
        rng = random.Random(f"reduce:{seed}")
        return [
            sampling.sample_point(self.proto, N, rng, box=10_000)
            for _ in range(groups)
            for N in range(1, 13)
        ]

    def pool(self, seed, n_batches: int) -> list[list]:
        points = self._points("core", self.corpus_groups)
        random.Random(f"reduce-order:{seed}").shuffle(points)
        return [points] * n_batches

    def warmup(self) -> list:
        return self._points("warm-up", 1)

    def run(self, P):
        return reduction.reduce_point(P, check=True)

    def check(self, P, res) -> str | None:
        if not reduction.in_S(res.output):
            return f"output {res.output} is not in S"
        if surface.apply_word(P, res.word) != res.output:
            return f"word {res.word} does not replay {P} onto {res.output}"
        if surface.n_value(res.output) != surface.n_value(P):
            return f"denominator changed from {P} to {res.output}"
        return None

    def record(self, P, res) -> str:
        return f"{P}|{res.word}|{res.output}"


@dataclass(frozen=True)
class BallResult:
    kind: str
    loop_at_root: bool
    order: int
    edges: int
    support: int
    mu0: float


class OrbitBall:
    """Pruned orbit balls on L8, L5-1 and L17+1 from A-periodic, B-periodic
    and doubly non-periodic starts, classified, then the Dirichlet bottom of
    the interior."""

    name = "orbit-ball"
    speed_kernel = "fraction"

    def __init__(self, quick: bool) -> None:
        self.radius = 3 if quick else 6
        self.pool_batches, self.trace_batches, self.pin_batches = (2, 1, 1) if quick else (8, 1, 2)

    def pool(self, seed, n_batches: int) -> list[list]:
        rng = random.Random(f"orbit-ball:{seed}")
        batches = []
        for i in range(n_batches):
            batch = []
            for j, (D, eps) in enumerate(PROTOS):
                proto = surface.prototype(D, eps)
                N = rng.randint(1, 3)
                kind = (i + j) % 3  # every batch has one start of each kind
                if kind == 0:
                    P = sampling.sample_a_periodic_point(proto, N, rng, b_periodic=False)
                elif kind == 1:
                    P = sampling.sample_b_periodic_point(proto, N, rng, a_periodic=False)
                else:
                    P = sampling.sample_nonperiodic_point(proto, N, rng, box=40)
                batch.append((P, self.radius))
            batches.append(batch)
        return batches

    def warmup(self) -> list:
        return [(P, 2) for P, _ in self.pool("warm-up", 1)[0]]

    def run(self, item) -> BallResult:
        P, radius = item
        ball = schreier.build_G2(P, radius=radius)
        shape = schreier.classify_component(ball)
        G, ids = spectral.FiniteGraph.from_adjacency(ball.simple_adjacency())
        support = spectral.graph_ball(G, ids[ball.root], radius - 1)
        mu0 = spectral.dirichlet_mu0(G, support)
        return BallResult(
            kind=shape.kind,
            loop_at_root=shape.loop_vertex == ball.root,
            order=ball.order(),
            edges=len(ball.edges),
            support=len(support),
            mu0=mu0,
        )

    def check(self, item, out: BallResult) -> str | None:
        _, radius = item
        if out.kind == schreier.OTHER:
            return "classified as Other"
        # (order, edges, support, mu0) of the two shapes whose ball does not
        # depend on the start
        if out.kind == schreier.TREE4:
            expected = (2 * 3**radius - 1, 4 * (2 * 3 ** (radius - 1) - 1),
                        2 * 3 ** (radius - 1) - 1, TREE_MU0.get(radius))
        elif out.loop_at_root:
            expected = (3**radius, 4 * 3 ** (radius - 1), 3 ** (radius - 1), LOOPED_MU0.get(radius))
        else:
            return None
        got = (out.order, out.edges, out.support)
        if got != expected[:3]:
            return f"{out.kind} ball has (order, edges, support) {got}, expected {expected[:3]}"
        if expected[3] is not None and abs(out.mu0 - expected[3]) > MU0_TOL:
            return f"{out.kind} ball has mu0 {out.mu0!r}, expected {expected[3]!r}"
        return None

    def record(self, item, out: BallResult) -> str:
        return f"{item[0]}|{out.kind}|{out.order}|{out.edges}|{out.support}|{out.mu0:.9f}"


class ResidueTable:
    """modn.components(N) for N = 1..36 in increasing order: pure numpy, no
    quadratic-field arithmetic, working memory growing as N^4.

    The seed does not enter.  The order of N sets the allocation history, and
    over seeded orders the peak memory spread by 3 % and the median op time
    by 20 %; the outputs do not depend on it."""

    name = "residue-table"
    # numpy time on this host does not follow the interpreter's speed
    speed_kernel = "gather"

    def __init__(self, quick: bool) -> None:
        self.n_max = 12 if quick else 36
        self.pool_batches, self.trace_batches, self.pin_batches = (2, 1, 1) if quick else (4, 1, 1)

    def pool(self, seed, n_batches: int) -> list[list]:
        return [list(range(1, self.n_max + 1))] * n_batches

    def warmup(self) -> list:
        return list(range(1, 9))

    def run(self, N):
        return modn.components(N)

    def check(self, N, out) -> str | None:
        count, reps = out
        if count != EXPECTED_CN[N - 1]:
            return f"C({N}) = {count}, expected {EXPECTED_CN[N - 1]}"
        if len(reps) != count:
            return f"C({N}) = {count} with {len(reps)} representatives"
        return None

    def record(self, N, out) -> str:
        count, reps = out
        return f"{N}|{count}|" + ";".join(str(v) for v in reps)


class LemmaSuites:
    """The seven lemma checks on L8, L5-1 and L17+1, one sample per call.

    Each (prototype, check) pair draws from one rng seeded as
    ``lemmas.run_suites`` seeds it, so the first n samples of a run are the
    draws of ``run_suites(proto, seed, n)``."""

    name = "lemma-suites"
    speed_kernel = "fraction"

    def __init__(self, quick: bool) -> None:
        # the rngs live on across batches, so one batch cycled is the stream
        self.pool_batches, self.trace_batches, self.pin_batches = (1, 2, 0) if quick else (1, 20, 0)

    def pool(self, seed, n_batches: int) -> list[list]:
        streams = [
            (name, proto, random.Random(f"{seed}:{proto.name}:{idx}"))
            for proto in (surface.prototype(D, eps) for D, eps in PROTOS)
            for idx, name in enumerate(check.__name__ for check in lemmas.ALL_CHECKS)
        ]
        return [streams] * n_batches

    def warmup(self) -> list:
        return self.pool("warm-up", 1)[0]

    def run(self, item):
        name, proto, rng = item
        return getattr(lemmas, name)(proto, rng, 1)

    def check(self, item, report) -> str | None:
        if report.samples != 1 or report.violations:
            return f"{item[1].name}: {report.line()} {report.violations[:2]}"
        return None


WORKLOADS = {wl.name: wl for wl in (Reduce, OrbitBall, ResidueTable, LemmaSuites)}

# digest of the records of the first pin_batches batches for PIN_SEED,
# keyed by (workload, quick)
PINS: dict[tuple[str, bool], str] = {
    ("reduce", True): "e2f9c6c2e5e2c42552f8c53114ed185300060514f79ac8bdd9a665eca09bd3ff",
    ("reduce", False): "e9eb4a761854922c380312d26ad8edc2d624fc1a42b1e7d1f846e98dd7ac5b11",
    ("orbit-ball", True): "6890ac335ab4dae6db41e455b1e7040289f0406dfe1761e371b76447e3312f6d",
    ("orbit-ball", False): "1595d03d523c52fa18d058979e5b6623a6297fca18008c7852157b2813ee2f99",
    ("residue-table", True): "5cf6b2209d17a9538cbe2e1bcfdb6d618b55c926767a1e78baaa0cdbe7a0108b",
    ("residue-table", False): "f74f81ca43214df452eff9f2d9702149a30cf96ac6f050094fd2658347be0a97",
}
