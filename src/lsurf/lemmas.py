"""Property suites for the generator-action growth lemmas.

Each check samples seeded points of the required periodicity type, probes a
spread of exponents at or beyond the relevant threshold, and returns a list
of violation records (empty when the property holds on every sample).  These
are the combinatorial facts the tree-shape certification rests on, so the
suites are wired into both the CLI and the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .modn import act, project
from .sampling import (
    sample_a_periodic_point,
    sample_b_periodic_point,
    sample_nonperiodic_point,
    sample_point,
)
from .surface import (
    GeneratorWord,
    SurfaceProto,
    apply,
    apply_word,
    axes,
    is_periodic,
    n_value,
    s_value,
    thresholds,
)

# exponent letter of each generator: violation key and Thresholds field prefix
_LETTER = {"A": "k", "B": "l"}


@dataclass
class SuiteReport:
    name: str
    samples: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def line(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"{self.name}: {self.samples} samples, {status}"


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _exponent_spread(base: int) -> tuple[int, ...]:
    return (base, base + 1, 2 * base + 3)


def _s_growth(
    proto: SurfaceProto, rng: random.Random, samples: int, gen: str, name: str
) -> SuiteReport:
    """Periodic under the other generator, not under gen: every power of gen
    at or beyond its threshold t0 strictly grows s."""
    letter = _LETTER[gen]
    sampler = sample_b_periodic_point if gen == "A" else sample_a_periodic_point
    report = SuiteReport(name, samples)
    for _ in range(samples):
        N = rng.randint(1, 6)
        P = sampler(proto, N, rng, False)
        t0 = getattr(thresholds(proto, n_value(P)), letter + "0").ceil()
        s0 = s_value(P)
        for n in _exponent_spread(t0):
            for signed in (n, -n):
                if not s0 < s_value(apply(P, gen, signed)):
                    report.violations.append({"point": str(P), letter: signed})
    return report


def check_s_growth_b_on_a_periodic(
    proto: SurfaceProto, rng: random.Random, samples: int
) -> SuiteReport:
    """A-periodic, not B-periodic: every |l| >= l0 strictly grows s."""
    return _s_growth(proto, rng, samples, "B", "s-growth under B at A-periodic points")


def check_s_growth_a_on_b_periodic(
    proto: SurfaceProto, rng: random.Random, samples: int
) -> SuiteReport:
    """B-periodic, not A-periodic: every |k| >= k0 strictly grows s."""
    return _s_growth(proto, rng, samples, "A", "s-growth under A at B-periodic points")


def check_delta_signs(proto: SurfaceProto, rng: random.Random, samples: int) -> SuiteReport:
    """Opposite nonzero signs of the irrational increments of the moved
    coordinate at +-n beyond t0, for each generator the point is not periodic
    under."""
    report = SuiteReport("opposite increment signs beyond the threshold", samples)
    for _ in range(samples):
        N = rng.randint(1, 6)
        P = sample_point(proto, N, rng, box=200 * N)
        th = thresholds(proto, n_value(P))
        for gen, letter in _LETTER.items():
            if is_periodic(P, gen):
                continue
            before = axes(P, gen)[1][1]  # numerators over the invariant N
            for n in _exponent_spread(getattr(th, letter + "0").floor() + 1):
                sp, sm = (_sgn(axes(apply(P, gen, e), gen)[1][1] - before) for e in (n, -n))
                if sp == 0 or sm == 0 or sp == sm:
                    report.violations.append({"point": str(P), letter: n, "signs": (sp, sm)})
    return report


def check_three_of_four(proto: SurfaceProto, rng: random.Random, samples: int) -> SuiteReport:
    """Doubly non-periodic points: for k > k1, l > l1 at least three of the
    four signed powers strictly grow s."""
    report = SuiteReport("three-of-four growth inequality", samples)
    for _ in range(samples):
        N = rng.randint(1, 6)
        P = sample_nonperiodic_point(proto, N, rng, box=200 * N)
        th = thresholds(proto, n_value(P))
        s0 = s_value(P)
        for bump in (1, 3):
            k = th.k1.floor() + bump
            l = th.l1.floor() + bump
            grown = sum(
                s0 < s_value(apply(P, gen, e)) for gen, n in (("A", k), ("B", l)) for e in (n, -n)
            )
            if grown < 3:
                report.violations.append({"point": str(P), "k": k, "l": l, "grown": grown})
    return report


def check_action_additivity(proto: SurfaceProto, rng: random.Random, samples: int) -> SuiteReport:
    """apply(P, k1+k2) equals apply(apply(P, k1), k2) exactly, both generators."""
    report = SuiteReport("power additivity of the actions", samples)
    for _ in range(samples):
        N = rng.randint(1, 8)
        P = sample_point(proto, N, rng, box=500)
        k1, k2 = rng.randint(-15, 15), rng.randint(-15, 15)
        for gen, letter in _LETTER.items():
            if apply(apply(P, gen, k1), gen, k2) != apply(P, gen, k1 + k2):
                report.violations.append({"point": str(P), "gen": gen, letter: (k1, k2)})
    return report


def check_projection_equivariance(
    proto: SurfaceProto, rng: random.Random, samples: int
) -> SuiteReport:
    """project(g . P) == act(project(P), g) for single generator steps."""
    report = SuiteReport("mod-N projection equivariance", samples)
    gens = (("A", 1, "A"), ("A", -1, "A-1"), ("B", 1, "B"), ("B", -1, "B-1"))
    for _ in range(samples):
        N = rng.randint(1, 12)
        P = sample_point(proto, N, rng, box=400 * N)
        g, e, name = gens[rng.randrange(4)]
        if project(apply(P, g, e)) != act(project(P), name, proto):
            report.violations.append({"point": str(P), "gen": name})
    return report


def check_word_n_invariance(
    proto: SurfaceProto, rng: random.Random, samples: int, max_len: int = 20
) -> SuiteReport:
    """Random words preserve the common denominator."""
    report = SuiteReport("denominator invariance under words", samples)
    for _ in range(samples):
        N = rng.randint(1, 12)
        P = sample_point(proto, N, rng, box=200 * N)
        letters = [
            ("A" if rng.random() < 0.5 else "B", rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, max_len))
        ]
        word = GeneratorWord(letters)
        if n_value(apply_word(P, word)) != n_value(P):
            report.violations.append({"point": str(P), "word": str(word)})
    return report


ALL_CHECKS = (
    check_s_growth_b_on_a_periodic,
    check_s_growth_a_on_b_periodic,
    check_delta_signs,
    check_three_of_four,
    check_action_additivity,
    check_projection_equivariance,
    check_word_n_invariance,
)


def run_suites(proto: SurfaceProto, seed: int, samples: int) -> list[SuiteReport]:
    """Run every suite with one derived rng per suite (order-stable)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    reports = []
    for idx, check in enumerate(ALL_CHECKS):
        rng = random.Random(f"{seed}:{proto.name}:{idx}")
        reports.append(check(proto, rng, samples))
    return reports
