"""Residue-vector orbit graph: the finite shadow of the generator action mod N.

A connection point (N; a, b, c, d) projects to its numerators [a, b, c, d]
in (Z/N)^4, with gcd(a, b, c, d, N) = 1.  Mod N a power of A adds x*p_left
to y and a power of B adds y*p_low to x: the reductions modulo a period (or
modulo 1) subtract integer multiples of it, which vanish mod N.  So each
generator acts through the integer block of the exact action,
``SurfaceProto.wiring[gen].block`` (in ``lsurf.surface``), reduced mod N.
The number of connected components C(N) of the resulting graph, found by
vectorized orbit search, bounds the orbit count from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .surface import Block, SurfaceProto, SurfacePoint, prototype, shear


class ModNResourceError(RuntimeError):
    """Vertex count N**4 exceeds the configured cap."""


@dataclass(frozen=True)
class ModNVec:
    """Vertex [a, b, c, d] of the mod-N graph; requires gcd(a,b,c,d,N) = 1."""

    N: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        for name in "abcd":
            v = getattr(self, name)
            if not 0 <= v < max(self.N, 1):
                raise ValueError(f"residue {name}={v} out of range mod {self.N}")
        if gcd(self.a, self.b, self.c, self.d, self.N) != 1:
            raise ValueError("gcd(a, b, c, d, N) must be 1")

    def __str__(self) -> str:
        return f"[{self.a},{self.b},{self.c},{self.d}] mod {self.N}"


def _moved(m: Block, sign: int, x, y, X, Y, N: int):
    """(X, Y) + sign * m @ (x, y) mod N, on ints or on numpy arrays."""
    X, Y = shear(m, sign, x, y, X, Y)
    X %= N
    Y %= N
    return X, Y


def act(v: ModNVec, gen: str, proto: SurfaceProto | None = None) -> ModNVec:
    """One generator step on a residue vector.

    gen is "A", "B", "A-1" or "B-1".  Default coefficients are those of L_8;
    passing another prototype uses its own cylinder periods.
    """
    if gen not in ("A", "A-1", "B", "B-1"):
        raise ValueError(f"unknown generator {gen!r}")
    m = (proto if proto is not None else _L8).wiring[gen[0]].block
    N, sign = v.N, -1 if gen.endswith("-1") else 1
    if gen[0] == "A":
        return ModNVec(N, v.a, v.b, *_moved(m, sign, v.a, v.b, v.c, v.d, N))
    return ModNVec(N, *_moved(m, sign, v.c, v.d, v.a, v.b, N), v.c, v.d)


def project(P: SurfacePoint) -> ModNVec:
    """The point's numerators (a, b, c, d) mod its denominator N."""
    return ModNVec(P.N, *(t % P.N for t in (P.a, P.b, P.c, P.d)))


# -- component counting -----------------------------------------------------


def _perm_images(N: int, proto: SurfaceProto) -> tuple[np.ndarray, np.ndarray]:
    """Dense int32 images of A and B over all of (Z/N)^4; the digits are
    broadcast views, so only the encoded image is full size."""
    mA, mB = (proto.wiring[gen].block for gen in "AB")
    a, b, c, d = np.ogrid[:N, :N, :N, :N]

    def enc(*digits):
        out = np.zeros((N,) * 4, dtype=np.int32)
        for digit, place in zip(digits, (N**3, N**2, N, 1)):
            out += digit * place
        return out.ravel()

    return enc(a, b, *_moved(mA, 1, a, b, c, d, N)), enc(*_moved(mB, 1, c, d, a, b, N), c, d)


_MAX_VERTICES = 2 * 10**7


def _check_cap(N: int, max_vertices: int) -> None:
    cap = min(max_vertices, 2**31 - 1)  # dense indices and labels are int32
    if N**4 > cap:
        raise ModNResourceError(f"{N}^4 = {N**4} vertices exceeds cap {cap}")


def components(
    N: int, proto: SurfaceProto | None = None, max_vertices: int = _MAX_VERTICES
) -> tuple[int, list[ModNVec]]:
    """Connected components of the mod-N graph under both generators.

    Returns the count and one representative per component (smallest vector
    in lexicographic order).  Undirected closure: inverse edges included.
    The N**4 dense vertices cost about 14 bytes each at peak (measured at
    N = 24..44), so the default cap admits N <= 66, about 0.28 GB; the cap is
    checked before anything is allocated.
    """
    proto = proto if proto is not None else _L8
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_cap(N, max_vertices)
    labels = component_labels(N, proto)
    roots = np.flatnonzero(labels == np.arange(labels.size, dtype=labels.dtype))
    # gcd(v, N) is an orbit invariant: a component is valid iff its root is
    vecs = np.transpose(np.unravel_index(roots, (N,) * 4)).tolist()
    reps = [ModNVec(N, *v) for v in vecs if gcd(*v, N) == 1]
    return len(reps), reps


def dense_index(v: ModNVec) -> int:
    return ((v.a * v.N + v.b) * v.N + v.c) * v.N + v.d


def component_labels(N: int, proto: SurfaceProto | None = None) -> np.ndarray:
    """Label array over the dense (Z/N)^4 index: each vertex gets the smallest index
    of its component, which is the forward orbit of that index under A and B."""
    imgA, imgB = _perm_images(N, proto if proto is not None else _L8)
    labels = np.full(N**4, -1, dtype=np.int32)
    root, step = 0, 1024
    while root < labels.size:  # a scan in doubling chunks reads O(N**4) labels
        hits = np.flatnonzero(labels[root : root + step] < 0)
        if not hits.size:
            root, step = root + step, 2 * step
            continue
        root, step = root + int(hits[0]), 1024
        frontier = np.array([root])
        while frontier.size:
            # each image is repeat-free and labelled before the next is filtered
            level = []
            for img in (imgA, imgB):
                new = img[frontier].astype(np.intp)  # int32 indices are cast per use
                new = new[labels[new] < 0]
                labels[new] = root
                level.append(new)
            frontier = np.concatenate(level)
    return labels


class _UnionFind:
    """Classic union-find with path compression and union by rank."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def component_table(
    n_max: int, proto: SurfaceProto | None = None
) -> list[tuple[int, int]]:
    """(N, C(N)) for N = 1..n_max; the vertex cap of ``components`` is
    checked for n_max before any N is computed."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_cap(n_max, _MAX_VERTICES)
    return [(N, components(N, proto)[0]) for N in range(1, n_max + 1)]


def multiplicativity_report(n_max: int) -> list[dict]:
    """Probe C(N*M) ?= C(N)*C(M) for coprime N, M with N*M <= n_max.

    Reported, not asserted: the identity is conjectural.
    """
    table = dict(component_table(n_max))
    rows = []
    for n in range(2, n_max + 1):
        for m in range(n + 1, n_max + 1):
            if n * m > n_max or gcd(n, m) != 1:
                continue
            rows.append(
                {
                    "N": n,
                    "M": m,
                    "C(N)": table[n],
                    "C(M)": table[m],
                    "C(NM)": table[n * m],
                    "multiplicative": table[n] * table[m] == table[n * m],
                }
            )
    return rows


_L8 = prototype(8, 0)
