"""Combinatorial Laplacian, Dirichlet bottoms, and the Cheeger sandwich.

The Laplacian sends b to i -> sum over neighbors j of b(i) - b(j); loops
contribute nothing and are dropped on construction.  Its sparse matrix has
integer entries, so the operator identities hold exactly on Fraction
vectors; eigenvalue work is double precision with a deterministic start
vector.  For a support S inside a larger host
graph, the Dirichlet bottom mu0(S) = min Rayleigh quotient over functions
vanishing outside S satisfies  c_S^2/(2k) <= mu0(S) <= k*c_S  with
c_S = min c(M) over nonempty M inside S, which is the finite, provable form
of the sandwich used here.

A ``FiniteGraph`` holds its edges once, as one CSR array pair (row
pointers, ascending neighbours) set at construction by one numpy build; its
edge list is a view read off the CSR, and an orbit ball's simple view is one
of these graphs (``OrbitGraph.simple_graph``), which
``FiniteGraph.from_adjacency`` hands back as it is from the ball's
point-keyed view.  ``dirichlet_mu0`` reads the support's CSR rows once.
When the support's layers by distance to its boundary are an equitable
partition, as on the tree and root-looped balls, mu0 is the bottom of their
small tridiagonal quotient matrix, found with numpy alone; a support with a
vertex that the boundary does not reach has mu0 = 0 exactly; every other
support goes to the restricted Laplacian, built from the same rows, and a
dense numpy eigensolve, or above the dense cutoff an ARPACK one, the only
code that imports scipy.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

import numpy as np


def _scipy():
    """scipy.sparse and scipy.sparse.linalg, imported together on the first
    ARPACK solve: importing them after ``import lsurf`` costs 0.20-0.26 s and
    30.1 MB of RSS, which commands and supports that need no ARPACK solve
    should not pay.  This is the library's only scipy import."""
    import scipy.sparse
    import scipy.sparse.linalg

    return scipy.sparse, scipy.sparse.linalg


class SpectralConvergenceError(RuntimeError):
    """Eigensolver failed to converge; .residual holds the largest
    ||L v - lambda v|| over the pairs it returned, or None if it returned
    none."""

    def __init__(self, message: str, residual: float | None = None) -> None:
        super().__init__(message)
        self.residual = residual


def _ranges(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in the CSR neighbour array of all neighbours of ``rows``,
    row after row."""
    starts, lens = indptr[rows], indptr[rows + 1] - indptr[rows]
    # each row's start minus where its run begins in the output, per entry
    offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return offsets + np.arange(offsets.size)


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """Simple undirected graph on vertices 0..n-1, kept as one compressed
    sparse row array pair ``csr``: the neighbours of i, ascending, are
    ``indices[indptr[i]:indptr[i + 1]]``.  Every constructor goes through
    ``_build``, which drops loops and duplicate edges.  Two graphs are equal
    only if they are the same object.
    """

    n: int
    csr: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @classmethod
    def _build(cls, n: int, src: np.ndarray, dst: np.ndarray) -> FiniteGraph:
        """The graph of the edges {src[k], dst[k]} (int64 ids in 0..n-1)."""
        keep = src != dst  # loops cancel in b(i) - b(j)
        src, dst = src[keep], dst[keep]
        # both directions as row * n + neighbour, sorted, each edge once;
        # np.unique is slower
        code = np.sort(np.concatenate([src * n + dst, dst * n + src]))
        code = code[np.diff(code, prepend=-1) != 0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(code // n, minlength=n), out=indptr[1:])
        return cls(n=n, csr=(indptr, code % n))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v) with u < v, sorted, read off the CSR."""
        indptr, indices = self.csr
        src = np.repeat(np.arange(self.n), np.diff(indptr))
        upper = src < indices
        return tuple(zip(src[upper].tolist(), indices[upper].tolist()))

    @classmethod
    def from_edges(cls, n: int, edges) -> FiniteGraph:
        """The graph of the (u, v) pairs; ids must be ints in 0..n-1."""
        ids = [x for u, v in edges for x in (u, v)]
        bad = [x for x in ids if type(x) is not int or not 0 <= x < n]  # a bool is no id
        if bad:
            raise ValueError(f"vertex ids {bad[:5]} are not ints in 0..{n - 1}")
        src, dst = np.array(ids, dtype=np.int64).reshape(-1, 2).T
        return cls._build(n, src, dst)

    @classmethod
    def from_adjacency(cls, adj: Mapping) -> tuple[FiniteGraph, Mapping]:
        """Relabel arbitrary hashable vertices to 0..n-1 in the order of
        ``adj``; returns (graph, id map).  Every neighbour must be a key.  A
        mapping with a ``labelled()`` method, an orbit ball's point-keyed
        view (``OrbitGraph.simple_adjacency``), is labelled already: the
        (graph, id map) it returns come back as they are."""
        labelled = getattr(adj, "labelled", None)
        if labelled is not None:
            return labelled()
        ids = dict(zip(adj, range(len(adj))))
        n = len(ids)
        src = np.repeat(np.arange(n), np.fromiter(map(len, adj.values()), dtype=np.int64, count=n))
        try:
            dst = np.fromiter(
                map(ids.__getitem__, chain.from_iterable(adj.values())), dtype=np.int64, count=src.size
            )
        except KeyError:
            missing = dict.fromkeys(v for v in chain.from_iterable(adj.values()) if v not in ids)
            raise ValueError(f"neighbours {list(missing)[:5]} are not vertices of the adjacency") from None
        return cls._build(n, src, dst), ids

    @classmethod
    def from_json_dict(cls, data: dict) -> FiniteGraph:
        try:
            vertices, edges = data["vertices"], data["edges"]
            if not (isinstance(vertices, list) and isinstance(edges, list)):
                raise TypeError("'vertices' and 'edges' must be lists")
            pairs = [(e["src"], e["dst"]) for e in edges]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph JSON needs 'vertices' and 'edges' lists: {exc!r}") from exc
        return cls.from_edges(len(vertices), pairs)

    def adjacency(self) -> dict[int, set[int]]:
        indptr, indices = self.csr
        return {i: set(indices[indptr[i] : indptr[i + 1]].tolist()) for i in range(self.n)}

    def degrees(self) -> list[int]:
        return np.diff(self.csr[0]).tolist()

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)


def _support_rows(G: FiniteGraph, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR rows of the support ``idx`` (ascending ids), read once: each
    support vertex's degree in the whole graph, and the (row, column)
    positions in the support of its neighbours inside, row after row."""
    indptr, indices = G.csr
    pos = np.full(G.n, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    deg = indptr[idx + 1] - indptr[idx]
    cols = pos[indices[_ranges(indptr, idx)]]  # -1 for neighbours outside
    inside = cols >= 0
    return deg, np.repeat(np.arange(idx.size), deg)[inside], cols[inside]


def _dense_dirichlet_laplacian(deg: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The Laplacian restricted to a support, from its ``_support_rows``, as
    a dense numpy array: full degrees on the diagonal, -1 at each inside
    neighbour pair (a simple graph has each pair once)."""
    L = np.diag(deg.astype(float))
    L[src, dst] = -1.0
    return L


def _dirichlet_laplacian(deg: np.ndarray, src: np.ndarray, dst: np.ndarray) -> scipy.sparse.csr_matrix:
    """The Laplacian restricted to a support, from its ``_support_rows``, as
    a scipy CSR matrix: the same entries as ``_dense_dirichlet_laplacian``."""
    sp, _ = _scipy()
    m = deg.size
    diag = np.arange(m)
    data = np.concatenate([deg.astype(float), -np.ones(src.size)])
    rows, cols = np.concatenate([diag, src]), np.concatenate([diag, dst])
    return sp.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()


def _layer_quotient_mu0(deg: np.ndarray, src: np.ndarray, dst: np.ndarray) -> float | None:
    """mu0 of a support from its ``_support_rows`` through its layers, or
    None when the layers are not an equitable partition.

    Layer 0 is the boundary, the vertices with a neighbour outside; layer t
    is at distance t from it inside the support.  The partition is
    equitable when all vertices of a layer t have the same full degree and
    the same numbers down_t, same_t, up_t of neighbours in layers t - 1, t
    and t + 1.  Then mu0 is the bottom eigenvalue of the tridiagonal matrix
    with diagonal deg_t - same_t and off-diagonal -sqrt(up_t * down_{t+1}):
    its positive Perron vector lifts to a positive eigenvector of the
    restricted Laplacian, and in each component of the support only the
    bottom eigenvalue has a positive eigenvector.  The decision reads
    integer counts only.

    A support with a vertex that no layer reaches, one with no boundary
    vertex at all included, returns exactly 0.0 without a solve: that
    vertex's component in the support has no neighbour outside it, so it is
    a whole component of the graph, its indicator vanishes outside the
    support with Rayleigh quotient 0, and the restricted Laplacian is
    positive semi-definite.
    """
    m = deg.size
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=indptr[1:])
    layer = np.full(m, -1, dtype=np.int64)
    front = np.flatnonzero(deg > np.diff(indptr))
    firsts = []  # one vertex of each layer
    while front.size:
        layer[front] = len(firsts)
        firsts.append(front[0])
        nbrs = dst[_ranges(indptr, front)]
        fresh = np.zeros(m, dtype=bool)
        fresh[nbrs[layer[nbrs] < 0]] = True
        front = np.flatnonzero(fresh)
    if layer.min() < 0:
        return 0.0
    # per vertex: full degree, then neighbours one layer down, same, one up
    steps = np.bincount(src * 3 + layer[dst] - layer[src] + 1, minlength=3 * m).reshape(m, 3)
    counts = np.column_stack([deg, steps])
    per_layer = counts[firsts]
    if (counts != per_layer[layer]).any():
        return None
    deg_t, down, same, up = per_layer.T
    off = -np.sqrt((up[:-1] * down[1:]).astype(float))
    T = np.diag((deg_t - same).astype(float)) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(T)[0])


def dirichlet_mu0(G: FiniteGraph, support: set[int], dense_cutoff: int = 128) -> float:
    """Minimum Rayleigh quotient over functions vanishing outside the support.

    Equals the smallest eigenvalue of the Laplacian restricted to the support
    rows and columns (degrees taken in the full graph); decreasing in the
    support by inclusion.  The support's CSR rows are read once, never the
    full matrix.  Four ways, tried in this order, answer:

    - the layer quotient (``_layer_quotient_mu0``, numpy alone): when the
      support's layers by distance to its boundary are an equitable
      partition, as on tree and root-looped balls and the orbit balls of
      those shapes, mu0 is the bottom of their small tridiagonal matrix;
    - exactly 0.0, from the same layer search, when a support vertex cannot
      be reached from the boundary inside the support (its component is a
      whole component of the graph, such as a whole finite graph);
    - up to ``dense_cutoff`` vertices, ``np.linalg.eigvalsh`` on the
      restricted matrix built as a dense numpy array;
    - above it, ARPACK ``eigsh`` on the matrix built as a scipy CSR matrix,
      the only branch that imports scipy.  Its failures raise
      ``SpectralConvergenceError``.

    The cutoff is the measured crossover: with one BLAS thread and scipy
    loaded, best of 7 on supports that are not layer-equitable (balls of the
    single-step L8 graph, with cycles, and balls beside the root of a
    root-looped tree) of 45, 133, 135, 380, 405 and 1,076 vertices, dense
    took 0.29, 0.72, 0.65, 5.7, 7.2 and 111 ms and ARPACK 0.82, 1.90, 0.79,
    3.5, 1.00 and 5.0 ms, agreeing to within 7.1e-15.
    """
    if not support:
        raise ValueError("support must be nonempty")
    ids = None
    if {*map(type, support)} == {int}:  # a bool or a float is no id
        try:
            ids = np.sort(np.fromiter(support, dtype=np.int64, count=len(support)))
        except OverflowError:  # an int past int64
            pass
    if ids is None or ids[0] < 0 or ids[-1] >= G.n:
        bad = [v for v in support if type(v) is not int or not 0 <= v < G.n]
        raise ValueError(f"support vertices {bad[:5]} are not ids of the {G.n}-vertex graph")
    rows = _support_rows(G, ids)
    mu0 = _layer_quotient_mu0(*rows)
    if mu0 is not None:
        return mu0
    m = ids.size
    if m <= dense_cutoff:
        return float(np.linalg.eigvalsh(_dense_dirichlet_laplacian(*rows))[0])
    _, spla = _scipy()
    L = _dirichlet_laplacian(*rows)
    v0 = np.ones(m) / np.sqrt(m)
    try:
        vals = spla.eigsh(L, k=1, which="SA", v0=v0, maxiter=20000, tol=0)[0]
    except spla.ArpackNoConvergence as exc:
        lam, vecs = exc.eigenvalues, exc.eigenvectors
        # the largest ||L v - lambda v|| over the pairs that did converge
        residual = float(np.linalg.norm(L @ vecs - vecs * lam, axis=0).max()) if lam.size else None
        raise SpectralConvergenceError("eigensolver did not converge", residual) from exc
    except spla.ArpackError as exc:
        raise SpectralConvergenceError(f"eigensolver failed: {exc}") from exc
    return float(vals[0])


def cheeger_of_set(adj: dict, M: set) -> Fraction:
    """Exact |boundary(M)| / |M| for a finite vertex set in a simple graph."""
    if not M:
        raise ValueError("M must be nonempty")
    boundary = 0
    for v in M:
        if any(u not in M for u in adj[v] if u != v):
            boundary += 1
    return Fraction(boundary, len(M))


_BRUTE_FORCE_CAP = 20


def cheeger_min_over_subsets(
    G: FiniteGraph, support: set[int] | None = None
) -> tuple[Fraction, frozenset[int]]:
    """Brute-force minimum of c(M) over nonempty M inside the support.

    Exponential in |support|; refuses more than 20 vertices.  Defaults to
    proper subsets of the whole vertex set.
    """
    verts = sorted(support) if support is not None else list(range(G.n))
    proper_only = support is None
    if len(verts) > _BRUTE_FORCE_CAP:
        raise ValueError(
            f"support of size {len(verts)} exceeds brute-force cap {_BRUTE_FORCE_CAP}"
        )
    largest = len(verts) - 1 if proper_only else len(verts)
    if largest < 1:
        kind = "proper subset" if proper_only else "subset"
        raise ValueError(f"empty search space: no nonempty {kind} of {len(verts)} vertices")
    adj = G.adjacency()
    best: tuple[Fraction, frozenset[int]] | None = None
    for tup in chain.from_iterable(combinations(verts, r) for r in range(1, largest + 1)):
        M = set(tup)
        c = cheeger_of_set(adj, M)
        if best is None or c < best[0]:
            best = (c, frozenset(M))
    return best


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of one Cheeger-sandwich verification."""

    cheeger: Fraction
    max_degree: int
    lower: float
    upper: float
    mu0: float
    ok_lower: bool
    ok_upper: bool
    witness: frozenset[int]

    @property
    def ok(self) -> bool:
        return self.ok_lower and self.ok_upper

    def describe(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return (
            f"c={self.cheeger} k={self.max_degree}: "
            f"{self.lower:.6g} <= mu0={self.mu0:.6g} <= {self.upper:.6g} [{status}]"
        )


def sandwich_bracket(c: Fraction | float, k: int) -> tuple[float, float]:
    """(c^2/(2k), k*c), the two-sided bound tied to the Cheeger constant."""
    cf = float(c)
    return cf * cf / (2 * k), k * cf


def cheeger_sandwich_check(G: FiniteGraph, support: set[int]) -> SandwichReport:
    """Check c_S^2/(2k) <= mu0(S) <= k*c_S for a Dirichlet support S.

    c_S is the exact minimum of c(M) over nonempty subsets of S (brute force,
    checked against the cap before mu0 is computed).  Both inequalities are
    theorems in this finite Dirichlet form, so a violation report means a
    bug, never expected behavior.
    """
    cheeger, witness = cheeger_min_over_subsets(G, support)
    mu0 = dirichlet_mu0(G, support)
    k = G.max_degree
    lower, upper = sandwich_bracket(cheeger, k)
    tol = 1e-9
    return SandwichReport(
        cheeger=cheeger,
        max_degree=k,
        lower=lower,
        upper=upper,
        mu0=mu0,
        ok_lower=mu0 >= lower - tol,
        ok_upper=mu0 <= upper + tol,
        witness=witness,
    )


def graph_ball(G: FiniteGraph, root: int, radius: int) -> set[int]:
    """Vertex set within the given hop distance of root, one CSR gather
    per BFS layer."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if type(root) is not int or not 0 <= root < G.n:  # a bool is no id
        raise ValueError(f"root {root} is not a vertex id of the {G.n}-vertex graph")
    indptr, indices = G.csr
    seen = np.zeros(G.n, dtype=bool)
    seen[root] = True
    layer = np.array([root], dtype=np.int64)
    for _ in range(radius):
        fresh = np.zeros(G.n, dtype=bool)
        fresh[indices[_ranges(indptr, layer)]] = True
        layer = np.flatnonzero(fresh & ~seen)
        if not layer.size:
            break
        seen[layer] = True
    return set(np.flatnonzero(seen).tolist())
