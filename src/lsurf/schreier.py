"""Orbit balls of the generator action and their component-shape certificates.

An orbit ball is a record of integers.  A vertex is its id, its position in
the BFS order.  The ball keeps each vertex's exact numerators (N; a, b, c, d)
as the key of one key-to-id dict, so deduplication is exact; the id where
each depth starts; each vertex's periodicity under both generators, as the
BFS found it; and the end of every edge, as an id, in one int array whose
positions give the edges' sources and generator powers.  Its simple view is
one cached ``spectral.FiniteGraph`` on the ids, which
``OrbitGraph.simple_adjacency`` keys by points, finding a point's id by its
numerators.  Points are built by the scalar step, for the few vertices that
a message names or a caller asks for, and all at once (``OrbitGraph.points``)
only to iterate or index that view and for the exports.  A ball of finite
radius can only certify the *local* structure a component is predicted to
have (4-valent tree, or the same tree with one loop at a singly periodic
root); the verdict is evidence about the infinite component, not a proof.

A ball grows one BFS level at a time, in one of two ways.  A level of at
least ``_SCALAR_IMAGES`` images that ``surface.lanes_fit`` admits runs on
int64 lanes of numerators over the shared N, an orbit invariant: one
``surface.twist_lanes`` call per generator letter steps every vertex by all
that letter's powers, and one ``surface.check_lanes`` call tests every
image for membership, the corners, the top edge and periodicity.  Every
other level steps through the scalar ``apply``, which is also the lanes'
oracle.  Every test is exact; a float only seeds the integer square root.
The images are looked up in the order of the vertex-by-vertex BFS on
``apply``, so the ball, its BFS order and the partial ball that the vertex
cap leaves are that BFS's; a large level is stepped, checked and looked up
``_CHUNK_VERTICES`` source vertices at a time.  ``classify_component`` reads
the record with numpy.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, cycle, groupby, islice, repeat
from math import inf
from operator import not_

import numpy as np

from .spectral import FiniteGraph, cheeger_of_set  # noqa: F401 (re-exported)
from .surface import (
    InternalError,
    SurfacePoint,
    SurfaceProto,
    apply,
    check_lanes,
    is_A_periodic,
    is_B_periodic,
    lanes_fit,
    s_value,
    thresholds,
    twist_lanes,
)

GenPower = tuple[str, int]
Key = tuple[int, int, int, int, int]

TREE4 = "Tree4"
ROOT_LOOPED4 = "RootLooped4"
OTHER = "Other"


class ResourceCapError(RuntimeError):
    """Exploration hit the vertex cap; .partial holds the partial ball."""

    def __init__(self, message: str, partial: "OrbitGraph" | None = None) -> None:
        super().__init__(message)
        self.partial = partial


def _gen_order(gens: list[GenPower] | tuple[GenPower, ...]) -> tuple[GenPower, ...]:
    # deterministic BFS: positive exponent before negative, A before B
    return tuple(sorted(gens, key=lambda ge: (ge[0], ge[1] < 0, abs(ge[1]))))


@dataclass(eq=False)
class OrbitGraph:
    """Finite labeled ball of the orbit graph, as integers; a vertex is its
    id, its position in the BFS order.

    ``ids`` maps the numerators (N, a, b, c, d) of every vertex to its id,
    and lists them in id order, the root (id 0) first.  The vertices at depth
    r are the ids from ``levels[r]`` up to ``levels[r + 1]``.  ``edges``
    holds the end of every edge as an id.  The expanded vertices are the
    first ``n_expanded`` ids, and the k-th of them has its ``len(gens)``
    out-edges, in ``gens`` order, at the k-th block of ``edges``: edge i
    leaves vertex ``i // len(gens)`` by ``gens[i % len(gens)]``.  The
    frontier of a complete ball is the rest of the ids; a partial ball, cut
    by the vertex cap, has none, and its last block stops at the edge where
    the cap fired.  ``periodic`` holds an int8 per vertex, by id: 1 if the
    vertex is A-periodic, plus 2 if it is B-periodic.  ``simple_graph()``
    builds the simple view on the ids once, on the first request, and
    ``simple_adjacency()`` keys it by points.  ``points()`` builds the
    vertices as points once, on the first request, for the exports and to
    iterate or index the point-keyed view, whose id map needs none.
    """

    proto: SurfaceProto
    gens: tuple[GenPower, ...]
    root: SurfacePoint
    ids: dict[Key, int] = field(default_factory=dict)
    levels: list[int] = field(default_factory=list)
    edges: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    periodic: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    n_expanded: int = 0
    g2: bool = False
    N: int | None = None
    partial: bool = False
    _points: list[SurfacePoint] | None = field(default=None, init=False, repr=False)
    _simple: FiniteGraph | None = field(default=None, init=False, repr=False)

    def order(self) -> int:
        return len(self.ids)

    def depths(self) -> list[int]:
        """The depth of every vertex, by id."""
        return np.repeat(np.arange(len(self.levels) - 1), np.diff(self.levels)).tolist()

    def points(self) -> list[SurfacePoint]:
        """The vertices as points, by id, the root's own instance first;
        built on the first call."""
        if self._points is None:
            rest = islice(self.ids, 1, None)
            self._points = [self.root, *map(SurfacePoint._from_checked, repeat(self.proto), rest)]
        return self._points

    def point(self, i: int) -> SurfacePoint:
        """Vertex i as a point: the root, the i-th of ``points()`` once they
        are built, or else built alone."""
        if i == 0:
            return self.root
        if self._points is not None:
            return self._points[i]
        return SurfacePoint._from_checked(self.proto, next(islice(self.ids, i, None)))

    def edge_triples(self):
        """(source, end, generator power) of every edge, in order, as ids."""
        n_gens = len(self.gens)
        ends = zip(self.edges.tolist(), cycle(self.gens))
        return ((i // n_gens, v, g) for i, (v, g) in enumerate(ends))

    def simple_graph(self) -> FiniteGraph:
        """Undirected simple view on the ids, loops and edge multiplicities
        dropped; built on the first call."""
        if self._simple is None:
            src = np.arange(self.edges.size) // len(self.gens)
            self._simple = FiniteGraph._build(self.order(), src, self.edges)
        return self._simple

    def simple_adjacency(self) -> PointView:
        """The simple view on the points, read-only, over ``simple_graph()``:
        root first, each neighbour listed once, in ascending id order.
        ``FiniteGraph.from_adjacency`` hands back the cached graph and a
        point -> id map that builds no point."""
        return PointView(self, neighbours=True)

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "lsurf-graph-v1",
            "surface": self.proto.name,
            "root": 0,
            "g2": self.g2,
            "N": self.N,
            "gens": [[g, e] for g, e in self.gens],
            "vertices": [
                {
                    "id": n,
                    "point": str(v),
                    "depth": d,
                    "s": str(s_value(v)),
                    "frontier": not self.partial and n >= self.n_expanded,
                }
                for n, (v, d) in enumerate(zip(self.points(), self.depths()))
            ],
            "edges": [
                {"src": u, "dst": v, "gen": g, "exp": e}
                for u, v, (g, e) in self.edge_triples()
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph orbitball {"]
        for n, v in enumerate(self.points()):
            shape = "doublecircle" if n == 0 else "circle"
            lines.append(f'  v{n} [label="{v}", shape={shape}];')
        for u, v, (g, e) in self.edge_triples():
            lines.append(f'  v{u} -- v{v} [label="{g}^{e}"];')
        lines.append("}")
        return "\n".join(lines)


class PointView(Mapping):
    """An orbit ball read as a mapping on its vertices as points, read-only:
    to each vertex's id or, with ``neighbours``, to the points of its
    distinct neighbours in the simple view, ascending by id.  A point is
    found by its numerators in ``ball.ids``, building no point; a non-point
    or a point of another prototype is no key.  Iterating lists
    ``ball.points()``."""

    __slots__ = ("ball", "neighbours")

    def __init__(self, ball: OrbitGraph, neighbours: bool = False) -> None:
        self.ball, self.neighbours = ball, neighbours

    def _id(self, P) -> int | None:
        ball = self.ball
        if isinstance(P, SurfacePoint) and (P.proto is ball.proto or P.proto == ball.proto):
            return ball.ids.get((P.N, P.a, P.b, P.c, P.d))
        return None

    def __getitem__(self, P):
        i = self._id(P)
        if i is None:
            raise KeyError(P)
        if not self.neighbours:
            return i
        indptr, indices = self.ball.simple_graph().csr
        return list(map(self.ball.points().__getitem__, indices[indptr[i] : indptr[i + 1]].tolist()))

    def __contains__(self, P) -> bool:
        return self._id(P) is not None

    def __iter__(self) -> Iterator[SurfacePoint]:
        return iter(self.ball.points())

    def __len__(self) -> int:
        return len(self.ball.ids)

    def labelled(self) -> tuple[FiniteGraph, PointView]:
        """The ball's simple graph and its point -> id map, which
        ``FiniteGraph.from_adjacency`` returns as they are."""
        return self.ball.simple_graph(), PointView(self.ball)


def _flags(P: SurfacePoint) -> int:
    """Periodicity flags of a point: 1 if A-periodic, plus 2 if B-periodic."""
    return is_A_periodic(P) + 2 * is_B_periodic(P)


def _level_images(
    proto: SurfaceProto, gens: tuple[GenPower, ...], N: int, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Numerators (a, b, c, d) of every image of the int64 (4, vertices)
    lanes ``level`` of BFS vertices, as a (4, lanes) array in the order vertex
    by vertex, ``gens`` order within a vertex, and every image's periodicity
    flags, as ``_flags`` gives them (the module docstring has the calls).
    """
    n_v = level.shape[1]
    images = np.empty((4, n_v, len(gens)), dtype=level.dtype)
    col = 0
    for gen, powers in groupby(gens, key=lambda ge: ge[0]):
        exps = np.array([e for _, e in powers], dtype=level.dtype)
        k = len(exps)
        lanes = np.repeat(level, k, axis=1)  # lane i*k + j: vertex i, power j
        a, b, c, d = lanes
        n = np.tile(exps, n_v)
        if gen == "A":
            lanes[2], lanes[3] = twist_lanes(proto, gen, N, a, b, c, d, n)
        else:
            lanes[0], lanes[1] = twist_lanes(proto, gen, N, c, d, a, b, n)
        images[:, :, col : col + k] = lanes.reshape(4, n_v, k)
        col += k
    images = images.reshape(4, -1)
    images[2], on_A, on_B = check_lanes(proto, N, *images)
    return images, on_A + 2 * on_B.astype(np.int8)


def _int64_lanes(proto: SurfaceProto, keys: list[Key], E: int) -> np.ndarray | None:
    """The numerators (a, b, c, d) of keys (N, a, b, c, d) over one N as an
    int64 (4, keys) array, if ``lanes_fit`` admits them at exponents below E."""
    try:
        rows = np.fromiter(chain.from_iterable(keys), np.int64, 5 * len(keys)).reshape(-1, 5)
    except OverflowError:
        return None
    if lanes_fit(proto, max(int(rows.max()), -int(rows.min())), E):
        return rows[:, 1:].T
    return None


# a level with fewer images than this steps them one by one through the
# scalar ``apply``: the array kernel costs about 0.35 ms per level whatever
# its size, about what 40 scalar steps cost
_SCALAR_IMAGES = 40
# a level's images are stepped, checked and looked up this many source
# vertices at a time, so neither their lane temporaries nor their Python key
# tuples are ever all alive at once
_CHUNK_VERTICES = 4096


def _bfs(ball: OrbitGraph, radius: int, max_vertices: int) -> OrbitGraph:
    """Fill ``ball`` breadth-first from its root out to the radius, one level
    at a time; vertices are deduplicated by exact numerators, and each new
    one's periodicity flags are recorded.  A pruned (g2) ball must never
    reach a vertex periodic under both generators.

    The images of a level are looked up by their (N, a, b, c, d) key in the
    order of the vertex-by-vertex BFS, and each new one takes the next id.
    Points are built only by the scalar ``apply``, and for a level that steps
    through it after a level on lanes.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    proto, gens, P = ball.proto, ball.gens, ball.root
    N, n_gens = P.N, len(gens)
    E = max(abs(e) for _, e in gens)
    flags = [np.array([_flags(P)], dtype=np.int8)]  # per chunk of new vertices
    if ball.g2 and flags[0][0] == 3:
        raise InternalError(f"pruned vertex {P.key} as the start")
    ids, levels, dst = ball.ids, ball.levels, []
    level_keys = [(N, P.a, P.b, P.c, P.d)]
    ids[level_keys[0]] = 0
    levels += [0, 1]
    level_points = [P]  # the level as points, after a scalar level
    level = None  # the level as int64 lanes, after a lane level
    for _ in range(radius):
        if not level_keys:
            break
        if len(level_keys) * n_gens < _SCALAR_IMAGES:
            level = None
        elif level is None or not lanes_fit(proto, max(N, int(np.abs(level).max())), E):
            level = _int64_lanes(proto, level_keys, E)
        if level is None:
            if level_points is None:
                level_points = [SurfacePoint._from_checked(proto, key) for key in level_keys]
            points = [apply(Q, gen, e) for Q in level_points for gen, e in gens]
        new_keys, new_images, new_points = [], [], []
        for first in range(0, len(level_keys), _CHUNK_VERTICES):
            lo, hi = first * n_gens, (first + _CHUNK_VERTICES) * n_gens
            if level is not None:
                images, image_flags = _level_images(proto, gens, N, level[:, first : first + _CHUNK_VERTICES])
                keys = list(zip(repeat(N), *(row.tolist() for row in images)))
            else:
                keys = [(Q.N, Q.a, Q.b, Q.c, Q.d) for Q in points[lo:hi]]
            unknown = list(compress(count(), map(not_, map(ids.__contains__, keys))))
            # each new key's first lane, where the vertex-by-vertex BFS meets
            # it; in the reversed pairs the first lane is written last
            first_lane = dict(zip(map(keys.__getitem__, reversed(unknown)), reversed(unknown)))
            fresh = sorted(first_lane.values())
            if level is not None:
                fresh_flags = image_flags[fresh]
            else:
                fresh_flags = np.array([_flags(points[lo + lane]) for lane in fresh], dtype=np.int8)
            # a pruned point is fixed by these powers, which are invertible,
            # so only a pruned start could lead to one
            bad = np.flatnonzero(fresh_flags == 3).tolist() if ball.g2 else []
            n_new = min(bad[0] if bad else len(fresh), max(max_vertices - len(ids), 0))
            ids.update(zip(map(keys.__getitem__, fresh[:n_new]), count(len(ids))))
            flags.append(fresh_flags[:n_new])
            if n_new < len(fresh):
                # leave the ball as the vertex-by-vertex BFS does at this lane
                lane = fresh[n_new]
                dst += map(ids.__getitem__, keys[:lane])
                ball.edges, ball.periodic = np.array(dst, dtype=np.int64), np.concatenate(flags)
                ball.n_expanded += first + lane // n_gens
                levels.append(len(ids))
                if bad and bad[0] == n_new:
                    source = SurfacePoint._from_checked(proto, level_keys[first + lane // n_gens])
                    raise InternalError(f"pruned vertex reached from {source.key}")
                ball.partial = True
                raise ResourceCapError(f"ball exceeded {max_vertices} vertices", partial=ball)
            dst += map(ids.__getitem__, keys)
            new_keys += map(keys.__getitem__, fresh)
            if level is not None:
                new_images.append(images[:, fresh])
            else:
                new_points += [points[lo + lane] for lane in fresh]
        ball.n_expanded += len(level_keys)
        levels.append(len(ids))
        level_keys = new_keys
        if level is not None:
            level, level_points = np.concatenate(new_images, axis=1), None
        else:
            level_points = new_points
    ball.edges, ball.periodic = np.array(dst, dtype=np.int64), np.concatenate(flags)
    return ball


def expand_ball(
    P: SurfacePoint,
    gens: list[GenPower] | tuple[GenPower, ...],
    radius: int,
    max_vertices: int = 200_000,
) -> OrbitGraph:
    """BFS ball of the given radius; vertices deduplicated by exact coordinates."""
    if not gens:
        raise ValueError("at least one generator power is needed")
    for gen, exp in gens:
        if gen not in ("A", "B"):
            raise ValueError(f"unknown generator {gen!r}")
        if exp == 0:
            raise ValueError("generator exponents must be nonzero")
    ball = OrbitGraph(proto=P.proto, gens=_gen_order(gens), root=P)
    return _bfs(ball, radius, max_vertices)


def find_non_excluded_start(P: SurfacePoint) -> SurfacePoint:
    """Nearest orbit point not periodic under both generators (single steps)."""
    if _flags(P) != 3:
        return P
    # the survivor is almost always near P, so grow the ball one radius at a
    # time; a smaller ball's BFS order is a prefix of the larger one's
    checked = 1  # P itself
    for radius in range(1, 5):
        ball = expand_ball(P, (("A", 1), ("A", -1), ("B", 1), ("B", -1)), radius)
        kept = np.flatnonzero(ball.periodic[checked:] != 3)  # the new sphere, in BFS order
        if kept.size:
            return ball.point(checked + int(kept[0]))
        if ball.n_expanded == ball.order():
            break  # no vertex at this radius: the ball is the whole orbit
        checked = ball.order()
    raise ValueError(
        "no vertex survives the pruning near this start: the whole orbit "
        "neighborhood is periodic under both generators"
    )


def build_G2(P: SurfacePoint, radius: int = 3, max_vertices: int = 200_000) -> OrbitGraph:
    """Ball of the pruned graph: only the four chosen generator powers as
    edges, vertices periodic under both generators removed.

    The exponents are the smallest multiples of N beyond the growth
    thresholds, so same-generator edges at singly periodic points close into
    loops.  Starts from the nearest non-excluded vertex if P itself is pruned.
    """
    P = find_non_excluded_start(P)
    th = thresholds(P.proto, P.N)
    gens: tuple[GenPower, ...] = (("A", th.k), ("A", -th.k), ("B", th.l), ("B", -th.l))
    ball = OrbitGraph(proto=P.proto, gens=_gen_order(gens), root=P, g2=True, N=P.N)
    return _bfs(ball, radius, max_vertices)


@dataclass
class ComponentShape:
    """Classification verdict for an explored pruned-graph ball."""

    kind: str
    witness: OrbitGraph
    violations: list[str]
    loop_vertex: SurfacePoint | None = None


def classify_component(ball: OrbitGraph) -> ComponentShape:
    """Certify the ball as a 4-valent-tree or root-looped-tree fragment.

    Checks, on the explored ball: loops occur exactly at a singly periodic
    vertex (all its same-generator edges), the simple view is acyclic with
    interior valency 4, non-loop neighbors of a periodic vertex have strictly
    larger complexity, and every non-periodic vertex has at most one
    non-increasing neighbor (so any non-backtracking path increases strictly
    once it stops decreasing).  Any failure is reported as Other with the
    explicit violations.  Reads the ball's id record with numpy (see
    ``OrbitGraph``): each expanded vertex's out-edges as its block of
    ``edges``, the periodicity flags the BFS recorded, and the simple view's
    edge count from ``simple_graph()``; points are built for the looped
    vertex and the vertices a violation names.
    """
    n_exp, n_gens, n = ball.n_expanded, len(ball.gens), ball.order()
    if n_exp == 0:
        raise ValueError("the ball has no expanded vertex to classify: radius must be >= 1")
    dst = ball.edges
    # a BFS appends a vertex's edges together, only the vertex cap cuts a
    # block, and the ids number the vertices in the order their first edge
    # reaches them, so a shifted, cut or extra edge shows
    cut = dst.size - n_exp * n_gens
    reached = np.maximum.accumulate(np.concatenate(([0], dst[:-1])))
    if not ((cut == 0 or ball.partial and 0 < cut < n_gens)
            and (dst <= reached + 1).all() and dst.max() == n - 1):
        raise InternalError(f"edges of the ball are not blocks of its {n_exp} expanded vertices")
    keys = list(ball.ids)
    lanes = _int64_lanes(ball.proto, keys, 0)
    # N * s_value, exact at any N; the ball shares N
    if lanes is not None:
        s = np.abs(lanes[1]) + np.abs(lanes[3])
    else:
        s = np.array([abs(b) + abs(d) for _, _, b, _, d in keys], dtype=object)

    def named(v: int) -> tuple[Fraction, ...]:
        # violations name vertices by their Fraction coordinate quadruple
        return SurfacePoint._from_checked(ball.proto, keys[v]).key

    violations: list[str] = []
    loops: dict[int, list[GenPower]] = {}
    for i in np.flatnonzero(dst == np.arange(dst.size) // n_gens).tolist():
        loops.setdefault(i // n_gens, []).append(ball.gens[i % n_gens])
    if len(loops) > 1:
        violations.append(f"{len(loops)} looped vertices: {sorted(map(named, loops))[:2]}...")
    loop_vertex = None
    for v, gens_at_v in loops.items():
        loop_vertex = v
        expected = {1: "A", 2: "B"}.get(int(ball.periodic[v]))  # singly periodic
        if expected is None:
            violations.append(f"loop at a vertex periodic under neither/both: {named(v)}")
        elif any(g != expected for g, _ in gens_at_v):
            violations.append(f"loop labels {gens_at_v} at {named(v)} not all {expected}")

    # acyclicity of the simple view (ball is connected by construction)
    n_edges = ball.simple_graph().csr[1].size // 2
    if n_edges != n - 1:
        violations.append(f"simple view has {n_edges} edges on {n} vertices")

    blocks = dst[: n_exp * n_gens].reshape(n_exp, n_gens)
    own = blocks == np.arange(n_exp)[:, None]
    looped = own.any(axis=1)
    ends = np.sort(np.where(own, -1, blocks), axis=1)  # loops first, as -1
    distinct = ends >= 0
    distinct[:, 1:] &= ends[:, 1:] != ends[:, :-1]
    n_distinct = distinct.sum(axis=1)
    parallel = n_distinct != (~own).sum(axis=1)
    singly = (ball.periodic[:n_exp] == 1) | (ball.periodic[:n_exp] == 2)
    misses = singly & ~looped & ball.g2
    want = np.where(looped, 2, 4)
    n_lower = (distinct & (s[ends] <= s[:n_exp, None])).sum(axis=1)
    non_growing = n_lower > np.where(looped, 0, 1)
    flagged = np.flatnonzero(parallel | misses | (n_distinct != want) | non_growing)
    for k in flagged.tolist():
        key = named(k)
        if parallel[k]:
            violations.append(f"parallel edges at {key}")
        if misses[k]:
            violations.append(f"singly periodic vertex {key} misses its loop")
        if n_distinct[k] != want[k]:
            violations.append(f"vertex {key} has {n_distinct[k]} distinct neighbors, wanted {want[k]}")
        if non_growing[k]:
            if looped[k]:
                violations.append(f"periodic vertex {key} has non-growing neighbors")
            else:
                violations.append(f"{n_lower[k]} non-growing neighbors at {key}")

    loop_point = None if loop_vertex is None else ball.point(loop_vertex)
    if violations:
        return ComponentShape(OTHER, ball, violations, loop_point)
    if loops:
        return ComponentShape(ROOT_LOOPED4, ball, [], loop_point)
    return ComponentShape(TREE4, ball, [])


def root_paths_strictly_increasing(ball: OrbitGraph) -> bool:
    """True iff the complexity grows strictly along every tree edge away from
    the root (equivalently along every non-backtracking root path in a tree
    ball).  Holds whenever the root is the component's periodic vertex."""
    depth = ball.depths()
    parent: dict[int, int] = {}
    for u, v, _ in ball.edge_triples():
        if u != v and v not in parent and depth[v] == depth[u] + 1:
            parent[v] = u
    # N * s_value; the ball shares N
    s = [abs(b) + abs(d) for _, _, b, _, d in ball.ids]
    return all(s[v] > s[p] for v, p in parent.items())


# -- Cheeger utilities -------------------------------------------------------


def tree_cheeger_profile(k: int, n_max: int) -> list[Fraction]:
    """c(B_n) for balls in the 2k-regular tree, n = 1..n_max, closed form.

    |B_n| = 1 + 2k((2k-1)^n - 1)/(2k-2) and the boundary is the outer sphere
    of 2k(2k-1)^(n-1) vertices; the sequence decreases to (2k-2)/(2k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    q = 2 * k - 1
    for n in range(1, n_max + 1):
        size = 1 + 2 * k * (q**n - 1) // (q - 1) if q > 1 else 1 + 2 * n
        sphere = 2 * k * q ** (n - 1)
        out.append(Fraction(sphere, size))
    return out


def _tree(root_children: int, children: int, depth: int) -> tuple[dict[int, set[int]], dict[int, int]]:
    """Adjacency and vertex depths of a tree truncated at the given depth:
    root 0 with root_children children, every other vertex with children."""
    adj: dict[int, set[int]] = {0: set()}
    depths = {0: 0}
    level = [0]
    for d in range(depth):
        new_level = []
        for v in level:
            for _ in range(root_children if v == 0 else children):
                u = len(adj)
                adj[u] = {v}
                adj[v].add(u)
                depths[u] = d + 1
                new_level.append(u)
        level = new_level
    return adj, depths


def build_regular_tree_ball(degree: int, radius: int) -> tuple[dict[int, set[int]], int]:
    """Adjacency of the radius-r ball in the infinite degree-d tree; root 0."""
    return _tree(degree, degree - 1, radius)[0], 0


def build_root_looped_tree(depth: int) -> tuple[dict[int, set[int]], int, dict[int, int]]:
    """Truncated root-looped 4-valent tree: root with a loop and 2 children,
    every other vertex with 3 children, down to the given depth.

    The loop is kept out of the adjacency (it never affects boundaries).
    Returns (adjacency, root, depth_of_vertex).
    """
    adj, depths = _tree(2, 3, depth)
    return adj, 0, depths


def _rooted_costs(child: list[float], n_children: int) -> list[float]:
    """cost[m] = min boundary count of an m-vertex connected subset rooted at
    a vertex with n_children children, each child's subtree costing child[.].

    Knapsack over the children: best[s] is the min cost of filling the
    children taken so far with s vertices in total.  The vertex is interior
    iff all its children are included.
    """
    size = len(child)
    cost = [inf] * size
    best = [0] + [inf] * (size - 1)
    for c in range(n_children + 1):
        if c:
            best = [min([child[m] + best[s - m] for m in range(1, s + 1)], default=inf)
                    for s in range(size)]
        for m in range(1, size):
            cost[m] = min(cost[m], (c < n_children) + best[m - 1])
    return cost


def min_cheeger_root_subsets(max_size: int, depth: int) -> Fraction:
    """Exact minimum of c(M) over connected root-containing subsets of the
    root-looped tree with |M| <= max_size and vertices within the given depth.

    Tree dynamic program over (remaining depth, subset size): a vertex is
    interior iff all its children in the infinite tree are included, so the
    optimum per size is the minimal count of vertices with a missing child.
    Exhausts the same search space as literal enumeration, exactly.
    """
    if max_size < 1 or depth < 0:
        raise ValueError(
            f"empty search space: no root subset with max_size={max_size}, depth={depth}"
        )
    # a vertex below the allowed depth can never be included
    child = [inf] * (max_size + 1)
    for _ in range(depth):
        child = _rooted_costs(child, 3)
    # root: 2 children (plus a loop, which never contributes boundary)
    root = _rooted_costs(child, 2)
    return min(Fraction(root[m], m) for m in range(1, max_size + 1) if root[m] < inf)


def enumerate_root_subsets(
    adj: dict[int, set[int]], root: int, allowed: set[int], max_size: int
):
    """All connected subsets containing root within `allowed`, up to max_size.

    Breadth-first growth with frozenset deduplication; exponential, meant for
    cross-checking the DP at small sizes.
    """
    start = frozenset({root})
    seen = {start}
    frontier = [start]
    while frontier:
        grown: list[frozenset[int]] = []
        for S in frontier:
            yield S
            if len(S) >= max_size:
                continue
            for v in S:
                for u in adj[v]:
                    if u in allowed and u not in S:
                        T = S | {u}
                        if T not in seen:
                            seen.add(T)
                            grown.append(T)
        frontier = grown
