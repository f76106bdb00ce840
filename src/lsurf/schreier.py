"""Orbit balls of the generator action and their component-shape certificates.

Vertices are the canonical surface points themselves, hashed and compared
by their integer numerators (N; a, b, c, d), so deduplication is exact.  A
ball of finite radius can only certify the *local* structure a component is
predicted to have (4-valent tree, or the same tree with one loop at a singly
periodic root); the verdict is evidence about the infinite component, not a
proof.

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
cap leaves are that BFS's; a large level is looked up ``_CHUNK_VERTICES``
source vertices at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, cycle, groupby, islice, repeat
from math import inf

import numpy as np

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


@dataclass
class OrbitGraph:
    """Finite labeled ball of the orbit graph; ``depth`` lists its vertices in BFS order.

    Both ends of every edge are the instances stored in ``depth`` (``_bfs``
    records a known vertex, not the equal image it just built), so code
    reading a ball may compare vertices by identity.  The expanded vertices
    are the first ``n_expanded`` ones in ``depth``, and the k-th of them has
    its ``len(gens)`` out-edges, in ``gens`` order, at the k-th block of
    ``edges``.  The frontier of a complete ball is the rest of ``depth``; a
    partial ball, cut by the vertex cap, has none.
    """

    proto: SurfaceProto
    gens: tuple[GenPower, ...]
    root: SurfacePoint
    depth: dict[SurfacePoint, int] = field(default_factory=dict)
    edges: list[tuple[SurfacePoint, SurfacePoint, GenPower]] = field(default_factory=list)
    n_expanded: int = 0
    g2: bool = False
    N: int | None = None
    partial: bool = False

    def order(self) -> int:
        return len(self.depth)

    def simple_adjacency(self) -> dict[SurfacePoint, set[SurfacePoint]]:
        """Undirected simple view: loops and edge multiplicities dropped."""
        adj: dict[SurfacePoint, set[SurfacePoint]] = {v: set() for v in self.depth}
        for u, v, _ in self.edges:
            if u is not v:
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def loop_vertices(self) -> dict[SurfacePoint, list[GenPower]]:
        loops: dict[SurfacePoint, list[GenPower]] = {}
        for u, v, g in self.edges:
            if u is v:
                loops.setdefault(u, []).append(g)
        return loops

    def s_of(self, v: SurfacePoint) -> Fraction:
        return s_value(v)

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        ids = {v: n for n, v in enumerate(self.depth)}
        return {
            "schema": "lsurf-graph-v1",
            "surface": self.proto.name,
            "root": ids[self.root],
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
                for n, (v, d) in enumerate(self.depth.items())
            ],
            "edges": [
                {"src": ids[u], "dst": ids[v], "gen": g, "exp": e}
                for u, v, (g, e) in self.edges
            ],
        }

    def to_dot(self) -> str:
        ids = {v: n for n, v in enumerate(self.depth)}
        lines = ["graph orbitball {"]
        for v, n in ids.items():
            shape = "doublecircle" if v == self.root else "circle"
            lines.append(f'  v{n} [label="{v}", shape={shape}];')
        for u, v, (g, e) in self.edges:
            lines.append(f'  v{ids[u]} -- v{ids[v]} [label="{g}^{e}"];')
        lines.append("}")
        return "\n".join(lines)


def _jointly_periodic(P: SurfacePoint) -> bool:
    return is_A_periodic(P) and is_B_periodic(P)


def _level_images(
    proto: SurfaceProto, gens: tuple[GenPower, ...], N: int, level: np.ndarray
) -> tuple[np.ndarray, list[bool]]:
    """Numerators (a, b, c, d) of every image of one BFS level, from its int64
    (4, vertices) lanes ``level``, as a (4, lanes) array in the order vertex
    by vertex, ``gens`` order within a vertex, and per lane whether the image
    is periodic under both generators (the module docstring has the calls).
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
    return images, (on_A & on_B).tolist()


def _int64_lanes(points: list[SurfacePoint], E: int) -> np.ndarray | None:
    """The numerators (a, b, c, d) of points over one N as an int64
    (4, points) array, if ``lanes_fit`` admits them at exponents below E."""
    proto, N = points[0].proto, points[0].N
    rows = [(P.a, P.b, P.c, P.d) for P in points]
    if lanes_fit(proto, max(N, *map(abs, chain.from_iterable(rows))), E):
        return np.array(rows, dtype=np.int64).T
    return None


# a level with fewer images than this steps them one by one through the
# scalar ``apply``: the array kernel costs about 0.35 ms per level whatever
# its size, about what 40 scalar steps cost
_SCALAR_IMAGES = 40
# a level's images are looked up this many source vertices at a time, so
# their Python key tuples are never all alive at once
_CHUNK_VERTICES = 4096


def _bfs(ball: OrbitGraph, P: SurfacePoint, radius: int, max_vertices: int) -> OrbitGraph:
    """Fill ``ball`` breadth-first from P out to the radius, one level at a
    time; vertices are deduplicated by exact numerators.  A pruned (g2) ball
    must never reach a vertex periodic under both generators.

    The images of a level are looked up by their plain (N, a, b, c, d) tuple
    in the order of the vertex-by-vertex BFS, and only the new ones become
    points.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    proto, gens, N = ball.proto, ball.gens, P.N
    n_gens = len(gens)
    E = max((abs(e) for _, e in gens), default=0)
    if ball.g2 and _jointly_periodic(P):
        raise InternalError(f"pruned vertex {P.key} as the start")
    level_points = [P]
    level = None  # the level's numerators as int64 lanes, after a lane level
    ball.depth[P] = 0
    # edges hold the stored instance of a known vertex, so later lookups hit
    # the identity fast path
    stored = {(N, P.a, P.b, P.c, P.d): P}
    for d in range(radius):
        if not level_points:
            break
        images = None
        if len(level_points) * n_gens >= _SCALAR_IMAGES:
            if level is None or not lanes_fit(proto, max(N, int(np.abs(level).max())), E):
                level = _int64_lanes(level_points, E)
            if level is not None:
                images, pruned = _level_images(proto, gens, N, level)
        if images is None:
            points = [apply(point, gen, e) for point in level_points for gen, e in gens]
        new_points, new_lanes = [], []
        for first in range(0, len(level_points), _CHUNK_VERTICES):
            sources = [Q for Q in level_points[first : first + _CHUNK_VERTICES] for _ in gens]
            lo, hi = first * n_gens, first * n_gens + len(sources)
            if images is not None:
                keys = list(zip(repeat(N), *(row.tolist() for row in images[:, lo:hi])))
            else:
                keys = [(Q.N, Q.a, Q.b, Q.c, Q.d) for Q in points[lo:hi]]
            known = list(map(stored.get, keys))
            for lane in [lane for lane, v in enumerate(known) if v is None]:
                key = keys[lane]
                v = stored.get(key)  # an earlier lane of this level may have added it
                if v is None:
                    # a pruned point is fixed by these powers, which are
                    # invertible, so only a pruned start could lead to one
                    bad = ball.g2 and (
                        pruned[lo + lane] if images is not None else _jointly_periodic(points[lo + lane])
                    )
                    if bad or len(ball.depth) >= max_vertices:
                        # leave the ball as the vertex-by-vertex BFS does at this lane
                        ball.edges.extend(islice(zip(sources, known, cycle(gens)), lane))
                        ball.n_expanded += first + lane // n_gens
                        if bad:
                            raise InternalError(f"pruned vertex reached from {sources[lane].key}")
                        ball.partial = True
                        raise ResourceCapError(f"ball exceeded {max_vertices} vertices", partial=ball)
                    if images is not None:
                        # share the source's unmoved pair, as a scalar step does
                        src = sources[lane]
                        if key[1] == src.a and key[2] == src.b:
                            key = (N, src.a, src.b, key[3], key[4])
                        elif key[3] == src.c and key[4] == src.d:
                            key = (N, key[1], key[2], src.c, src.d)
                        v = SurfacePoint._from_checked(proto, key)
                        new_lanes.append(lo + lane)
                    else:
                        v = points[lo + lane]
                    stored[key] = v
                    ball.depth[v] = d + 1
                    new_points.append(v)
                known[lane] = v
            ball.edges.extend(zip(sources, known, cycle(gens)))
        ball.n_expanded += len(level_points)
        level_points = new_points
        level = None if images is None else images[:, new_lanes]
    return ball


def expand_ball(
    P: SurfacePoint,
    gens: list[GenPower] | tuple[GenPower, ...],
    radius: int,
    max_vertices: int = 200_000,
) -> OrbitGraph:
    """BFS ball of the given radius; vertices deduplicated by exact coordinates."""
    for gen, exp in gens:
        if gen not in ("A", "B"):
            raise ValueError(f"unknown generator {gen!r}")
        if exp == 0:
            raise ValueError("generator exponents must be nonzero")
    ball = OrbitGraph(proto=P.proto, gens=_gen_order(gens), root=P)
    return _bfs(ball, P, radius, max_vertices)


def find_non_excluded_start(P: SurfacePoint) -> SurfacePoint:
    """Nearest orbit point not periodic under both generators (single steps)."""
    if not _jointly_periodic(P):
        return P
    # the survivor is almost always near P, so grow the ball one radius at a
    # time; a smaller ball's BFS order is a prefix of the larger one's
    checked = 1  # P itself
    for radius in range(1, 5):
        ball = expand_ball(P, (("A", 1), ("A", -1), ("B", 1), ("B", -1)), radius)
        for Q in islice(ball.depth, checked, None):  # the new sphere, in BFS order
            if not _jointly_periodic(Q):
                return Q
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
    return _bfs(ball, P, radius, max_vertices)


@dataclass
class ComponentShape:
    """Classification verdict for an explored pruned-graph ball."""

    kind: str
    witness: OrbitGraph
    violations: list[str]
    loop_vertex: SurfacePoint | None = None


def _expected_loops(points: list[SurfacePoint]) -> list[str | None]:
    """Per point of one orbit, the generator whose chosen power fixes it, if
    exactly one does: both periodicity tests in one ``check_lanes`` call on
    int64 lanes, or per point where a ``_bfs`` level of as many images would
    step through ``apply``."""
    lanes = _int64_lanes(points, 0) if points and len(points) >= _SCALAR_IMAGES else None
    if lanes is not None:
        _, on_A, on_B = check_lanes(points[0].proto, points[0].N, *lanes)
        flags = zip(on_A.tolist(), on_B.tolist())
    else:
        flags = ((is_A_periodic(P), is_B_periodic(P)) for P in points)
    return [None if pa == pb else "A" if pa else "B" for pa, pb in flags]


def classify_component(ball: OrbitGraph) -> ComponentShape:
    """Certify the ball as a 4-valent-tree or root-looped-tree fragment.

    Checks, on the explored ball: loops occur exactly at a singly periodic
    vertex (all its same-generator edges), the simple view is acyclic with
    interior valency 4, non-loop neighbors of a periodic vertex have strictly
    larger complexity, and every non-periodic vertex has at most one
    non-increasing neighbor (so any non-backtracking path increases strictly
    once it stops decreasing).  Any failure is reported as Other with the
    explicit violations.  Reads each expanded vertex's out-edges as its
    block of ``edges`` (see ``OrbitGraph``).
    """
    if ball.n_expanded == 0:
        raise ValueError("the ball has no expanded vertex to classify: radius must be >= 1")
    violations: list[str] = []
    loops = ball.loop_vertices()
    loop_vertex: SurfacePoint | None = None

    # violations name vertices by their Fraction coordinate quadruple
    if len(loops) > 1:
        violations.append(f"{len(loops)} looped vertices: {sorted(v.key for v in loops)[:2]}...")
    for (v, gens_at_v), expected in zip(loops.items(), _expected_loops(list(loops))):
        loop_vertex = v
        if expected is None:
            violations.append(f"loop at a vertex periodic under neither/both: {v.key}")
        elif any(g != expected for g, _ in gens_at_v):
            violations.append(f"loop labels {gens_at_v} at {v.key} not all {expected}")

    # acyclicity of the simple view (ball is connected by construction): its
    # edges are the distinct non-loop pairs, keyed by identity (no point hashed)
    n_edges = len({
        (id(u), id(v)) if id(u) < id(v) else (id(v), id(u))
        for u, v, _ in ball.edges
        if u is not v
    })
    if n_edges != ball.order() - 1:
        violations.append(f"simple view has {n_edges} edges on {ball.order()} vertices")

    expanded = list(islice(ball.depth, ball.n_expanded))
    expected_loops = _expected_loops(expanded) if ball.g2 else [None] * len(expanded)
    loop_ids = {id(v) for v in loops}
    n_gens = len(ball.gens)
    for k, (point, expected) in enumerate(zip(expanded, expected_loops)):
        block = ball.edges[k * n_gens : (k + 1) * n_gens]
        # a BFS appends a vertex's edges together, so a shifted or cut
        # block shows at one of its ends
        if len(block) != n_gens or block[0][0] is not point or block[-1][0] is not point:
            raise InternalError(f"edges of {point.key} are not block {k} of the ball's edges")
        non_loop = [v for _, v, _ in block if v is not point]
        distinct = {id(v): v for v in non_loop}  # edge ends are the stored vertices
        if len(distinct) != len(non_loop):
            violations.append(f"parallel edges at {point.key}")
        looped = id(point) in loop_ids
        if not looped and expected is not None:
            violations.append(f"singly periodic vertex {point.key} misses its loop")
        want_degree = 2 if looped else 4
        if len(distinct) != want_degree:
            violations.append(
                f"vertex {point.key} has {len(distinct)} distinct neighbors, wanted {want_degree}"
            )
        s_here = abs(point.b) + abs(point.d)  # N * s_value; the ball shares N
        non_increasing = [v for v in distinct.values() if abs(v.b) + abs(v.d) <= s_here]
        if looped:
            if non_increasing:
                violations.append(f"periodic vertex {point.key} has non-growing neighbors")
        elif len(non_increasing) > 1:
            violations.append(f"{len(non_increasing)} non-growing neighbors at {point.key}")

    if violations:
        return ComponentShape(OTHER, ball, violations, loop_vertex)
    if loops:
        return ComponentShape(ROOT_LOOPED4, ball, [], loop_vertex)
    return ComponentShape(TREE4, ball, [])


def root_paths_strictly_increasing(ball: OrbitGraph) -> bool:
    """True iff the complexity grows strictly along every tree edge away from
    the root (equivalently along every non-backtracking root path in a tree
    ball).  Holds whenever the root is the component's periodic vertex."""
    parent: dict[SurfacePoint, SurfacePoint] = {}
    for u, v, _ in ball.edges:
        if u is not v and v not in parent and ball.depth[v] == ball.depth[u] + 1:
            parent[v] = u
    # N * s_value; the ball shares N
    return all(abs(v.b) + abs(v.d) > abs(p.b) + abs(p.d) for v, p in parent.items())


# -- Cheeger utilities -------------------------------------------------------


def cheeger_of_set(adj: dict, M: set) -> Fraction:
    """Exact |boundary(M)| / |M| for a finite vertex set in a simple graph."""
    if not M:
        raise ValueError("M must be nonempty")
    boundary = 0
    for v in M:
        if any(u not in M for u in adj[v] if u != v):
            boundary += 1
    return Fraction(boundary, len(M))


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
