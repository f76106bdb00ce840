import copy
import importlib
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest

from lsurf.quadfield import sign_sqrt_array
from lsurf.sampling import (
    sample_a_periodic_point,
    sample_b_periodic_point,
    sample_nonperiodic_point,
    sample_point,
)
from lsurf.schreier import (
    OTHER,
    ROOT_LOOPED4,
    TREE4,
    OrbitGraph,
    ResourceCapError,
    _int64_lanes,
    _level_images,
    build_G2,
    build_regular_tree_ball,
    build_root_looped_tree,
    cheeger_of_set,
    classify_component,
    enumerate_root_subsets,
    expand_ball,
    find_non_excluded_start,
    min_cheeger_root_subsets,
    root_paths_strictly_increasing,
    tree_cheeger_profile,
)
from lsurf.spectral import FiniteGraph, dirichlet_mu0, graph_ball
from lsurf.surface import (
    InternalError,
    SurfacePoint,
    apply,
    check_lanes,
    is_A_periodic,
    is_B_periodic,
    lanes_fit,
    n_value,
    prototype,
    thresholds,
)

SINGLE_STEPS = [("A", 1), ("A", -1), ("B", 1), ("B", -1)]
ALL_SURFACES = [(8, 0), (5, -1), (17, 1), (12, 0), (13, -1), (41, 1)]


def pt(proto, xr, xi, yr, yi):
    return SurfacePoint.from_fractions(proto, F(xr), F(xi), F(yr), F(yi))


# -- ball expansion -------------------------------------------------------------


def test_radius_zero_ball(L8):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    ball = expand_ball(P, SINGLE_STEPS, 0)
    # nothing expanded, so the frontier is the whole ball
    assert ball.points() == [P] and ball.n_expanded == 0 and not ball.partial
    assert [v["frontier"] for v in ball.to_json_dict()["vertices"]] == [True]


def test_classify_refuses_a_ball_with_no_expanded_vertex(L8):
    # P is periodic under both generators, and the G2 ball starts at its
    # A-periodic neighbour: root-looped at radius 1, nothing to check at 0
    P = pt(L8, F(1, 3), 0, F(1, 2), 0)
    assert classify_component(build_G2(P, radius=1)).kind == ROOT_LOOPED4
    with pytest.raises(ValueError, match="no expanded vertex"):
        classify_component(build_G2(P, radius=0))


@pytest.mark.parametrize("build", ["expand_ball", "build_G2"])
def test_negative_radius_rejected(L8, build):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        if build == "expand_ball":
            expand_ball(P, SINGLE_STEPS, -1)
        else:
            build_G2(P, radius=-1)


def test_loop_at_periodic_point_with_threshold_exponents(L8):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)  # B-periodic, not A-periodic
    th = thresholds(L8, n_value(P))
    ball = expand_ball(P, [("A", th.k), ("A", -th.k), ("B", th.l), ("B", -th.l)], 1)
    loops = _loops_by_equality(_plain(ball))
    assert set(loops) == {P}
    assert all(g == "B" for g, _ in loops[P])


def test_radius2_vertex_bound(L8, rng):
    for _ in range(5):
        P = sample_point(L8, rng.randint(1, 4), rng, box=300)
        ball = expand_ball(P, SINGLE_STEPS, 2)
        assert ball.order() <= 17  # 1 + 4 + 12


def test_resource_cap_carries_partial(L8):
    P = pt(L8, F(1, 5), F(1, 5), F(2, 5), F(1, 5))
    for explore in (
        lambda: expand_ball(P, SINGLE_STEPS, 3, max_vertices=4),
        lambda: build_G2(P, radius=3, max_vertices=4),
    ):
        with pytest.raises(ResourceCapError) as err:
            explore()
        assert err.value.partial is not None
        assert err.value.partial.partial is True
        assert err.value.partial.order() >= 4


@pytest.fixture(scope="module")
def identity_test_balls():
    """A G2 ball of radius 6 from a singly periodic start on each prototype
    (so its root carries loops), the G2 ball and the cycle-rich single-step
    ball of 1/5,1/5,2/5,1/5 on L8."""
    balls = {}
    for D, eps in ALL_SURFACES:
        proto = prototype(D, eps)
        rng = random.Random(f"stored-vertices:{D}:{eps}")
        P = sample_b_periodic_point(proto, rng.randint(1, 3), rng, a_periodic=False)
        balls[f"G2 {proto.name}"] = build_G2(P, radius=6)
    G = pt(prototype(8, 0), F(1, 5), F(1, 5), F(2, 5), F(1, 5))
    balls["G2 L8 generic"] = build_G2(G, radius=6)
    balls["single-step L8"] = expand_ball(G, SINGLE_STEPS, 6)
    return balls


@dataclass
class PlainBall:
    """The reference BFS's container: vertices as points, edges as point
    triples, as an orbit ball kept them before it became an id record."""

    proto: object
    gens: tuple
    root: SurfacePoint
    g2: bool
    depth: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    n_expanded: int = 0
    partial: bool = False


def _plain(ball):
    """The id record ``ball`` as a PlainBall, through ``points()``."""
    points = ball.points()
    return PlainBall(
        proto=ball.proto,
        gens=ball.gens,
        root=ball.root,
        g2=ball.g2,
        depth=dict(zip(points, ball.depths())),
        edges=[(points[u], points[v], g) for u, v, g in ball.edge_triples()],
        n_expanded=ball.n_expanded,
        partial=ball.partial,
    )


def _loops_by_equality(plain):
    loops = {}
    for u, v, g in plain.edges:
        if u == v:
            loops.setdefault(u, []).append(g)
    return loops


def _simple_adjacency_by_equality(plain):
    adj = {v: set() for v in plain.depth}
    for u, v, _ in plain.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def test_edge_ends_are_the_stored_vertices(identity_test_balls):
    # a vertex is its id: ``ids`` lists the numerators of the vertices in id
    # order, ``points()`` builds them once, the root's instance first, and
    # every edge end is the id of a stored vertex
    for name, ball in identity_test_balls.items():
        points = ball.points()
        assert ball.points() is points and points[0] is ball.root, name
        assert list(ball.ids.values()) == list(range(ball.order())), name
        assert list(ball.ids) == [(P.N, P.a, P.b, P.c, P.d) for P in points], name
        assert len(set(points)) == ball.order() == ball.levels[-1], name
        assert ball.edges.dtype == np.int64, name
        assert 0 <= ball.edges.min() and ball.edges.max() < ball.order(), name


def _assert_flags_match_points(ball):
    # the flags the BFS recorded are the scalar periodicity tests of every vertex
    want = [is_A_periodic(P) + 2 * is_B_periodic(P) for P in ball.points()]
    assert ball.periodic.dtype == np.int8 and ball.periodic.tolist() == want, ball.root


def _assert_simple_graph_matches_adjacency(ball):
    # a plain copy of the point-keyed view, relabelled, is the cached simple
    # view on the ids, and the view lists each vertex's neighbours once, in
    # ascending id order
    G = ball.simple_graph()
    adj = ball.simple_adjacency()
    H, copy_ids = FiniteGraph.from_adjacency({P: list(nbrs) for P, nbrs in adj.items()})
    assert ball.simple_graph() is G and H is not G
    assert G.n == H.n and all(np.array_equal(g, h) for g, h in zip(G.csr, H.csr)), ball.root
    assert list(copy_ids.values()) == list(range(ball.order()))
    # the view hands back that graph and its id map as they are
    graph, ids = FiniteGraph.from_adjacency(adj)
    assert graph is G
    assert all([ids[v] for v in nbrs] == sorted(ids[v] for v in nbrs) for nbrs in adj.values())
    points = ball.points()
    assert len(ids) == len(adj) == ball.order() and list(ids) == list(adj) == points
    assert all(ids[P] == i for i, P in enumerate(points))
    # a point on an equal copy of the prototype is a key, as it is equal
    root = ball.root
    key = (root.N, root.a, root.b, root.c, root.d)
    twin = SurfacePoint._from_checked(copy.copy(ball.proto), key)
    assert twin == root and twin.proto is not ball.proto
    assert ids[twin] == 0 and twin in ids and adj[twin] == adj[root]
    # a numerator tuple, an id and a point with the root's numerators on
    # another prototype are no keys
    other = next(p for p in map(prototype, *zip(*ALL_SURFACES)) if p != ball.proto)
    for stranger in (key, 0, SurfacePoint._from_checked(other, key)):
        for mapping in (ids, adj):
            with pytest.raises(KeyError):
                mapping[stranger]
            assert stranger not in mapping, ball.root


def test_flags_and_simple_graph_match_the_points(identity_test_balls):
    for ball in identity_test_balls.values():
        _assert_flags_match_points(ball)
        _assert_simple_graph_matches_adjacency(ball)


def test_identity_views_match_equality_oracles(identity_test_balls):
    # simple_adjacency reads the id record; the oracle compares points
    for name, ball in identity_test_balls.items():
        plain = _plain(ball)
        adj = ball.simple_adjacency()
        assert {v: set(nbrs) for v, nbrs in adj.items()} == _simple_adjacency_by_equality(plain), name
        assert all(len(set(nbrs)) == len(nbrs) for nbrs in adj.values()), name  # each once
        assert list(adj) == ball.points(), name  # root first
        if ball.g2:  # loops sit exactly at a singly periodic root
            loops = _loops_by_equality(plain)
            assert set(loops) == ({ball.root} if is_B_periodic(ball.root) else set()), name
    single = identity_test_balls["single-step L8"]
    n_edges = sum(map(len, single.simple_adjacency().values())) // 2
    assert single.order() == 1076 and n_edges > single.order() - 1  # has cycles


def test_orbit_ball_op_builds_no_point_after_the_bfs(monkeypatch):
    # the orbit-ball op after build_G2: classify, the simple view, the
    # support and mu0 build no point but a loop vertex away from the root
    L8, L5m1 = prototype(8, 0), prototype(5, -1)
    starts = [
        pt(L8, F(-1, 2), F(1, 2), F(-3, 2), F(3, 2)),  # Tree4
        sample_b_periodic_point(L8, 2, random.Random("op-points"), a_periodic=False),
        pt(L5m1, -1, 1, -6, 4),  # looped away from the root
    ]
    from_checked, init = SurfacePoint._from_checked.__func__, SurfacePoint.__init__
    built = []

    def counting_from_checked(cls, proto, key):
        built.append(key)
        return from_checked(cls, proto, key)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    seen = set()
    for P in starts:
        ball = build_G2(P, radius=6)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(SurfacePoint, "_from_checked", classmethod(counting_from_checked))
            m.setattr(SurfacePoint, "__init__", counting_init)
            shape = classify_component(ball)
            G, ids = FiniteGraph.from_adjacency(ball.simple_adjacency())
            dirichlet_mu0(G, graph_ball(G, ids[ball.root], 5))
        off_root = shape.loop_vertex not in (None, ball.root)
        assert len(built) == off_root and ball._points is None, (P, built)
        seen.add((shape.kind, off_root))
    assert seen == {(TREE4, False), (ROOT_LOOPED4, False), (ROOT_LOOPED4, True)}


def _reference_bfs(ball, P, radius, max_vertices=200_000):
    """Oracle: the vertex-by-vertex BFS on the scalar step ``apply``, which
    applies every generator power at every vertex, the step back to a
    vertex's parent included, and tests every image of a pruned ball for
    pruning.  Fills the PlainBall ``ball`` and returns its own sets of
    expanded and frontier vertices; at the vertex cap it marks the ball
    partial and stops."""
    expanded, frontier = set(), set()
    ball.depth[P] = 0
    stored = {P: P}
    queue = deque([P])
    while queue:
        point = queue.popleft()
        d = ball.depth[point]
        if d >= radius:
            frontier.add(point)
            continue
        for gen in ball.gens:
            img = apply(point, *gen)
            assert not (ball.g2 and is_A_periodic(img) and is_B_periodic(img))
            known = stored.setdefault(img, img)
            if known is img:
                if len(ball.depth) >= max_vertices:
                    ball.partial = True
                    return expanded, frontier
                ball.depth[img] = d + 1
                queue.append(img)
            ball.edges.append((point, known, gen))
        expanded.add(point)
        ball.n_expanded += 1
    return expanded, frontier


def _assert_matches_reference(ball, radius, max_vertices=200_000):
    ref = PlainBall(proto=ball.proto, gens=ball.gens, root=ball.root, g2=ball.g2)
    expanded, frontier = _reference_bfs(ref, ball.root, radius, max_vertices)
    assert ball.partial == ref.partial, ball.root
    assert list(ball.ids) == [(P.N, P.a, P.b, P.c, P.d) for P in ref.depth], ball.root
    assert ball.depths() == list(ref.depth.values()), ball.root
    # KeyError unless both ends of every reference edge are its stored vertices
    position = {id(v): n for n, v in enumerate(ref.depth)}
    want = [(position[id(u)], position[id(v)], g) for u, v, g in ref.edges]
    assert list(ball.edge_triples()) == want, ball.root
    # the BFS order records the expanded vertices, then a complete ball's frontier
    vertices = ball.points()
    assert set(vertices[: ball.n_expanded]) == expanded, ball.root
    assert set([] if ball.partial else vertices[ball.n_expanded :]) == frontier, ball.root
    _assert_flags_match_points(ball)


def _start_points(proto, seed):
    rng = random.Random(f"{seed}:{proto.D}:{proto.eps}")
    return [
        sample_b_periodic_point(proto, rng.randint(1, 3), rng, a_periodic=False),
        sample_nonperiodic_point(proto, rng.randint(1, 3), rng, box=40),
        pt(proto, F(1, 5), F(1, 5), F(2, 5), F(1, 5)),  # cycles in its single-step ball
    ]


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_bfs_matches_reference_without_parent_reuse(D, eps):
    proto = prototype(D, eps)
    for P in _start_points(proto, "parent-reuse"):
        for ball in (build_G2(P, radius=5), expand_ball(P, SINGLE_STEPS, 5)):
            _assert_matches_reference(ball, 5)


LEVEL_KINDS = pytest.mark.parametrize(
    "scalar_images,chunk", [(0, 4096), (0, 5), (10**9, 5)], ids=["arrays", "chunked", "scalar"]
)


@LEVEL_KINDS
@pytest.mark.parametrize("D,eps", [(8, 0), (5, -1)])
def test_bfs_matches_reference_on_one_kind_of_level(D, eps, scalar_images, chunk, monkeypatch):
    # every level on the array kernel, or every level through ``apply``, and
    # levels looked up a few vertices at a time
    monkeypatch.setattr("lsurf.schreier._SCALAR_IMAGES", scalar_images)
    monkeypatch.setattr("lsurf.schreier._CHUNK_VERTICES", chunk)
    proto = prototype(D, eps)
    for P in _start_points(proto, "one-kind"):
        for ball in (build_G2(P, radius=4), expand_ball(P, SINGLE_STEPS, 4)):
            _assert_matches_reference(ball, 4)


@LEVEL_KINDS
@pytest.mark.parametrize("D,eps", [(8, 0), (17, 1)])
def test_partial_ball_matches_reference(D, eps, scalar_images, chunk, monkeypatch):
    # the cap leaves the vertices, edges and expanded vertices that the
    # vertex-by-vertex BFS has when it reaches one vertex too many, on either
    # kind of level
    monkeypatch.setattr("lsurf.schreier._SCALAR_IMAGES", scalar_images)
    monkeypatch.setattr("lsurf.schreier._CHUNK_VERTICES", chunk)
    proto = prototype(D, eps)
    for P in _start_points(proto, "partial"):
        for explore in (
            lambda cap: build_G2(P, radius=5, max_vertices=cap),
            lambda cap: expand_ball(P, SINGLE_STEPS, 5, max_vertices=cap),
        ):
            for cap in (0, 1, 2, 7, 50, explore(200_000).order() - 1):
                with pytest.raises(ResourceCapError) as err:
                    explore(cap)
                _assert_matches_reference(err.value.partial, 5, cap)
                assert not any(v["frontier"] for v in err.value.partial.to_json_dict()["vertices"])


def test_bfs_matches_reference_past_the_int64_guard(monkeypatch):
    # the radius-7 G2 ball of 1/5,1/5,2/5,1/5 on L8 has a sign test whose
    # int64 square would overflow, so its last level computes on Python ints
    crossed = []

    def spy(p, q, m):
        if p.dtype != object and np.abs(p).max() >= 2**31:
            crossed.append(int(np.abs(p).max()))
        return sign_sqrt_array(p, q, m)

    # the package's surface() function shadows the module's name
    monkeypatch.setattr(importlib.import_module("lsurf.surface"), "sign_sqrt_array", spy)
    ball = build_G2(pt(prototype(8, 0), F(1, 5), F(1, 5), F(2, 5), F(1, 5)), radius=7)
    assert crossed and ball.order() == 4373
    _assert_matches_reference(ball, 7)


@pytest.mark.parametrize("limit", [0, 1000], ids=["every-level", "later-levels"])
@pytest.mark.parametrize("D,eps", [(8, 0), (17, 1)])
def test_bfs_past_the_level_guard_steps_through_apply(D, eps, limit, monkeypatch):
    # a level that lanes_fit refuses steps through the scalar apply, however
    # many images it has: with a made-up bound, on every level, or on the
    # later levels of growing balls, right after a level on lanes
    seen = []

    def spy(proto, gens, N, level):
        seen.append(max(N, int(np.abs(level).max())))
        return _level_images(proto, gens, N, level)

    monkeypatch.setattr("lsurf.schreier._SCALAR_IMAGES", 0)
    monkeypatch.setattr("lsurf.schreier.lanes_fit", lambda proto, M, E: M < limit)
    monkeypatch.setattr("lsurf.schreier._level_images", spy)
    proto = prototype(D, eps)
    for P in _start_points(proto, "object-lanes"):
        for ball in (build_G2(P, radius=4), expand_ball(P, SINGLE_STEPS, 4)):
            _assert_matches_reference(ball, 4)
    assert all(M < limit for M in seen) and bool(seen) == (limit > 0)


def test_bfs_with_a_denominator_past_int64_matches_reference(L8, monkeypatch):
    # N = 3**45 > 2**63: lanes_fit refuses every level, so every level steps
    # through apply and tests the periodicity of each new point, whatever
    # the level size (``_assert_matches_reference`` checks ``ball.periodic``),
    # and the complexities of classify_component are Python ints
    monkeypatch.setattr("lsurf.schreier._SCALAR_IMAGES", 0)
    P = pt(L8, F(1, 3**45), F(1, 3**45), F(2, 3**45), F(1, 3**45))
    assert P.N > 2**63 and not lanes_fit(L8, P.N, 0)
    for ball in (build_G2(P, radius=3), expand_ball(P, SINGLE_STEPS, 3)):
        assert ball.order() > 10
        _assert_matches_reference(ball, 3)
        keys = list(ball.ids)[: ball.n_expanded]
        assert len(keys) > 1 and _int64_lanes(L8, keys, 0) is None
        # the single steps are far below the growth thresholds
        assert _classify_matches_reference(ball).kind == (TREE4 if ball.g2 else OTHER)


def test_unknown_generator_names_are_refused(L8):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    with pytest.raises(ValueError, match="unknown generator 'C'"):
        expand_ball(P, [("C", 1), ("C", -1)], 2)
    with pytest.raises(ValueError, match="unknown generator 'C'"):
        apply(P, "C", 1)


def test_empty_generator_list_is_refused(L8):
    # a ball without generators would have no edges to classify
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    with pytest.raises(ValueError, match="at least one generator power"):
        expand_ball(P, [], 2)


def test_pruned_start_is_an_internal_error(L8, monkeypatch):
    # a pruned start is fixed by the chosen powers, so every image is the start
    P = pt(L8, F(1, 3), 0, F(1, 2), 0)
    assert is_A_periodic(P) and is_B_periodic(P)
    monkeypatch.setattr("lsurf.schreier.find_non_excluded_start", lambda Q: Q)
    with pytest.raises(InternalError, match="pruned vertex"):
        build_G2(P, radius=2)


@LEVEL_KINDS
def test_pruned_image_is_an_internal_error(L8, monkeypatch, scalar_images, chunk):
    # no image of a kept start is pruned, so flag every image as pruned
    def all_pruned(*lanes):
        c, on_A, on_B = check_lanes(*lanes)
        return c, on_A | True, on_B | True

    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    monkeypatch.setattr("lsurf.schreier._SCALAR_IMAGES", scalar_images)
    monkeypatch.setattr("lsurf.schreier._CHUNK_VERTICES", chunk)
    monkeypatch.setattr("lsurf.schreier.check_lanes", all_pruned)
    monkeypatch.setattr("lsurf.schreier._flags", lambda Q: 2 if Q == P else 3)
    with pytest.raises(InternalError, match="pruned vertex reached from"):
        build_G2(P, radius=2)


def test_deterministic_export(L8):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    one = build_G2(P, radius=2).to_json_dict()
    two = build_G2(P, radius=2).to_json_dict()
    assert one == two
    assert one["schema"] == "lsurf-graph-v1"
    dot = build_G2(P, radius=2).to_dot()
    assert dot.startswith("graph orbitball {") and '"B^' in dot


# -- pruned-graph structure -------------------------------------------------------


def test_g2_ball_from_periodic_root(L8):
    P = pt(L8, F(1, 3), F(1, 3), F(1, 2), 0)
    ball = build_G2(P, radius=3)
    shape = classify_component(ball)
    assert shape.kind == ROOT_LOOPED4
    assert shape.loop_vertex == P
    assert root_paths_strictly_increasing(ball)
    # all expanded vertices have simple-view degree 4 except the looped root
    adj = ball.simple_adjacency()
    for v in ball.points()[: ball.n_expanded]:
        want = 2 if v == P else 4
        assert len(adj[v]) == want


def test_g2_ball_from_generic_root(L8):
    Q = pt(L8, F(-1, 2), F(1, 2), F(-3, 2), F(3, 2))
    ball = build_G2(Q, radius=3)
    shape = classify_component(ball)
    assert shape.kind == TREE4
    assert ball.order() == 53  # perfect 4-regular tree ball of radius 3


def test_g2_never_other_on_seeds(L8, rng):
    for _ in range(8):
        N = rng.randint(1, 3)
        if rng.random() < 0.5:
            P = sample_b_periodic_point(L8, N, rng, a_periodic=False)
        else:
            P = sample_nonperiodic_point(L8, N, rng, box=60)
        shape = classify_component(build_G2(P, radius=2))
        assert shape.kind in (TREE4, ROOT_LOOPED4), shape.violations


def test_find_non_excluded_start_raises_on_fixed_points(L8):
    # (0,1) and (1,0) are fixed by both generators: nothing survives pruning
    for coords in ((0, 0, 1, 0), (1, 0, 0, 0)):
        P = pt(L8, *coords)
        with pytest.raises(ValueError):
            find_non_excluded_start(P)


def _jointly_periodic(Q):
    return is_A_periodic(Q) and is_B_periodic(Q)


def _layered_non_excluded_start(P):
    """Oracle: the layered single-step search ``find_non_excluded_start`` ran
    before it read the BFS ball, returning at the first surviving image."""
    if not _jointly_periodic(P):
        return P
    seen = {P}
    layer = [P]
    for _ in range(4):
        nxt = []
        for Q in layer:
            for gen in SINGLE_STEPS:
                img = apply(Q, *gen)
                if img in seen:
                    continue
                seen.add(img)
                if not _jointly_periodic(img):
                    return img
                nxt.append(img)
        layer = nxt
    raise ValueError("no vertex survives the pruning near this start")


@pytest.mark.parametrize("D,eps", ALL_SURFACES)
def test_find_non_excluded_start_matches_layered_search(D, eps):
    proto = prototype(D, eps)
    rng = random.Random(f"non-excluded:{D}:{eps}")
    for _ in range(40):
        P = sample_a_periodic_point(proto, rng.randint(1, 6), rng, b_periodic=True)
        assert is_B_periodic(P)
        try:
            want = _layered_non_excluded_start(P)
        except ValueError:
            with pytest.raises(ValueError):
                find_non_excluded_start(P)
            continue
        got = find_non_excluded_start(P)
        assert got == want and not _jointly_periodic(got)


def _reference_classify(ball):
    """Oracle: ``classify_component`` as it read a PlainBall, comparing
    points, with the scalar periodicity tests."""
    if ball.n_expanded == 0:
        raise ValueError("the ball has no expanded vertex to classify: radius must be >= 1")
    violations: list[str] = []
    loops = _loops_by_equality(ball)
    loop_vertex = None

    def expected_loop(v):
        pa, pb = is_A_periodic(v), is_B_periodic(v)
        return None if pa == pb else "A" if pa else "B"

    if len(loops) > 1:
        violations.append(f"{len(loops)} looped vertices: {sorted(v.key for v in loops)[:2]}...")
    for v, gens_at_v in loops.items():
        loop_vertex = v
        expected = expected_loop(v)
        if expected is None:
            violations.append(f"loop at a vertex periodic under neither/both: {v.key}")
        elif any(g != expected for g, _ in gens_at_v):
            violations.append(f"loop labels {gens_at_v} at {v.key} not all {expected}")
    n_edges = len({frozenset((u, v)) for u, v, _ in ball.edges if u != v})
    order = len(ball.depth)
    if n_edges != order - 1:
        violations.append(f"simple view has {n_edges} edges on {order} vertices")
    n_gens = len(ball.gens)
    for k, point in enumerate(islice(ball.depth, ball.n_expanded)):
        block = ball.edges[k * n_gens : (k + 1) * n_gens]
        assert len(block) == n_gens and all(u == point for u, _, _ in block)
        non_loop = [v for _, v, _ in block if v != point]
        distinct = set(non_loop)
        if len(distinct) != len(non_loop):
            violations.append(f"parallel edges at {point.key}")
        looped = point in loops
        if not looped and ball.g2 and expected_loop(point) is not None:
            violations.append(f"singly periodic vertex {point.key} misses its loop")
        want_degree = 2 if looped else 4
        if len(distinct) != want_degree:
            violations.append(
                f"vertex {point.key} has {len(distinct)} distinct neighbors, wanted {want_degree}"
            )
        s_here = abs(point.b) + abs(point.d)  # N * s_value; the ball shares N
        non_increasing = [v for v in distinct if abs(v.b) + abs(v.d) <= s_here]
        if looped:
            if non_increasing:
                violations.append(f"periodic vertex {point.key} has non-growing neighbors")
        elif len(non_increasing) > 1:
            violations.append(f"{len(non_increasing)} non-growing neighbors at {point.key}")
    if violations:
        return OTHER, violations, loop_vertex
    return (ROOT_LOOPED4 if loops else TREE4), [], loop_vertex


def _classify_matches_reference(ball):
    """classify_component(ball), after checking its kind, loop vertex and
    violation list against the oracle on the same ball as a PlainBall."""
    shape = classify_component(ball)
    assert (shape.kind, shape.violations, shape.loop_vertex) == _reference_classify(_plain(ball))
    return shape


def test_classify_matches_reference(identity_test_balls):
    # each prototype's singly periodic start carries the loops, the generic
    # G2 ball is a tree, and the single-step ball has many violations
    for name, ball in identity_test_balls.items():
        shape = _classify_matches_reference(ball)
        if name == "single-step L8":
            assert shape.kind == OTHER and len(shape.violations) > 100, name
        elif name == "G2 L8 generic":
            assert shape.kind == TREE4, name
        else:
            assert shape.kind == ROOT_LOOPED4 and shape.loop_vertex is ball.root, name


def test_classify_matches_reference_on_partial_balls(L8):
    # the vertex cap cuts the last block; the cut edges count as in the oracle
    G = pt(L8, *GENERIC)
    for explore in (lambda cap: build_G2(G, radius=4, max_vertices=cap),
                    lambda cap: expand_ball(G, SINGLE_STEPS, 4, max_vertices=cap)):
        for cap in (7, 52, 101):
            with pytest.raises(ResourceCapError) as err:
                explore(cap)
            ball = err.value.partial
            assert ball.n_expanded and len(ball.edges) % 4  # a cut block
            _classify_matches_reference(ball)
            _assert_flags_match_points(ball)
            _assert_simple_graph_matches_adjacency(ball)


def _hand_ball(proto, depth, edges, g2=False):
    """Ball record built by hand from points; ``depth`` lists them root
    first, in BFS order.  As in a BFS ball, ``edges`` lists the out-edges
    (source, end, generator power) of the expanded vertices block by block,
    one per power of the root's block; a cut last block makes the ball
    partial, as the vertex cap does."""
    points, depths = list(depth), list(depth.values())
    root = points[0]
    gens = tuple(g for u, _, g in edges if u is root)
    position = {id(P): n for n, P in enumerate(points)}
    # a vertex's edges are its block, in the root's order of powers
    assert [(position[id(u)], g) for u, _, g in edges] == [
        (i // len(gens), gens[i % len(gens)]) for i in range(len(edges))
    ]
    assert depths == sorted(depths)
    return OrbitGraph(
        proto=proto,
        gens=gens,
        root=root,
        ids={(P.N, P.a, P.b, P.c, P.d): n for n, P in enumerate(points)},
        levels=[bisect_left(depths, r) for r in range(depths[-1] + 2)],
        edges=np.array([position[id(v)] for _, v, _ in edges], dtype=np.int64),
        periodic=np.array([is_A_periodic(P) + 2 * is_B_periodic(P) for P in points], dtype=np.int8),
        n_expanded=len(edges) // len(gens),
        g2=g2,
        partial=len(edges) % len(gens) != 0,
    )


def _flagged(ball, message):
    """Other verdict whose violations include the message, which names its
    vertices by their Fraction coordinate quadruple; the oracle agrees."""
    shape = _classify_matches_reference(ball)
    assert shape.kind == OTHER
    assert message in shape.violations, shape.violations
    assert "Fraction(" in message


def test_classify_flags_cycle(L8):
    # hand-built 4-cycle disguised as a ball: negative control; one
    # generator power of order 4 reaches the points one by one
    pts = [pt(L8, F(1, 2), F(i + 1, 7), F(1, 3), F(1, 7)) for i in range(4)]
    ball = _hand_ball(
        L8,
        dict(zip(pts, (0, 1, 2, 3))),
        [
            (pts[0], pts[1], ("A", 1)),
            (pts[1], pts[2], ("A", 1)),
            (pts[2], pts[3], ("A", 1)),
            (pts[3], pts[0], ("A", 1)),
        ],
    )
    shape = _classify_matches_reference(ball)
    assert shape.kind == OTHER
    assert any("edges" in v for v in shape.violations)


# B-periodic, not A-periodic (y_i = 0, x_i != 0), and a doubly non-periodic point
B_PERIODIC = ((F(1, 3), F(1, 3), F(1, 2), 0), (F(1, 5), F(1, 5), F(1, 2), 0))
GENERIC = (F(1, 5), F(1, 5), F(2, 5), F(1, 5))


def test_classify_flags_two_looped_vertices(L8):
    P, Q = (pt(L8, *c) for c in B_PERIODIC)
    ball = _hand_ball(
        L8, {P: 0, Q: 1}, [(P, P, ("B", 1)), (P, Q, ("A", 1)), (Q, Q, ("B", 1))]
    )
    _flagged(ball, f"2 looped vertices: {sorted([P.key, Q.key])}...")


def test_classify_flags_loop_labels(L8):
    P = pt(L8, *B_PERIODIC[0])
    _flagged(
        _hand_ball(L8, {P: 0}, [(P, P, ("A", 1))]),
        f"loop labels [('A', 1)] at {P.key} not all B",
    )
    G = pt(L8, *GENERIC)
    _flagged(
        _hand_ball(L8, {G: 0}, [(G, G, ("B", 1))]),
        f"loop at a vertex periodic under neither/both: {G.key}",
    )


def test_classify_flags_missing_loop(L8):
    P = pt(L8, *B_PERIODIC[0])
    Q = apply(P, "A", 1)
    ball = _hand_ball(L8, {P: 0, Q: 1}, [(P, Q, ("A", 1))], g2=True)
    _flagged(ball, f"singly periodic vertex {P.key} misses its loop")


def test_classify_flags_parallel_edges(L8):
    G = pt(L8, *GENERIC)
    Q = apply(G, "A", 1)
    ball = _hand_ball(L8, {G: 0, Q: 1}, [(G, Q, ("A", 1)), (G, Q, ("B", 1))])
    _flagged(ball, f"parallel edges at {G.key}")


def test_classify_flags_non_growing_neighbors(L8):
    # neighbours of equal and of smaller complexity s = |x_i| + |y_i|
    P = pt(L8, *B_PERIODIC[0])  # s = 1/3
    Q, R = pt(L8, F(1, 2), F(1, 6), F(1, 3), F(1, 6)), pt(L8, F(1, 2), F(1, 6), F(1, 3), 0)
    ball = _hand_ball(
        L8,
        {P: 0, Q: 1, R: 1},
        [(P, P, ("B", 1)), (P, Q, ("A", 1)), (P, R, ("A", -1))],
    )
    _flagged(ball, f"periodic vertex {P.key} has non-growing neighbors")
    G = pt(L8, *GENERIC)  # s = 2/5
    nbrs = [
        pt(L8, F(2, 5), F(1, 5), F(1, 5), F(1, 5)),
        pt(L8, F(1, 5), F(1, 5), F(1, 5), 0),
        pt(L8, F(1, 5), F(2, 5), F(1, 5), F(1, 5)),
        pt(L8, F(2, 5), F(1, 5), F(1, 5), F(2, 5)),
    ]
    ball = _hand_ball(
        L8,
        {G: 0, **{v: 1 for v in nbrs}},
        [(G, v, gen) for v, gen in zip(nbrs, SINGLE_STEPS)],
    )
    _flagged(ball, f"2 non-growing neighbors at {G.key}")


def test_classify_refuses_edges_out_of_block_order(L8):
    # out-edges are read by position, so a ball whose k-th expanded vertex
    # does not own the k-th block of edges is refused, not misread
    ball = build_G2(pt(L8, *GENERIC), radius=2)
    assert classify_component(ball).kind == TREE4
    for edges in (np.roll(ball.edges, -1), ball.edges[:-1]):
        ball.edges = edges
        with pytest.raises(InternalError, match="are not block"):
            classify_component(ball)
    # the looped root's block ends in loops, so only the edge count shows a
    # cut or an extra edge
    ball = build_G2(pt(L8, *B_PERIODIC[0]), radius=1)
    assert classify_component(ball).kind == ROOT_LOOPED4 and ball.edges[-1] == 0
    for edges in (ball.edges[:-1], np.append(ball.edges, 0)):
        ball.edges = edges
        with pytest.raises(InternalError, match="are not block"):
            classify_component(ball)


def test_root_paths_flag_a_non_growing_tree_edge(L8):
    # s = |x_i| + |y_i| must grow strictly from parent to child
    P = pt(L8, *B_PERIODIC[0])  # s = 1/3
    grows = pt(L8, F(1, 2), F(1, 3), F(1, 3), F(1, 6))  # s = 1/2
    equal = pt(L8, F(1, 2), F(1, 6), F(1, 3), F(1, 6))  # s = 1/3
    shrinks = pt(L8, F(1, 2), F(1, 6), F(1, 3), 0)  # s = 1/6
    for child, want in ((grows, True), (equal, False), (shrinks, False)):
        ball = _hand_ball(L8, {P: 0, child: 1}, [(P, P, ("B", 1)), (P, child, ("A", 1))])
        assert root_paths_strictly_increasing(ball) is want


# -- Cheeger ----------------------------------------------------------------------


def test_cheeger_examples():
    adj, root, _ = build_root_looped_tree(3)
    M = {root} | set(adj[root])
    assert cheeger_of_set(adj, M) == F(2, 3)
    tadj, troot = build_regular_tree_ball(4, 2)
    ball1 = {troot} | set(tadj[troot])
    assert cheeger_of_set(tadj, ball1) == F(4, 5)
    with pytest.raises(ValueError):
        cheeger_of_set(tadj, set())


def test_cheeger_of_whole_finite_component_is_zero():
    adj = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
    assert cheeger_of_set(adj, {0, 1}) == 0


def _random_graph(rng, n, p):
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def test_component_min_max_sandwich(rng):
    # c over a disjoint union is between the per-component values
    for _ in range(30):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        g1 = _random_graph(rng, n1, 0.6)
        g2 = _random_graph(rng, n2, 0.6)
        adj = dict(g1)
        for v, nbrs in g2.items():
            adj[v + n1] = {u + n1 for u in nbrs}
        m1 = {v for v in range(n1) if rng.random() < 0.7}
        m2 = {v + n1 for v in range(n2) if rng.random() < 0.7}
        if not m1 or not m2:
            continue
        c1, c2 = cheeger_of_set(adj, m1), cheeger_of_set(adj, m2)
        c = cheeger_of_set(adj, m1 | m2)
        assert min(c1, c2) <= c <= max(c1, c2)


def test_edge_omission_never_increases_cheeger(rng):
    for _ in range(30):
        n = rng.randint(4, 9)
        adj = _random_graph(rng, n, 0.5)
        edges = [(u, v) for u in adj for v in adj[u] if u < v]
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        smaller = {k: set(s) for k, s in adj.items()}
        smaller[u].discard(v)
        smaller[v].discard(u)
        M = {k for k in range(n) if rng.random() < 0.6} or {0}
        assert cheeger_of_set(smaller, M) <= cheeger_of_set(adj, M)


def test_tree_cheeger_profile_values():
    prof = tree_cheeger_profile(2, 8)
    assert prof[0] == F(4, 5)
    assert abs(float(prof[7]) - 2 / 3) < 0.02
    assert all(prof[i] > prof[i + 1] for i in range(7))
    assert all(c > F(2, 3) for c in prof)


def test_tree_cheeger_profile_other_valency():
    prof = tree_cheeger_profile(3, 5)  # 6-regular tree, limit 4/5
    assert all(c > F(4, 5) for c in prof)
    assert abs(float(prof[4]) - 4 / 5) < 0.01


def test_min_cheeger_dp_matches_enumeration():
    adj, root, depths = build_root_looped_tree(5)
    for depth in range(5):
        allowed = {v for v, d in depths.items() if d <= depth}
        best_brute = min(
            cheeger_of_set(adj, set(S))
            for S in enumerate_root_subsets(adj, root, allowed, 7)
        )
        # DP restricted to the same size and depth caps must agree exactly
        assert min_cheeger_root_subsets(7, depth) == best_brute
    assert best_brute == F(2, 3)
    with pytest.raises(ValueError, match="empty search space"):
        min_cheeger_root_subsets(0, 3)
