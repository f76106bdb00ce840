import inspect
import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from lsurf import parse_point, spectral
from lsurf.sampling import (
    sample_a_periodic_point,
    sample_b_periodic_point,
    sample_nonperiodic_point,
)
from lsurf.schreier import (
    ROOT_LOOPED4,
    TREE4,
    build_G2,
    build_regular_tree_ball,
    build_root_looped_tree,
    classify_component,
    expand_ball,
)
from lsurf.spectral import (
    FiniteGraph,
    SpectralConvergenceError,
    _dense_dirichlet_laplacian,
    _dirichlet_laplacian,
    _support_rows,
    cheeger_min_over_subsets,
    cheeger_sandwich_check,
    dirichlet_mu0,
    graph_ball,
    sandwich_bracket,
)
from lsurf.surface import SurfacePoint, prototype

TREE_LIMIT = 4 - 2 * math.sqrt(3)
LAYER_QUOTIENT = spectral._layer_quotient_mu0


def tree_ball_graph(radius):
    adj, root = build_regular_tree_ball(4, radius + 1)
    G, ids = FiniteGraph.from_adjacency(adj)
    support = graph_ball(G, ids[root], radius)
    return G, support


def root_looped_graph(radius):
    adj, root, _ = build_root_looped_tree(radius + 1)
    G, ids = FiniteGraph.from_adjacency(adj)
    support = graph_ball(G, ids[root], radius)
    return G, support


def support_rows(G, support):
    return _support_rows(G, np.array(sorted(support), dtype=np.int64))


def restricted_laplacian(G, support):
    """The program's sparse Laplacian restricted to the support."""
    return _dirichlet_laplacian(*support_rows(G, support))


def general_mu0(G, support, **kwargs):
    """dirichlet_mu0 with the layer search switched off (the quotient and the
    closed-component rule): the dense or ARPACK solve on the restricted
    matrix, their oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_layer_quotient_mu0", lambda *rows: None)
        return dirichlet_mu0(G, support, **kwargs)


def mu0_and_path(G, support):
    """(dirichlet_mu0, the way it was found): "quotient" from the layer
    quotient, "closed" for the exact 0 of a support with a vertex that the
    boundary does not reach (a support it does reach has mu0 > 0), or
    "general" from the dense or ARPACK solve."""
    answers = []

    def spy(*rows):
        answers.append(LAYER_QUOTIENT(*rows))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_layer_quotient_mu0", spy)
        mu0 = dirichlet_mu0(G, support)
    answer = answers[0]
    return mu0, "general" if answer is None else "closed" if answer == 0.0 else "quotient"


def path_graph(n):
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return FiniteGraph.from_edges(n, edges)


def is_connected(G):
    return G.n == 0 or len(graph_ball(G, 0, G.n)) == G.n


# -- exact operator identities ---------------------------------------------------


def laplacian_apply(G, b):
    """The sparse Laplacian's entries, checked integral, applied exactly to b."""
    L = restricted_laplacian(G, range(G.n)).tocoo()
    out = [F(0)] * G.n
    for i, j, x in zip(L.row, L.col, L.data):
        assert x == int(x)
        out[i] += int(x) * b[j]
    return out


def inner(a, b):
    return sum(x * y for x, y in zip(a, b))


def quadratic_form(G, b):
    """Sum over edges of (b(i) - b(j))^2, straight from the edge list."""
    return sum((b[u] - b[v]) ** 2 for u, v in G.edges)


def test_constant_in_kernel():
    G = path_graph(5)
    assert laplacian_apply(G, [F(3)] * 5) == [F(0)] * 5


def test_single_edge_example():
    G = FiniteGraph.from_edges(2, [(0, 1)])
    b = [F(1), F(0)]
    assert laplacian_apply(G, b) == [F(1), F(-1)]
    assert inner(laplacian_apply(G, b), b) / inner(b, b) == 1


def test_loops_dropped():
    G = FiniteGraph.from_edges(2, [(0, 0), (0, 1)])
    assert len(G.edges) == 1


def test_quadratic_form_identity(rng):
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 8), 0.5)
        b = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(G.n)]
        assert inner(laplacian_apply(G, b), b) == quadratic_form(G, b)


def test_self_adjointness_exact(rng):
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 8), 0.5)
        a = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(G.n)]
        b = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(G.n)]
        assert inner(laplacian_apply(G, a), b) == inner(a, laplacian_apply(G, b))


def test_nonnegativity_and_kernel(rng):
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 7), 0.6)
        b = [F(rng.randint(-4, 4)) for _ in range(G.n)]
        q = quadratic_form(G, b)
        assert inner(laplacian_apply(G, b), b) == q >= 0
        if is_connected(G) and q == 0:
            assert len(set(b)) == 1


def test_rayleigh_zero_rejected():
    # the Rayleigh minimum over functions supported on the empty set
    with pytest.raises(ValueError):
        dirichlet_mu0(path_graph(3), set())


# -- Dirichlet bottom --------------------------------------------------------------


def test_full_support_gives_zero():
    G = path_graph(6)
    assert dirichlet_mu0(G, set(range(6))) == pytest.approx(0.0, abs=1e-9)


def test_monotone_in_support():
    G, support = tree_ball_graph(3)
    inner_support = graph_ball(G, 0, 2)
    assert dirichlet_mu0(G, inner_support) >= dirichlet_mu0(G, support) - 1e-12


def radial_mu0(diag, off):
    """Dirichlet bottom of a ball from its radial reduction alone: the
    smallest eigenvalue of the tridiagonal matrix with the given diagonal
    and off-diagonal (-sqrt of the ratio of consecutive sphere sizes)."""
    T = np.diag(np.asarray(diag, dtype=float))
    T += np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(T)[0])


def radial_tree_mu0(radius):
    """Radius-r ball of the 4-regular tree: spheres 1, 4, 12, 36, ..."""
    return radial_mu0([4.0] * (radius + 1), [-2.0] + [-math.sqrt(3.0)] * (radius - 1))


def radial_looped_mu0(radius):
    """Radius-r ball of the root-looped tree, the loop dropped: the root has
    degree 2, spheres 1, 2, 6, 18, ..."""
    return radial_mu0([2.0] + [4.0] * radius, [-math.sqrt(2.0)] + [-math.sqrt(3.0)] * (radius - 1))


def test_tree_ball_values_against_radial_oracle():
    for radius in (1, 2, 3, 5):
        G, support = tree_ball_graph(radius)
        assert dirichlet_mu0(G, support) == pytest.approx(radial_tree_mu0(radius), abs=1e-8)


def test_radial_looped_oracle_values():
    # the root-looped Dirichlet bottoms that the orbit-ball benchmark pins
    # at ball radius 3 and 6 (support radius 2 and 5)
    assert radial_looped_mu0(2) == pytest.approx(1.0, abs=1e-12)
    assert radial_looped_mu0(5) == pytest.approx(0.7292155232980937, abs=1e-12)


def test_radial_oracles_on_both_solver_branches():
    # the layer quotient, which these balls take, and the general solver:
    # ARPACK at every radius, dense eigvalsh up to 1,000 support vertices
    # (tree radius 5, root-looped radius 6)
    cases = ((tree_ball_graph, radial_tree_mu0), (root_looped_graph, radial_looped_mu0))
    for radius in range(1, 8):
        for graph, oracle in cases:
            G, support = graph(radius)
            got, path = mu0_and_path(G, support)
            assert path == "quotient" and abs(got - oracle(radius)) < 1e-9, (graph.__name__, radius, got)
            for cutoff in (1, 10**6) if len(support) <= 1000 else (1,):
                got = general_mu0(G, support, dense_cutoff=cutoff)
                assert abs(got - oracle(radius)) < 1e-9, (graph.__name__, radius, cutoff, got)


def test_radial_oracles_on_orbit_balls():
    # G2 balls from singly periodic starts (loop at the root) and from doubly
    # non-periodic ones; each certified shape is checked against its oracle
    seen = set()
    for D, eps in ((8, 0), (5, -1), (17, 1)):
        proto = prototype(D, eps)
        rng = random.Random(f"radial:{proto.name}")
        for radius in range(2, 7):
            for P in (
                sample_a_periodic_point(proto, rng.randint(1, 3), rng, b_periodic=False),
                sample_b_periodic_point(proto, rng.randint(1, 3), rng, a_periodic=False),
                sample_nonperiodic_point(proto, rng.randint(1, 3), rng, box=40),
            ):
                ball = build_G2(P, radius=radius)
                shape = classify_component(ball)
                if shape.kind == TREE4:
                    oracle = radial_tree_mu0
                elif shape.kind == ROOT_LOOPED4 and shape.loop_vertex is ball.root:
                    oracle = radial_looped_mu0
                else:
                    continue
                G, ids = FiniteGraph.from_adjacency(ball.simple_adjacency())
                mu0 = dirichlet_mu0(G, graph_ball(G, ids[ball.root], radius - 1))
                assert abs(mu0 - oracle(radius - 1)) < 1e-9, (proto.name, radius, shape.kind)
                seen.add((shape.kind, radius))
    assert {kind for kind, _ in seen} == {TREE4, ROOT_LOOPED4}
    assert {radius for _, radius in seen} == set(range(2, 7))


def test_tree_ball_values_decrease_toward_limit():
    values = []
    for radius in (3, 5, 7):
        G, support = tree_ball_graph(radius)
        values.append(dirichlet_mu0(G, support))
    assert values[0] > values[1] > values[2]
    assert all(v >= TREE_LIMIT - 1e-6 for v in values)


def test_sparse_and_dense_paths_agree():
    # the 485 and 243 vertex supports are those of radius-6 tree and
    # root-looped orbit balls, which the default cutoff would send to ARPACK
    cases = {161: tree_ball_graph(4), 485: tree_ball_graph(5), 243: root_looped_graph(5)}
    for size, (G, support) in cases.items():
        assert len(support) == size
        dense = general_mu0(G, support, dense_cutoff=10**6)
        sparse = general_mu0(G, support, dense_cutoff=1)
        assert dense == pytest.approx(sparse, abs=1e-8)


# -- the layer quotient against the general solver ------------------------------------


def oracle_path(G, support):
    """The way dirichlet_mu0 should answer, by a plain-Python BFS over the
    adjacency sets from the support's boundary: "closed" if it misses a
    vertex, "quotient" if the layers by distance to the boundary are an
    equitable partition, else "general"."""
    adj = G.adjacency()
    front = [v for v in support if adj[v] - support]
    layer = dict.fromkeys(front, 0)
    depth = 0
    while front:
        depth += 1
        front = list(dict.fromkeys(u for v in front for u in adj[v] & support if u not in layer))
        layer.update(dict.fromkeys(front, depth))
    if len(layer) < len(support):
        return "closed"
    per_layer = {}
    for v in support:
        inside = [layer[u] - layer[v] for u in adj[v] & support]
        key = (len(adj[v]), inside.count(-1), inside.count(0), inside.count(1))
        if per_layer.setdefault(layer[v], key) != key:
            return "general"
    return "quotient"


def single_step_ball(radius):
    """The simple view of the L8 single-step ball, with cycles, from a doubly
    non-periodic point."""
    P = SurfacePoint.from_fractions(prototype(8, 0), F(1, 5), F(1, 5), F(2, 5), F(1, 5))
    return expand_ball(P, [("A", 1), ("A", -1), ("B", 1), ("B", -1)], radius).simple_graph()


def layer_cases():
    """(name, graph, support, the way dirichlet_mu0 answers: see
    ``mu0_and_path``)."""
    cases = []
    for radius in range(1, 8):
        cases.append((f"tree r={radius}", *tree_ball_graph(radius), "quotient"))
        cases.append((f"root-looped r={radius}", *root_looped_graph(radius), "quotient"))
    for D, eps in ((8, 0), (5, -1), (17, 1)):
        proto = prototype(D, eps)
        rng = random.Random(f"layer-quotient:{proto.name}")
        for P in (
            sample_a_periodic_point(proto, rng.randint(1, 3), rng, b_periodic=False),
            sample_nonperiodic_point(proto, rng.randint(1, 3), rng, box=40),
        ):
            ball = build_G2(P, radius=6)
            shape = classify_component(ball)
            assert shape.kind == TREE4 or shape.loop_vertex is ball.root, (proto.name, shape)
            G, ids = FiniteGraph.from_adjacency(ball.simple_adjacency())
            cases.append((f"G2 {proto.name} {shape.kind}", G, graph_ball(G, ids[ball.root], 5), "quotient"))
    single = single_step_ball(6)
    cases.append(("one vertex with neighbours outside", single, {7}, "quotient"))
    # a doubly non-periodic L17+1 start whose radius-4 ball has its loop at
    # distance 2 from the root
    ball = build_G2(parse_point(prototype(17, 1), "-22,9,-5,2"), radius=4)
    assert classify_component(ball).loop_vertex is not ball.root
    loop_away, ids = FiniteGraph.from_adjacency(ball.simple_adjacency())
    adj, root, _ = build_root_looped_tree(5)
    looped, looped_ids = FiniteGraph.from_adjacency(adj)
    beside_root = min(looped.adjacency()[looped_ids[root]])
    tree, _ = tree_ball_graph(3)
    depth_3 = min(graph_ball(tree, 0, 3) - graph_ball(tree, 0, 2))
    whole, _ = root_looped_graph(3)
    # the path 0 - 1 - 2 - 3 and the triangle 4 5 6, which no layer reaches
    path_and_triangle = FiniteGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
    cases += [
        ("loop away from the root", loop_away, graph_ball(loop_away, ids[ball.root], 3), "general"),
        ("single-step ball with cycles", single, graph_ball(single, 0, 5), "general"),
        ("off-centre ball", looped, graph_ball(looped, beside_root, 2), "general"),
        ("disconnected", tree, graph_ball(tree, 0, 1) | {depth_3}, "general"),
        ("isolated vertex", FiniteGraph.from_edges(3, [(0, 1)]), {2}, "closed"),
        ("closed component", path_and_triangle, {1, 2, 4, 5, 6}, "closed"),
        ("whole graph", whole, set(range(whole.n)), "closed"),
    ]
    return cases


def test_layer_quotient_runs_exactly_on_equitable_supports():
    for name, G, support, want in layer_cases():
        assert oracle_path(G, support) == want, name
        mu0, path = mu0_and_path(G, support)
        assert path == want, name
        if path == "closed":
            assert mu0 == 0.0 and type(mu0) is float, (name, mu0)
        solvers = [general_mu0(G, support)]
        if path == "quotient" and len(support) <= 1000:
            solvers += [general_mu0(G, support, dense_cutoff=cutoff) for cutoff in (1, 10**6)]
        for general in solvers:
            assert abs(mu0 - general) < 1e-12, (name, mu0, general)


def disjoint_union(*graphs):
    """The disjoint union, each graph's ids shifted past the ones before."""
    edges, n = [], 0
    for H in graphs:
        edges += [(u + n, v + n) for u, v in H.edges]
        n += H.n
    return FiniteGraph.from_edges(n, edges)


def test_closed_components_above_the_cutoff_give_exact_zero():
    # a support with a vertex that the boundary does not reach holds a whole
    # component of G, whose indicator has Rayleigh quotient 0; above the
    # dense cutoff the constant ARPACK start is then an exact kernel vector
    # of a whole graph, which ARPACK cannot start from
    tree_ball = build_G2(parse_point(prototype(8, 0), "1/5,1/5,2/5,1/5"), radius=4)
    assert classify_component(tree_ball).kind == TREE4
    tree = tree_ball.simple_graph()
    looped = {n: FiniteGraph.from_adjacency(build_root_looped_tree(r)[0])[0] for n, r in ((243, 5), (729, 6))}
    open_tree, open_support = tree_ball_graph(3)  # 53 vertices, a boundary
    beside = disjoint_union(open_tree, looped[243])
    wholes = [(tree, 161), (looped[243], 243), (looped[729], 729)]
    for G, size in wholes:
        support = set(range(G.n))
        assert len(support) == size
        assert mu0_and_path(G, support) == (0.0, "closed")
        with pytest.raises(SpectralConvergenceError, match="Starting vector is zero") as info:
            general_mu0(G, support)
        assert info.value.residual is None
    mixed = open_support | set(range(open_tree.n, beside.n))
    assert len(mixed) == 53 + 243 and oracle_path(beside, mixed) == "closed"
    assert mu0_and_path(beside, mixed) == (0.0, "closed")
    assert abs(general_mu0(beside, mixed)) < 1e-12  # ARPACK starts: the open part moves v0


def test_support_matrices_and_dense_mu0_match_the_scipy_ones():
    # the dense branch builds the restricted Laplacian with numpy; it must
    # be the scipy matrix entry for entry, so that eigvalsh, the same LAPACK
    # call on it, returns the same float as eigvalsh of the scipy matrix
    # densified, bit for bit
    cutoff = inspect.signature(dirichlet_mu0).parameters["dense_cutoff"].default
    cases = [(G, support) for G, support in restricted_laplacian_cases() if len(support) <= cutoff]
    cases += [(G, support) for _, G, support, path in layer_cases() if path != "quotient"]
    checked = 0
    for G, support in cases:
        rows = support_rows(G, support)
        want = restricted_laplacian(G, support).toarray()
        assert np.array_equal(_dense_dirichlet_laplacian(*rows), want)
        if len(support) <= cutoff:
            assert general_mu0(G, support) == float(np.linalg.eigvalsh(want)[0])
            checked += 1
    assert checked >= 10, checked


def test_dirichlet_mu0_rejects_ids_that_are_not_ints():
    # a cast to int64 would read 1.5 and "1" as vertex 1, and True as 1; an
    # int past int64 would overflow it
    G = path_graph(4)
    for support in ({1.5, 2}, {"1"}, {True, 2}, {2**63, 1}, {-(2**63) - 1}, {2**100}):
        with pytest.raises(ValueError, match="are not ids of the 4-vertex graph"):
            dirichlet_mu0(G, support)


def test_convergence_error_carries_the_residual_of_the_returned_pair(monkeypatch):
    # 0 - 1 - 2 - 3 - 4 and a leaf 5 on 1: the support {1, 2, 3} has boundary
    # vertices of degree 3 and 2, so its layers are not equitable, and a
    # cutoff of 1 sends its restricted Laplacian [[3,-1,0],[-1,2,-1],[0,-1,2]]
    # to ARPACK
    G = FiniteGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    one = (np.array([1.0]), np.eye(3)[:, :1])  # ||(3,-1,0) - (1,0,0)|| = sqrt(5)
    none = (np.empty(0), np.empty((3, 0)))
    for pair, want in ((one, math.sqrt(5)), (none, None)):

        def no_convergence(*args, pair=pair, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", *pair)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(SpectralConvergenceError) as info:
            dirichlet_mu0(G, {1, 2, 3}, dense_cutoff=1)
        assert info.value.residual == (pytest.approx(want, abs=1e-12) if want else None)


def test_other_arpack_errors_become_convergence_errors(monkeypatch):
    # the support {1, 2, 3} of test_convergence_error_carries_the_residual_of_the_returned_pair
    G = FiniteGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])

    def arpack_error(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-8)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", arpack_error)
    with pytest.raises(SpectralConvergenceError, match="eigensolver failed: ARPACK error -8") as info:
        dirichlet_mu0(G, {1, 2, 3}, dense_cutoff=1)
    assert info.value.residual is None
    assert isinstance(info.value.__cause__, scipy.sparse.linalg.ArpackError)


# -- Cheeger sandwich ---------------------------------------------------------------


def test_sandwich_bracket_values():
    lo, hi = sandwich_bracket(F(2, 3), 4)
    assert lo == pytest.approx((2 / 3) ** 2 / 8)
    assert hi == pytest.approx(8 / 3)


def test_complete_bipartite_sandwich():
    m = 3
    edges = [(i, m + j) for i in range(m) for j in range(m)]
    G = FiniteGraph.from_edges(2 * m, edges)
    support = set(range(2 * m - 1))  # proper subset
    report = cheeger_sandwich_check(G, support)
    assert report.ok, report.describe()


def test_sandwich_on_random_supports(rng):
    checked = 0
    while checked < 20:
        G = random_graph(rng, rng.randint(3, 9), 0.5)
        if not G.edges:
            continue
        size = rng.randint(1, G.n - 1)
        support = set(rng.sample(range(G.n), size))
        report = cheeger_sandwich_check(G, support)
        assert report.ok_lower and report.ok_upper, report.describe()
        checked += 1


def test_cheeger_min_over_subsets_star():
    G = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    c, witness = cheeger_min_over_subsets(G)
    assert c == F(1, 3)  # center plus two leaves
    assert 0 in witness and len(witness) == 3
    with pytest.raises(ValueError, match="empty search space"):
        cheeger_min_over_subsets(G, set())
    with pytest.raises(ValueError, match="empty search space"):
        cheeger_min_over_subsets(FiniteGraph.from_edges(1, []))


# -- graph JSON integration ----------------------------------------------------------


def test_orbit_ball_json_loads_as_finite_graph(L8):
    P = SurfacePoint.from_fractions(L8, F(1, 3), F(1, 3), F(1, 2), F(0))
    data = build_G2(P, radius=2).to_json_dict()
    G = FiniteGraph.from_json_dict(json.loads(json.dumps(data)))
    assert G.n == len(data["vertices"])
    assert is_connected(G)
    assert G.max_degree <= 4


# -- bad vertex ids and radii ---------------------------------------------------------


def test_graph_ball_rejects_bad_inputs():
    G = path_graph(3)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        graph_ball(G, 0, -2)
    for root in (-1, 3, 7):
        with pytest.raises(ValueError, match=f"root {root} is not a vertex id"):
            graph_ball(G, root, 1)
    with pytest.raises(ValueError):
        graph_ball(FiniteGraph.from_edges(0, []), 0, 0)


def test_dirichlet_mu0_rejects_support_outside_graph():
    G = path_graph(3)
    for support in ({-1, 0}, {3}, {0, 1, 2, 5}):
        with pytest.raises(ValueError, match="are not ids of the 3-vertex graph"):
            dirichlet_mu0(G, support)


# -- the CSR path against plain-Python oracles ----------------------------------------
#
# The oracles share no code with lsurf.spectral: the graph is the sorted set
# of (min, max) id pairs with loops dropped, with neighbour lists for the CSR
# rows; the ball is a BFS over those lists, and the Laplacian is built from
# the edge list as a whole-graph sparse matrix, then sliced to the support.


def oracle_graph(adj):
    """(id map, sorted edge list, ascending neighbour list per id) of an
    adjacency dict, vertices numbered in the order of ``adj``."""
    ids = {v: i for i, v in enumerate(adj)}
    edges = sorted(
        {(min(ids[u], ids[v]), max(ids[u], ids[v])) for u in adj for v in adj[u] if u != v}
    )
    nbrs = [[] for _ in ids]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return ids, edges, [sorted(vs) for vs in nbrs]


def oracle_graph_ball(nbrs, root, radius):
    seen = {root}
    layer = [root]
    for _ in range(radius):
        nxt = []
        for v in layer:
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt
    return seen


def oracle_dirichlet_laplacian(n, edges, support):
    """The sparse Laplacian of the whole graph from its edge list, then
    sliced to the sorted support rows and columns."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    diag = np.arange(n)
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    rows = np.concatenate([diag, u, v])
    cols = np.concatenate([diag, v, u])
    data = np.concatenate([np.array(deg, dtype=float), -np.ones(2 * len(u))])
    L = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    idx = sorted(support)
    return L[idx, :][:, idx].toarray()


def assert_csr_matches_oracles(adj, root_radii, supports):
    want_ids, edges, nbrs = oracle_graph(adj)
    n = len(want_ids)
    G, ids = FiniteGraph.from_adjacency(adj)
    assert ids == want_ids
    # from_edges on the same ids, with both directions, duplicates and loops
    H = FiniteGraph.from_edges(n, [(ids[u], ids[v]) for u in adj for v in adj[u]])
    for graph in (G, H):
        assert (graph.n, graph.edges) == (n, tuple(edges))
        assert graph.degrees() == [len(vs) for vs in nbrs]
        assert graph.adjacency() == {i: set(vs) for i, vs in enumerate(nbrs)}
        indptr, indices = graph.csr
        assert indptr.tolist() == [0] + list(itertools.accumulate(map(len, nbrs)))
        assert indices.tolist() == [u for vs in nbrs for u in vs]
        for root, radius in root_radii:
            assert graph_ball(graph, root, radius) == oracle_graph_ball(nbrs, root, radius)
        for support in supports:
            L = oracle_dirichlet_laplacian(n, edges, support)
            got = restricted_laplacian(graph, support).toarray()
            assert np.array_equal(got, L)
            assert abs(dirichlet_mu0(graph, support) - np.linalg.eigvalsh(L)[0]) < 1e-12


def dense_laplacian(G):
    """The full Laplacian of G as a dense array, from its edge list."""
    L = np.zeros((G.n, G.n))
    for u, v in G.edges:
        L[u, v] = L[v, u] = -1
        L[u, u] += 1
        L[v, v] += 1
    return L


def restricted_laplacian_cases():
    """(graph, support) pairs: balls, scattered sets, single vertices and a
    whole graph, on a tree, a root-looped tree and a graph with cycles."""
    rng = random.Random("restricted-laplacian")
    tree, tree_support = tree_ball_graph(3)
    looped, looped_support = root_looped_graph(3)
    P = SurfacePoint.from_fractions(prototype(8, 0), F(1, 5), F(1, 5), F(2, 5), F(1, 5))
    single = expand_ball(P, [("A", 1), ("A", -1), ("B", 1), ("B", -1)], 6).simple_graph()
    assert len(single.edges) > single.n - 1  # has cycles
    return [
        (tree, tree_support),
        (looped, looped_support),
        (single, graph_ball(single, 0, 4)),
        (single, set(rng.sample(range(single.n), 300))),  # scattered, neither ball nor connected
        (single, {7}),
        (tree, {0}),
        (looped, set(range(looped.n))),
    ]


def test_restricted_laplacian_is_the_dense_one_restricted():
    cases = restricted_laplacian_cases()
    for G, support in cases:
        idx = np.array(sorted(support))
        got = restricted_laplacian(G, support)
        want = dense_laplacian(G)[np.ix_(idx, idx)]
        assert isinstance(got, scipy.sparse.csr_matrix) and got.shape == want.shape
        assert np.array_equal(got.toarray(), want)
        # each row lists its diagonal and its inside neighbours once, ascending
        for r in range(idx.size):
            cols = got.indices[got.indptr[r] : got.indptr[r + 1]].tolist()
            assert cols == sorted(set(cols)) and r in cols
    # the tree, looped and single-step ball supports have neighbours outside
    for G, support in cases[:3]:
        adj = G.adjacency()
        assert any(u not in support for v in support for u in adj[v])


def test_from_adjacency_names_missing_neighbours():
    with pytest.raises(ValueError, match=r"neighbours \[1\] are not vertices"):
        FiniteGraph.from_adjacency({0: [1]})
    with pytest.raises(ValueError, match=r"neighbours \[5, 4, 3, 2, 6\] are not"):
        FiniteGraph.from_adjacency({0: [5, 4, 1], 1: [0, 3, 2, 5, 6, 7]})


def random_adjacency(rng, n):
    """Adjacency dict on hashable labels with loops, isolated vertices and
    one-sided entries (v listed under u but not u under v)."""
    labels = [("v", rng.randint(0, 10**6), i) for i in range(n)]
    adj = {v: set() for v in labels}
    for u in labels:
        for v in labels:
            if rng.random() < 0.25:
                adj[u].add(v)
                if rng.random() < 0.7:
                    adj[v].add(u)
    return adj


def test_csr_path_matches_oracles_on_random_graphs():
    rng = random.Random("csr-differential")
    for n in [0, 1, 1, 2] + [rng.randint(2, 14) for _ in range(60)]:
        adj = random_adjacency(rng, n)
        root_radii = [(rng.randrange(n), rng.randint(0, 4)) for _ in range(3)] if n else []
        supports = [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)] if n else []
        assert_csr_matches_oracles(adj, root_radii, supports)
    # a loop, an isolated vertex and a one-sided edge, written out
    adj = {"a": {"a"}, "b": set(), "c": {"a"}}
    assert_csr_matches_oracles(adj, [(0, 2), (1, 1)], [{0}, {0, 1, 2}])


@pytest.mark.parametrize("D,eps", [(8, 0), (5, -1), (17, 1)])
def test_csr_path_matches_oracles_on_orbit_balls(D, eps):
    proto = prototype(D, eps)
    rng = random.Random(f"csr-balls:{proto.name}")
    for P in (
        sample_a_periodic_point(proto, rng.randint(1, 3), rng, b_periodic=False),
        sample_nonperiodic_point(proto, rng.randint(1, 3), rng, box=40),
    ):
        ball = build_G2(P, radius=6)
        adj = ball.simple_adjacency()
        root = list(adj).index(ball.root)
        nbrs = oracle_graph(adj)[2]
        supports = [oracle_graph_ball(nbrs, root, r) for r in (1, 5)]
        assert_csr_matches_oracles(adj, [(root, r) for r in range(7)], supports)
