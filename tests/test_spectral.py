import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lsurf.schreier import build_G2, build_regular_tree_ball, build_root_looped_tree
from lsurf.spectral import (
    FiniteGraph,
    _laplacian_matrix,
    cheeger_min_over_subsets,
    cheeger_sandwich_check,
    dirichlet_mu0,
    graph_ball,
    sandwich_bracket,
)
from lsurf.surface import SurfacePoint, prototype

TREE_LIMIT = 4 - 2 * math.sqrt(3)


def tree_ball_graph(radius):
    adj, root = build_regular_tree_ball(4, radius + 1)
    G, ids = FiniteGraph.from_adjacency(adj)
    support = graph_ball(G, ids[root], radius)
    return G, support


def path_graph(n):
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return FiniteGraph.from_edges(n, edges)


# -- exact operator identities ---------------------------------------------------


def laplacian_apply(G, b):
    """The sparse Laplacian's entries, checked integral, applied exactly to b."""
    L = _laplacian_matrix(G).tocoo()
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
        if G.is_connected() and q == 0:
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


def test_tree_ball_values_against_radial_oracle():
    # independent oracle: radial reduction to a tridiagonal matrix
    for radius in (1, 2, 3, 5):
        G, support = tree_ball_graph(radius)
        mu0 = dirichlet_mu0(G, support)
        off = np.array([2.0] + [math.sqrt(3.0)] * (radius - 1))
        T = np.diag(off, 1) + np.diag(off, -1)
        mu0_radial = 4 - np.linalg.eigvalsh(T).max()
        assert mu0 == pytest.approx(mu0_radial, abs=1e-8)


def test_tree_ball_values_decrease_toward_limit():
    values = []
    for radius in (3, 5, 7):
        G, support = tree_ball_graph(radius)
        values.append(dirichlet_mu0(G, support))
    assert values[0] > values[1] > values[2]
    assert all(v >= TREE_LIMIT - 1e-6 for v in values)


def root_looped_graph(radius):
    adj, root, _ = build_root_looped_tree(radius + 1)
    G, ids = FiniteGraph.from_adjacency(adj)
    support = graph_ball(G, ids[root], radius)
    return G, support


def test_sparse_and_dense_paths_agree():
    # the 485 and 243 vertex supports are those of radius-6 tree and
    # root-looped orbit balls, which the default cutoff sends to ARPACK
    cases = {161: tree_ball_graph(4), 485: tree_ball_graph(5), 243: root_looped_graph(5)}
    for size, (G, support) in cases.items():
        assert len(support) == size
        dense = dirichlet_mu0(G, support, dense_cutoff=10**6)
        sparse = dirichlet_mu0(G, support, dense_cutoff=1)
        assert dense == pytest.approx(sparse, abs=1e-8)


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
    assert G.is_connected()
    assert G.max_degree <= 4
