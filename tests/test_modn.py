from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsurf.modn import (
    ModNVec,
    _perm_images,
    _UnionFind,
    act,
    component_labels,
    component_table,
    components,
    dense_index,
    multiplicativity_report,
    project,
)
from lsurf.sampling import sample_point
from lsurf.surface import SurfacePoint, apply_A, apply_B, prototype


def vec(N, a, b, c, d):
    return ModNVec(N, a % N, b % N, c % N, d % N)


@st.composite
def modn_vecs(draw):
    from math import gcd

    N = draw(st.integers(min_value=2, max_value=9))
    a = draw(st.integers(min_value=0, max_value=N - 1))
    b = draw(st.integers(min_value=0, max_value=N - 1))
    c = draw(st.integers(min_value=0, max_value=N - 1))
    d = draw(st.integers(min_value=0, max_value=N - 1))
    if gcd(a, b, c, d, N) != 1:
        a = 1  # keep the vector valid without rejection loops
    return ModNVec(N, a, b, c, d)


def test_vec_validation():
    with pytest.raises(ValueError):
        ModNVec(2, 0, 0, 0, 0)  # gcd with N is 2
    with pytest.raises(ValueError):
        ModNVec(3, 3, 0, 0, 1)  # out of range
    v = ModNVec(1, 0, 0, 0, 0)
    assert (v.a, v.b, v.c, v.d) == (0, 0, 0, 0)


def test_act_worked_example():
    assert act(vec(2, 1, 0, 1, 1), "A") == vec(2, 1, 0, 1, 0)


def test_act_fixed_point_mod_1():
    v = ModNVec(1, 0, 0, 0, 0)
    assert act(v, "A") == v and act(v, "B") == v


@given(modn_vecs())
def test_act_invertible(v):
    for gen, inv in (("A", "A-1"), ("B", "B-1")):
        assert act(act(v, gen), inv) == v
        assert act(act(v, inv), gen) == v


def _valid_mask(N):
    a, b, c, d = np.ogrid[:N, :N, :N, :N]
    return (np.gcd(np.gcd(np.gcd(a, b), N), np.gcd(c, d)) == 1).ravel()


def test_vertex_count_n2():
    assert int(_valid_mask(2).sum()) == 15  # 2^4 - 1


@pytest.mark.parametrize("N", [2, 4, 6, 9, 12])
@pytest.mark.parametrize("D,eps", [(8, 0), (17, 1)])
def test_valid_components_cover_valid_vertices(N, D, eps):
    """``components`` tests validity at the roots only; their components
    cover the valid vertices exactly."""
    proto = prototype(D, eps)
    roots = [dense_index(r) for r in components(N, proto)[1]]
    assert np.array_equal(np.isin(component_labels(N, proto), roots), _valid_mask(N))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_generators_are_permutations(N):
    for D, eps in [(8, 0), (5, -1), (17, 1)]:
        for img in _perm_images(N, prototype(D, eps)):
            assert np.array_equal(np.sort(img), np.arange(N**4))


PROTOS = [(8, 0), (5, -1), (17, 1), (12, 0), (13, -1), (41, 1)]


@pytest.mark.parametrize("N", [5, 6])
@pytest.mark.parametrize("D,eps", PROTOS[:3])
def test_inverse_images_match_act(N, D, eps):
    proto = prototype(D, eps)
    invs = [np.argsort(img) for img in _perm_images(N, proto)]
    for i in np.flatnonzero(_valid_mask(N)):
        v = ModNVec(N, *(int(x) for x in np.unravel_index(i, (N,) * 4)))
        for gen, inv in zip(("A-1", "B-1"), invs):
            assert inv[i] == dense_index(act(v, gen, proto))


def test_component_counts_match_reference():
    assert components(1)[0] == 1
    assert components(2)[0] == 5
    assert components(14)[0] == 15


def components_unionfind(N, proto=None):
    """Component count via union-find over explicit edges: an independent
    cross-check of the label propagation in ``components``."""
    proto = proto if proto is not None else prototype(8, 0)
    if N == 1:
        return 1
    size = N**4
    uf = _UnionFind(size)
    imgA, imgB = _perm_images(N, proto)
    for i in range(size):
        uf.union(i, int(imgA[i]))
        uf.union(i, int(imgB[i]))
    mask = _valid_mask(N)
    return len({uf.find(i) for i in range(size) if mask[i]})


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
def test_two_algorithm_agreement(N):
    assert components(N)[0] == components_unionfind(N)


def component_labels_propagation(N, proto):
    """Min-label propagation over A, A^-1, B and B^-1 with pointer jumping:
    an independent oracle for the orbit search of ``component_labels``."""
    imgs = []
    for img in _perm_images(N, proto):
        inv = np.empty_like(img)
        inv[img] = np.arange(N**4, dtype=img.dtype)
        imgs += [img, inv]
    labels = np.arange(N**4, dtype=np.int64)
    while True:
        new = labels
        for img in imgs:
            new = np.minimum(new, labels[img])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@pytest.mark.parametrize(
    "D,eps,N",
    [(D, eps, N) for D, eps in PROTOS for N in range(2, 13)] + [(8, 0, 20), (8, 0, 28)],
)
def test_labels_match_propagation(D, eps, N):
    proto = prototype(D, eps)
    assert np.array_equal(component_labels(N, proto), component_labels_propagation(N, proto))


def test_representatives_are_in_distinct_components():
    count, reps = components(4)
    assert len(reps) == count
    labels = component_labels(4)
    roots = {labels[dense_index(r)] for r in reps}
    assert len(roots) == count


def test_component_table_shape():
    table = component_table(6)
    assert [n for n, _ in table] == [1, 2, 3, 4, 5, 6]
    assert [c for _, c in table] == [1, 5, 1, 8, 1, 5]


def test_multiplicativity_report_structure():
    rows = multiplicativity_report(14)
    assert any(r["N"] == 2 and r["M"] == 7 for r in rows)
    for r in rows:
        assert set(r) == {"N", "M", "C(N)", "C(M)", "C(NM)", "multiplicative"}
        # reported, not asserted: record the observed comparison only
        assert r["multiplicative"] == (r["C(N)"] * r["C(M)"] == r["C(NM)"])


def test_project_examples(L8):
    P = SurfacePoint.from_fractions(L8, F(1, 2), 0, F(1, 2), F(1, 2))
    assert project(P) == ModNVec(2, 1, 0, 1, 1)
    Q = SurfacePoint.from_fractions(L8, 2, 0, 1, 0)
    assert project(Q) == ModNVec(1, 0, 0, 0, 0)


@pytest.mark.parametrize("D,eps", PROTOS)
def test_projection_equivariance_sampled(D, eps, rng):
    proto = prototype(D, eps)
    gens = (("A", 1, "A"), ("A", -1, "A-1"), ("B", 1, "B"), ("B", -1, "B-1"))
    for _ in range(200):
        P = sample_point(proto, rng.randint(1, 10), rng, box=2000)
        g, e, name = gens[rng.randrange(4)]
        moved = apply_A(P, e) if g == "A" else apply_B(P, e)
        assert project(moved) == act(project(P), name, proto)


def test_projection_equivariance_for_higher_powers(L8, rng):
    for _ in range(50):
        P = sample_point(L8, rng.randint(1, 8), rng, box=500)
        k = rng.randint(-6, 6)
        v = project(P)
        for _ in range(abs(k)):
            v = act(v, "A" if k > 0 else "A-1")
        assert v == project(apply_A(P, k))


def test_resource_cap():
    from lsurf.modn import ModNResourceError

    with pytest.raises(ModNResourceError):
        components(40, max_vertices=10**6)
    with pytest.raises(ModNResourceError):
        components(67)  # 67^4 vertices would take about 0.28 GB
    with pytest.raises(ModNResourceError):
        components(216, max_vertices=10**10)  # 216^4 overflows int32 indices


def test_component_table_checks_cap_before_computing(monkeypatch):
    from lsurf import modn

    def refuse(N, proto):
        raise AssertionError(f"component_table computed C({N}) before checking the cap")

    monkeypatch.setattr(modn, "component_labels", refuse)
    with pytest.raises(modn.ModNResourceError):
        component_table(67)
