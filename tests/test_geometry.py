"""Kernel tests: exact solving, boundedness, vertex enumeration, Smith
normal form, fixed subspaces."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import hpoly, oracle_vertices_2d, random_bounded_poly

from toriclct.errors import EmptyPolytope, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, enumerate_vertices,
                               fixed_subspace, identity_matrix, is_bounded,
                               mat_det, mat_rank, smith_normal_form,
                               solve_square_system)

F = Fraction

BOX = hpoly([(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)])
P2_DUAL = hpoly([(1, 0, -1), (0, 1, -1), (-1, -1, -1)])
P112_DUAL = hpoly([(1, 0, -1), (0, 1, -1), (-1, -2, -1)])


def test_solve_identity():
    assert solve_square_system(((1, 0), (0, 1)), (3, F(-1, 2))) == (3, F(-1, 2))


def test_solve_singular_is_none():
    assert solve_square_system(((1, 1), (1, 1)), (0, 1)) is None


def test_solve_2x2():
    x = solve_square_system(((2, 1), (1, 3)), (1, 0))
    assert x == (F(3, 5), F(-1, 5))
    assert (2 * x[0] + x[1], x[0] + 3 * x[1]) == (1, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_square_system(((1, 0), (0, 1)), (1, 2, 3))


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        HalfSpace((0, 0), -1)


def test_polytope_rejects_mixed_dims():
    with pytest.raises(ValueError):
        HPolytope((HalfSpace((1,), -1), HalfSpace((1, 0), -1)))


def test_box_is_bounded():
    assert is_bounded(BOX)


def test_single_halfspace_is_unbounded():
    assert not is_bounded(hpoly([(1, 0, -1)]))


def test_p2_dual_is_bounded():
    assert is_bounded(P2_DUAL)


def test_box_vertices():
    assert enumerate_vertices(BOX) == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_p2_dual_vertices():
    assert enumerate_vertices(P2_DUAL) == ((-1, -1), (-1, 2), (2, -1))


def test_p112_dual_vertices():
    assert enumerate_vertices(P112_DUAL) == ((-1, -1), (-1, 1), (3, -1))


def test_enumerate_unbounded_raises():
    with pytest.raises(Unbounded):
        enumerate_vertices(hpoly([(1, 0, -1), (0, 1, -1)]))


def test_enumerate_empty_raises():
    # x >= 1 and -x >= 1 cannot both hold
    with pytest.raises(EmptyPolytope):
        enumerate_vertices(hpoly([(1, 0, 1), (-1, 0, 1), (0, 1, -1), (0, -1, -1)]))


def test_vertices_satisfy_every_halfspace():
    rng = random.Random(11)
    for _ in range(25):
        poly = random_bounded_poly(rng)
        for w in enumerate_vertices(poly):
            for h in poly.halfspaces:
                assert sum(a * c for a, c in zip(h.normal, w)) >= h.offset


def test_vertex_maximum_dominates_interior_samples():
    """Any linear functional over the polytope is maximized on a vertex:
    10^4 random convex combinations never beat the vertex maximum."""
    rng = random.Random(7)
    poly = random_bounded_poly(rng)
    verts = enumerate_vertices(poly)
    a = (F(3), F(-2))
    vmax = max(a[0] * w[0] + a[1] * w[1] for w in verts)
    for _ in range(10_000):
        weights = [F(rng.randint(0, 20)) for _ in verts]
        total = sum(weights) or F(1)
        pt = [sum(t * v[i] for t, v in zip(weights, verts)) / total
              for i in range(2)]
        assert a[0] * pt[0] + a[1] * pt[1] <= vmax


def test_agrees_with_angular_sort_oracle():
    rng = random.Random(23)
    for _ in range(50):
        poly = random_bounded_poly(rng)
        assert set(enumerate_vertices(poly)) == oracle_vertices_2d(poly)


def test_snf_identity():
    eye = identity_matrix(3)
    s = smith_normal_form(eye)
    assert s.d == eye
    assert s.reconstructs(eye)


def test_snf_diag_2_3():
    s = smith_normal_form(((2, 0), (0, 3)))
    assert s.d == ((1, 0), (0, 6))
    assert s.reconstructs(((2, 0), (0, 3)))


def test_snf_zero_matrix():
    s = smith_normal_form(((0,),))
    assert s.d == ((0,),)
    assert s.reconstructs(((0,),))


def test_snf_random_reconstruction():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        s = smith_normal_form(m)
        assert s.reconstructs(m)
        assert abs(mat_det(s.u)) == 1
        assert abs(mat_det(s.v)) == 1
        assert all(s.d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [s.d[i][i] for i in range(n)]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0


def test_fixed_subspace_identity():
    assert fixed_subspace([((1, 0), (0, 1))]) == [(1, 0), (0, 1)]


def test_fixed_subspace_swap():
    assert fixed_subspace([((0, 1), (1, 0))]) == [(1, 1)]


def test_fixed_subspace_minus_identity():
    assert fixed_subspace([((-1, 0), (0, -1))]) == []


def test_fixed_subspace_mixed_dims():
    with pytest.raises(ValueError):
        fixed_subspace([((1, 0), (0, 1)), ((1,),)])


def test_fraction_axioms_smoke():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# the elimination against independent oracles


def _leibniz_det(m):
    """Sum over permutations of sign * product: no elimination at all."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _minor_rank(rows):
    """The largest k with a nonzero k x k minor."""
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(len(rows[0])), k):
                if _leibniz_det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _random_matrix(rng, n_rows, n_cols):
    rows = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.4:
        # a row that is a combination of two others: singular on purpose
        i, j, k = (rng.randrange(n_rows) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


def test_mat_det_matches_leibniz():
    rng = random.Random(41)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        expected = _leibniz_det(m)
        assert mat_det(m) == expected
        singular += expected == 0
    assert singular > 20


def test_mat_rank_matches_minors():
    rng = random.Random(43)
    deficient = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_matrix(rng, n_rows, n_cols)
        expected = _minor_rank(rows)
        assert mat_rank(rows) == expected
        deficient += expected < min(n_rows, n_cols)
    assert deficient > 20
    assert mat_rank([]) == 0


def test_solve_square_system_satisfies_equations():
    rng = random.Random(47)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        x = solve_square_system(m, b)
        if _leibniz_det(m) == 0:
            assert x is None
            singular += 1
        else:
            assert [sum(a * c for a, c in zip(row, x)) for row in m] == b
    assert singular > 20
