"""Kernel tests: exact solving, boundedness, vertex enumeration, Smith
normal form, fixed subspaces."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (hpoly, oracle_echelon, oracle_vertices_2d,
                      random_bounded_poly)

from toriclct.errors import EmptyPolytope, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, _echelon,
                               _scale_to_integers, enumerate_vertices,
                               fixed_subspace, identity_matrix, is_bounded,
                               mat_det, mat_rank, primitive_vector,
                               smith_normal_form, solve_square_system,
                               transpose)
from toriclct.toric import GroupAction

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


def test_snf_rejects_non_integer_entries():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            smith_normal_form(((bad, 0), (0, 2)))


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


# ---------------------------------------------------------------------------
# the elimination against the Fraction Gauss-Jordan oracle in conftest


def _oracle_det(m):
    _, pivots, det = oracle_echelon(m, len(m))
    return det if len(pivots) == len(m) else 0


def _oracle_solve(matrix, rhs):
    n = len(matrix)
    reduced, pivots, _ = oracle_echelon(
        [(*row, b) for row, b in zip(matrix, rhs)], n)
    return tuple(row[n] for row in reduced) if len(pivots) == n else None


def _oracle_fixed_subspace(gens):
    n = len(gens[0])
    rows = [[g[i][j] - (i == j) for j in range(n)] for g in gens for i in range(n)]
    reduced, pivots, _ = oracle_echelon(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [F(c == free) for c in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(primitive_vector(_scale_to_integers(vec)[0]))
    return basis


def _fixing_generators(rng, n):
    """One to three matrices I + M whose M lie in one row space of dimension
    < n, so that they fix a nonzero subspace."""
    low = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
    gens = []
    for _ in range(rng.randint(1, 3)):
        coefficients = [[rng.randint(-2, 2) for _ in low] for _ in range(n)]
        gens.append(tuple(tuple(sum(c * r[j] for c, r in zip(cs, low)) + (i == j)
                                for j in range(n))
                          for i, cs in enumerate(coefficients)))
    return gens


def _signed_permutation_generators(n):
    """A transposition, an n-cycle and one sign change: they generate B_n."""
    eye = [list(row) for row in identity_matrix(n)]
    return [[eye[1], eye[0]] + eye[2:], eye[1:] + eye[:1],
            [[-1] + [0] * (n - 1)] + eye[1:]]


def _elimination_inputs():
    """Seeded integer matrices, singular and rank-deficient ones included,
    and the transposed generators of B3, B4, S3 on P2 and S4 on P3, as
    (square matrices, further matrices of mixed shape, generator lists)."""
    rng = random.Random(53)
    squares, others, gen_lists = [], [], []
    for _ in range(300):
        n = rng.randint(1, 5)
        squares.append(_random_matrix(rng, n, n))
        others.append(_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
        gen_lists += [[squares[-1]], _fixing_generators(rng, n)]
    named = [_signed_permutation_generators(3), _signed_permutation_generators(4),
             [((0, 1), (1, 0)), ((0, -1), (1, -1))],
             [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
              ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]]
    for gens in named:
        group = GroupAction.generate(gens)
        transposed = [transpose(g) for g in group.generators]
        squares += transposed
        gen_lists.append(transposed)
        others.append([row for g in transposed for row in g])
    return rng, squares, others, gen_lists


def test_elimination_rejects_non_integer_entries():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            mat_det(((bad, 0), (0, 1)))
        with pytest.raises(ValueError, match="non-integer"):
            mat_rank([(1, bad)])
        with pytest.raises(ValueError, match="non-integer"):
            fixed_subspace([((bad, 0), (0, 1))])
    # solve_square_system takes rationals
    assert solve_square_system(((F(1, 2), 0), (0, 1)), (1, F(1, 3))) == (2, F(1, 3))


def test_elimination_matches_the_fraction_oracle():
    rng, squares, others, gen_lists = _elimination_inputs()
    singular = deficient = 0
    for m in squares:
        det = mat_det(m)
        assert det == _oracle_det(m)
        singular += det == 0
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in m]
        x = solve_square_system(m, b)
        assert x == _oracle_solve(m, b)
        assert x is None or all(type(c) is Fraction for c in x)
    for rows in squares + others:
        rank = mat_rank(rows)
        assert rank == len(oracle_echelon(rows, len(rows[0]))[1])
        deficient += rank < min(len(rows), len(rows[0]))
        # the integer rows over d are the oracle's reduced rows, with the
        # columns past width carried along
        width = rng.randint(1, len(rows[0]))
        got, pivots, d = _echelon(rows, width)
        reduced, oracle_pivots, det = oracle_echelon(rows, width)
        assert pivots == oracle_pivots
        assert [[F(x, d) for x in row] for row in got] == reduced
        assert all(type(x) is int for row in got for x in row)
        if len(rows) == width == len(pivots):
            assert d == det
    fixing = 0
    for gens in gen_lists:
        basis = fixed_subspace(gens)
        assert basis == _oracle_fixed_subspace(gens)
        fixing += bool(basis)
    assert singular > 30 and deficient > 60 and 300 < fixing < len(gen_lists) - 30
