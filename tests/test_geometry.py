"""Kernel tests: exact solving, boundedness, vertex enumeration, Smith
normal form, fixed subspaces."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (hpoly, oracle_det, oracle_echelon, oracle_kernel,
                      oracle_mat_mul, oracle_rank, oracle_smith_normal_form,
                      oracle_vertices_2d, random_bounded_poly,
                      random_unimodular, signed_permutation_generators,
                      stored_fans, transform_rays)

from toriclct.errors import EmptyPolytope, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, _echelon, _row_times,
                               enumerate_vertices, fixed_subspace,
                               identity_matrix, is_bounded, mat_mul,
                               primitive_vector, smith_normal_form,
                               solve_square_system, transpose)
from toriclct.toric import GroupAction, product_fan

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


def test_solve_reads_entries_exactly_and_rejects_floats():
    assert solve_square_system(((F(3, 2), 0), (0, 1)), (1, 1)) == (F(2, 3), 1)
    assert solve_square_system(((F(1, 3), 0), (0, "0.25")), (1, "1/2")) == (3, 2)
    for matrix, rhs in ((((1.5, 0), (0, 1)), (1, 1)),
                        (((F(1, 3), 0), (0, 0.25)), (1, 0.5)),
                        (((0.1,),), (1,)), (((1,),), ("1/0",))):
        with pytest.raises(ValueError):
            solve_square_system(matrix, rhs)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_square_system(((1, 0), (0, 1)), (1, 2, 3))


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        HalfSpace((0, 0), -1)


def test_halfspace_reads_entries_exactly():
    assert HalfSpace(("1/2", 1), "-0.25") == HalfSpace((F(1, 2), 1), F(-1, 4))
    for normal, offset in (((0.1, 1), 0), ((1, 1), 0.5), (("1/0", 1), 0)):
        with pytest.raises(ValueError):
            HalfSpace(normal, offset)


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
        assert abs(oracle_det(s.u)) == 1
        assert abs(oracle_det(s.v)) == 1
        assert all(s.d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [s.d[i][i] for i in range(n)]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0


def test_snf_rejects_non_integer_entries():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            smith_normal_form(((bad, 0), (0, 2)))


def _seeded_square(rng: random.Random, n: int):
    """An n x n integer matrix, entries up to +-30 with up to 70 % zeros; at
    times with a zero row, a zero column or a row combined from two others."""
    bound = rng.choice((1, 3, 9, 30))
    zeros = rng.choice((0, 0, 0.3, 0.7))
    m = [[0 if rng.random() < zeros else rng.randint(-bound, bound)
          for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(6)
    if shape == 1:
        m[rng.randrange(n)] = [0] * n
    elif shape == 2:
        j = rng.randrange(n)
        for row in m:
            row[j] = 0
    elif shape == 3 and n > 1:
        # a row that is a combination of two others
        i = rng.randrange(n)
        j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return tuple(tuple(row) for row in m)


# the weights of the catalog workload's wps invocations
WPS_WEIGHTS = ((1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 2), (1, 1, 3),
               (1, 2, 3), (2, 3, 5), (1, 1, 2, 3), (1, 2, 2, 3), (3, 4, 5))


def test_snf_matches_the_two_sided_oracle():
    rng = random.Random(22)
    matrices = [_seeded_square(rng, n) for n in range(1, 7) for _ in range(250)]
    # the weight-column matrices that toric.wps_fan decomposes
    matrices += [tuple(tuple(w if j == 0 else 0 for j in range(len(ws)))
                       for w in ws) for ws in WPS_WEIGHTS]
    deficient = 0
    for m in matrices:
        s = smith_normal_form(m)
        assert (s.u, s.d, s.v) == oracle_smith_normal_form(m), m
        assert s.reconstructs(m)
        deficient += oracle_rank(m) < len(m)
    assert 300 <= deficient <= len(matrices) - 300


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


def _echelon_det(m):
    """det of a square integer matrix as _echelon gives it: d when every
    row holds a pivot, else 0."""
    _, pivots, d = _echelon(m, len(m))
    return d if len(pivots) == len(m) else 0


def _echelon_rank(rows):
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def _random_matrix(rng, n_rows, n_cols):
    rows = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.4:
        # a row that is a combination of two others: singular on purpose
        i, j, k = (rng.randrange(n_rows) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


def test_echelon_det_matches_leibniz():
    rng = random.Random(41)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        expected = _leibniz_det(m)
        assert _echelon_det(m) == expected
        singular += expected == 0
    assert singular > 20


def test_echelon_rank_matches_minors():
    rng = random.Random(43)
    deficient = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_matrix(rng, n_rows, n_cols)
        expected = _minor_rank(rows)
        assert _echelon_rank(rows) == expected
        deficient += expected < min(n_rows, n_cols)
    assert deficient > 20
    assert _echelon_rank([]) == 0


def test_mat_mul_matches_entrywise_sums_and_checks_shapes():
    rng = random.Random(53)
    for _ in range(200):
        n_rows, n_inner, n_cols = (rng.randint(1, 4) for _ in range(3))
        a = _random_matrix(rng, n_rows, n_inner)
        b = _random_matrix(rng, n_inner, n_cols)
        assert mat_mul(a, b) == tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n_inner))
                  for j in range(n_cols)) for i in range(n_rows))
        wider = [row + [1] for row in a]
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_mul(wider, b)
        if n_inner > 1:
            with pytest.raises(ValueError, match="dimension mismatch"):
                mat_mul(a, b[1:])
    # one short row among full ones is found too
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        mat_mul(((1, 0), (1,)), ((1, 0), (0, 1)))


def test_mat_mul_rejects_a_ragged_right_factor():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        mat_mul(((1, 0), (0, 1)), ((1, 2, 3), (4, 5)))
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        mat_mul([[0, 1]], [[1, 2], [3, 4, 5]])
    # an empty row of a picks nothing, but b is still checked
    with pytest.raises(ValueError, match="dimension mismatch: 0 vs 1"):
        mat_mul(((0, 0),), ((1,), ()))


def _sparse_matrix(rng, n_rows, n_cols):
    # entries in -3..3, at least half of them 0
    flat = [rng.randint(-3, 3) for _ in range(n_rows * n_cols)]
    for i in rng.sample(range(len(flat)), (len(flat) + 1) // 2):
        flat[i] = 0
    return [flat[i:i + n_cols] for i in range(0, len(flat), n_cols)]


def test_mat_mul_matches_the_dense_oracle_on_sparse_matrices():
    rng = random.Random(59)
    for _ in range(300):
        k, n, m = (rng.randint(1, 6) for _ in range(3))
        a, b = _sparse_matrix(rng, k, n), _sparse_matrix(rng, n, m)
        expected = oracle_mat_mul(a, b)
        result = mat_mul(a, b)
        assert result == expected, (a, b)
        assert all(type(row) is tuple and all(type(c) is int for c in row)
                   for row in result)
        tuples = mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b)))
        assert type(result) is tuple and result == tuples
        assert hash(result) == hash(tuples)


def test_row_times_matches_the_dense_oracle():
    rng = random.Random(61)
    zeros = 0
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        (p,) = _sparse_matrix(rng, 1, n)
        b = tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n))
        result = _row_times(p, b)
        if any(p):
            assert result == oracle_mat_mul((p,), b)[0], (p, b)
        else:
            assert result is None, (p, b)
            zeros += 1
    assert 20 < zeros < 150, zeros


def test_mat_mul_zero_rows_and_empty_factors():
    b = ((1, -2, 3), (4, 5, -6))
    assert mat_mul(((0, 0), (2, -1), (0, 0)), b) == (
        (0, 0, 0), (-2, -9, 12), (0, 0, 0))
    assert mat_mul([[0, 0]], [[1, 2, 3], [4, 5, 6]]) == ((0, 0, 0),)
    for a in ((), ((),), ((), ())):
        assert mat_mul(a, ()) == oracle_mat_mul(a, ()) == tuple(() for _ in a)
    assert mat_mul([[], []], []) == ((), ())
    assert mat_mul(((1, 0), (0, 1)), ((), ())) == ((), ())


@pytest.mark.parametrize("v, expected", [
    ((4, -6, 8), (2, -3, 4)),
    ((-3, -9), (-1, -3)),
    ((0, 5, 0, -10), (0, 1, 0, -2)),
    ((0, 0, -7), (0, 0, -1)),
    ((-12,), (-1,)),
    ((5,), (1,)),
    ((3, 0), (1, 0)),
], ids=["negative", "all_negative", "zeros_between", "one_nonzero",
        "single_negative", "single_positive", "already_primitive"])
def test_primitive_vector_divides_by_the_gcd_and_keeps_the_sign(v, expected):
    assert primitive_vector(v) == primitive_vector(list(v)) == expected
    assert primitive_vector([-c for c in v]) == tuple(-c for c in expected)
    assert all(type(c) is int for c in primitive_vector(v))


@pytest.mark.parametrize("v", [(0, 0), ()], ids=["zero", "empty"])
def test_primitive_vector_rejects_the_zero_vector(v):
    with pytest.raises(ValueError):
        primitive_vector(v)


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


def _oracle_solve(matrix, rhs):
    n = len(matrix)
    reduced, pivots, _ = oracle_echelon(
        [(*row, b) for row, b in zip(matrix, rhs)], n)
    return tuple(row[n] for row in reduced) if len(pivots) == n else None


def _oracle_fixed_subspace(gens):
    n = len(gens[0])
    return oracle_kernel([[g[i][j] - (i == j) for j in range(n)]
                          for g in gens for i in range(n)], n)


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
    named = [signed_permutation_generators(3), signed_permutation_generators(4),
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
            fixed_subspace([((bad, 0), (0, 1))])
    # solve_square_system takes rationals
    assert solve_square_system(((F(1, 2), 0), (0, 1)), (1, F(1, 3))) == (2, F(1, 3))


def test_elimination_matches_the_fraction_oracle():
    rng, squares, others, gen_lists = _elimination_inputs()
    singular = deficient = 0
    for m in squares:
        det = _echelon_det(m)
        assert det == oracle_det(m)
        singular += det == 0
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in m]
        x = solve_square_system(m, b)
        assert x == _oracle_solve(m, b)
        assert x is None or all(type(c) is Fraction for c in x)
    for rows in squares + others:
        rank = _echelon_rank(rows)
        assert rank == oracle_rank(rows)
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


def _echelon_matches_the_oracle(rows, width):
    """_echelon and oracle_echelon agree on rows: the pivot columns, the
    reduced rows over d, and d as the signed product of the pivots. Returns
    the pivot columns."""
    got, pivots, d = _echelon(rows, width)
    reduced, oracle_pivots, det = oracle_echelon(rows, width)
    assert pivots == oracle_pivots, rows
    assert [[F(x, d) for x in row] for row in got] == reduced, rows
    assert d == det, rows
    return pivots


def test_elimination_of_sparse_unimodular_rows_matches_the_fraction_oracle():
    # most updates have a 0 in the pivot column and a pivot equal to the
    # last one, so they leave the row as it is and are skipped
    for n in (2, 3, 4):
        # every signed permutation, alone and beside the identity, which
        # carries its inverse along
        for g in GroupAction.generate(signed_permutation_generators(n)).elements:
            assert len(_echelon_matches_the_oracle(g, n)) == n
            assert len(_echelon_matches_the_oracle(
                [row + e for row, e in zip(g, identity_matrix(n))], n)) == n
    rng = random.Random(57)
    # the [rows^T | I] that the double description's first cone eliminates,
    # for the homogenised rows of product fans, in the stored basis and in a
    # seeded one
    fans = list(stored_fans().values())
    for a, b in rng.sample(list(itertools.combinations(fans, 2)), 10):
        for fan in (product_fan(a, b), product_fan(
                transform_rays(random_unimodular(rng, a.dim), a), b)):
            rows = [(0,) * fan.dim + (1,)] + [(*v, 1) for v in fan]
            cone = [(*col, *e) for col, e in zip(transpose(rows), identity_matrix(fan.dim + 1))]
            assert len(_echelon_matches_the_oracle(cone, len(rows))) == fan.dim + 1


def test_elimination_stops_once_every_row_holds_a_pivot():
    # k rows with an invertible leading k x k block take their pivots in the
    # first k of the width columns; the others are carried, never searched
    rng = random.Random(58)
    for _ in range(60):
        k = rng.randint(1, 4)
        width = k + rng.randint(1, 4)
        extra = _random_matrix(rng, k, width - k + rng.randint(0, 2))
        # a unimodular block with its rows scaled by nonzero integers
        block = [[c * rng.choice((-3, -2, -1, 1, 2, 3)) for c in row]
                 for row in random_unimodular(rng, k)]
        rows = [a + b for a, b in zip(block, extra)]
        assert _echelon_matches_the_oracle(rows, width) == list(range(k))
