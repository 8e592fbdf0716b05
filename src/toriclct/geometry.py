"""Exact rational linear algebra and bounded-polytope vertex enumeration.

Boundedness and vertices come from one double description routine: the
extreme rays of a pointed cone, as primitive integer vectors, each with the
rows it is tight at as an int bitmask; a vertex is a ray (x, t) of the
homogenised cone, the point x / t. Eliminations run in integers, fraction
free; fractions.Fraction holds only halfspaces, returned points and
solutions. No floats, no epsilon.

Vectors are tuples, matrices are tuples of row tuples. An H-polytope is a
finite intersection of closed halfspaces {w : <normal, w> >= offset}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Sequence

from .errors import EmptyPolytope, Unbounded

# The value type for every threshold and coordinate: exact p/q, reduced,
# positive denominator, arbitrary precision. fractions.Fraction guarantees
# all of that.
Rational = Fraction


# ---------------------------------------------------------------------------
# vector and matrix helpers


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def _integers(v, what: str) -> tuple[int, ...]:
    """The entries of v, which must be integers: no floats, no Fractions."""
    v = tuple(v)
    try:
        return tuple(map(index, v))
    except TypeError:
        raise ValueError(f"{what} {v} has a non-integer entry") from None


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """The primitive part of a nonzero integer vector: v divided by gcd(v)."""
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(c // g for c in v)


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _echelon(rows, width: int):
    """Fraction-free Gauss-Jordan over Z (Bareiss 1968; divisions are exact),
    pivoting in the first width columns, carrying later ones: (the nonzero
    rows, their pivot columns, d). Each row is d at its own pivot column and 0
    at the others, so row / d is the reduced row echelon form over Q; a swap
    negates the row it moves down, so d is det of a full-rank square matrix."""
    a = [_integers(row, "matrix row") for row in rows]
    pivots: list[int] = []
    d = 1
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], [-x for x in a[top]]
        p = a[top][col]
        for r in range(len(a)):
            if r != top:
                f = a[r][col]
                a[r] = [(p * x - f * y) // d for x, y in zip(a[r], a[top])]
        d = p
        pivots.append(col)
    return a[:len(pivots)], pivots, d


def _scale_to_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals times the lcm of their denominators: (integers, lcm)."""
    den = lcm(*(c.denominator for c in values))
    return tuple(c.numerator * (den // c.denominator) for c in values), den


def mat_det(m) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    _, pivots, det = _echelon(m, n)
    return det if len(pivots) == n else 0


def mat_rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q of a list of integer row vectors."""
    rows = list(rows)
    return len(_echelon(rows, len(rows[0]))[1]) if rows else 0


# ---------------------------------------------------------------------------
# H-polytopes


@dataclass(frozen=True)
class HalfSpace:
    """The closed halfspace {w : <normal, w> >= offset}."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        normal = tuple(Fraction(c) for c in self.normal)
        if not normal or all(c == 0 for c in normal):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    def contains(self, point: Sequence) -> bool:
        return dot(self.normal, point) >= self.offset


@dataclass(frozen=True)
class HPolytope:
    """An intersection of finitely many halfspaces of one dimension."""

    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        halfspaces = tuple(self.halfspaces)
        if not halfspaces:
            raise ValueError("need at least one halfspace")
        d = halfspaces[0].dim
        if any(h.dim != d for h in halfspaces):
            raise ValueError("halfspaces of mixed dimension")
        object.__setattr__(self, "halfspaces", halfspaces)

    @property
    def dim(self) -> int:
        return self.halfspaces[0].dim

    def contains(self, point: Sequence) -> bool:
        return all(h.contains(point) for h in self.halfspaces)


def _integer_rows(poly: HPolytope) -> list[tuple[int, ...]]:
    """Each halfspace rescaled to integer entries, as (normal..., offset)."""
    return [_scale_to_integers((*h.normal, h.offset))[0]
            for h in poly.halfspaces]


def _extreme_rays(rows, d: int):
    """The extreme rays of the pointed cone {y : <row, y> >= 0 for every
    row}, by double description (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996); None when the integer rows have rank < d.

    Each ray is a pair (primitive integer tuple, int bitmask of the rows it
    is tight at). The first cone is cut by the first d independent rows B in
    input order: one elimination of the transposed rows beside the identity
    picks B and gives det(B) B^-T, whose rows times det(B) are its rays. Every
    other row is inserted in turn: a ray on its positive side and one on its
    negative side combine into a ray on its hyperplane iff they are adjacent,
    that is, their common tight rows Z number at least d - 2 and no third ray
    is tight at all of Z. The test is combinatorial, so it stays exact on
    degenerate cones.
    """
    eliminated, basis, det = _echelon(
        [(*col, *e) for col, e in zip(transpose(rows), identity_matrix(d))], len(rows))
    if len(basis) < d:
        return None
    tight = sum(1 << i for i in basis)
    rays = [(primitive_vector([det * x for x in row[-d:]]), tight ^ (1 << i))
            for row, i in zip(eliminated, basis)]
    for k, row in enumerate(rows):
        if k in basis:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for y, mask in rays:
            s = dot(row, y)
            if s > 0:
                pos.append((s, y, mask))
                kept.append((y, mask))
            elif s < 0:
                neg.append((s, y, mask))
            else:
                kept.append((y, mask | bit))
        # distinct extreme rays of a pointed cone have distinct tight sets
        masks = [mask for _, mask in rays]
        for sp, p, mp in pos:
            for sn, q, mq in neg:
                z = mp & mq
                if z.bit_count() < d - 2 or any(
                        m & z == z and m != mp and m != mq for m in masks):
                    continue
                y = primitive_vector([sp * b - sn * a for a, b in zip(p, q)])
                kept.append((y, z | bit))
        rays = kept
    return rays


def is_bounded(poly: HPolytope) -> bool:
    """Exact boundedness test: true iff the recession cone {d : <a_i, d> >= 0
    for every i} is {0}, i.e. the normals positively span the ambient space.

    Decided by double description on the normals alone: the polytope is
    bounded iff they have full rank, so that the cone is pointed, and the
    cone has no extreme ray.
    """
    normals = [row[:-1] for row in _integer_rows(poly)]
    return _extreme_rays(normals, poly.dim) == []


def enumerate_vertices(poly: HPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of a bounded H-polytope, sorted lexicographically.

    The vertices are the extreme rays (x, t) with t > 0 of the homogenised
    cone {(x, t) : t >= 0, <a, x> - b t >= 0}, found by double description
    with the row t >= 0 inserted first; each is the point x / t.

    Raises Unbounded when the polytope has a recession direction (the rows
    have rank < dim + 1, or some extreme ray has t = 0) and EmptyPolytope
    when no point satisfies all halfspaces (no extreme ray at all).
    """
    n = poly.dim
    rows = [(0,) * n + (1,)] + [(*row[:n], -row[n]) for row in _integer_rows(poly)]
    rays = _extreme_rays(rows, n + 1)
    if rays is None or any(y[n] == 0 for y, _ in rays):
        raise Unbounded("polytope has a recession direction")
    if not rays:
        raise EmptyPolytope("no feasible point")
    # integer keys over the common denominator sort faster than Fractions
    den = lcm(*(y[n] for y, _ in rays))
    points = sorted((y for y, _ in rays),
                    key=lambda y: [x * (den // y[n]) for x in y[:n]])
    return tuple(tuple(Fraction(x, y[n]) for x in y[:n]) for y in points)


def solve_square_system(matrix, rhs) -> tuple[Fraction, ...] | None:
    """Solve A x = b exactly for rational A and b; None when A is singular.

    Raises ValueError on dimension mismatch.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("dimension mismatch")
    reduced, pivots, d = _echelon(
        [_scale_to_integers((*row, b))[0] for row, b in zip(matrix, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], d) for row in reduced)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ a @ v == d with u, v unimodular and d = diag(d1 | d2 | ...) >= 0."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def reconstructs(self, matrix) -> bool:
        return mat_mul(mat_mul(self.u, matrix), self.v) == tuple(
            tuple(row) for row in self.d)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Exact Smith decomposition of a square integer matrix.

    Classical pivoting: move a minimal nonzero entry to the diagonal, clear
    its row and column by Euclidean steps, then repair divisibility of the
    trailing block by folding an offending row into the pivot row. All
    operations are recorded in u (rows) and v (columns).
    """
    n = len(matrix)
    a = [list(_integers(row, "matrix row")) for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    u = [list(row) for row in identity_matrix(n)]
    v = [list(row) for row in identity_matrix(n)]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (best is None
                                    or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            if i != t:
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
                for row in v:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            dirty = False
            for r in range(t + 1, n):
                if a[r][t]:
                    add_row(r, t, -(a[r][t] // p))
                    dirty = dirty or bool(a[r][t])
            for c in range(t + 1, n):
                if a[t][c]:
                    add_col(c, t, -(a[t][c] // p))
                    dirty = dirty or bool(a[t][c])
            if dirty:
                continue
            p = a[t][t]
            offender = next((r for r in range(t + 1, n)
                             if any(x % p for x in a[r])), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    freeze = lambda m: tuple(tuple(row) for row in m)
    return SmithDecomposition(freeze(u), freeze(a), freeze(v))


# ---------------------------------------------------------------------------
# fixed subspaces of matrix groups


def fixed_subspace(gens) -> list[tuple[int, ...]]:
    """Basis of the common fixed subspace {w : g w = w for every g}.

    Computed as the kernel over Q of the stacked matrices g - I; basis
    vectors are primitive integer vectors, one per free column of the reduced
    system and positive there, in ascending column order. The identity yields
    the standard basis; an empty list means the fixed subspace is {0}.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one matrix")
    n = len(gens[0])
    rows = []
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("matrices must be square of one dimension")
        rows += ([g[i][j] - (i == j) for j in range(n)] for i in range(n))
    reduced, pivots, d = _echelon(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [d * d * (c == free) for c in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -d * row[free]
        basis.append(primitive_vector(vec))
    return basis
