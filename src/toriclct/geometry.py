"""Exact rational linear algebra and bounded-polytope vertex enumeration.

Corner systems are solved fraction-free in homogeneous integer coordinates,
(x, t) for the point x / t. fractions.Fraction holds stored and returned
values and runs only the Gauss-Jordan routine _echelon. No floats, no epsilon.

Vectors are tuples, matrices are tuples of row tuples. An H-polytope is a
finite intersection of closed halfspaces {w : <normal, w> >= offset}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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
    """Reduced row echelon form over Q, pivoting in the first width columns
    and carrying later columns along: (the nonzero reduced rows, their pivot
    columns, the product of the pivots signed by the row swaps)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            det = -det
        p = a[top][col]
        det *= p
        a[top] = [x / p for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a[:len(pivots)], pivots, det


def _scale_to_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals times the lcm of their denominators: (integers, lcm)."""
    den = lcm(*(c.denominator for c in values))
    return tuple(c.numerator * (den // c.denominator) for c in values), den


def mat_det(m) -> Fraction:
    """Exact determinant by fraction elimination (matrices here are tiny)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    _, pivots, det = _echelon(m, n)
    return det if len(pivots) == n else Fraction(0)


def mat_rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q of a list of row vectors."""
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


def _full_rank_subsets(rows, width: int, depth: int):
    """Yield a triangular form for every depth-subset of rows whose leading
    width columns are linearly independent.

    Rows are integer tuples and may carry trailing payload columns (offsets),
    which the elimination transforms alongside. Pivots are searched among the
    first width columns only. The elimination is fraction-free (Bareiss), so
    all intermediate entries stay integers; each yielded triangle is a list of
    (pivot_col, row) in elimination order.
    """

    def descend(tail, triangle, divisor, picked):
        if picked == depth:
            yield triangle
            return
        # keep enough rows below to still reach the target depth
        budget = len(tail) - (depth - picked) + 1
        for pos in range(budget):
            row = tail[pos]
            pc = next((c for c in range(width) if row[c]), -1)
            if pc < 0:
                continue
            piv = row[pc]
            reduced = []
            for r in tail[pos + 1:]:
                f = r[pc]
                if f:
                    r = tuple((piv * rc - f * pc_rc) // divisor
                              for rc, pc_rc in zip(r, row))
                else:
                    r = tuple(piv * rc // divisor for rc in r)
                if any(r[:width]):
                    reduced.append(r)
            yield from descend(reduced, triangle + [(pc, row)], piv, picked + 1)

    yield from descend(list(rows), [], 1, 0)


def _kernel(triangle, width: int) -> tuple[int, ...]:
    """The primitive integer d, positive at the one non-pivot column, with
    <row, d> = 0 for the width - 1 rows of a _full_rank_subsets triangle.
    Back-substituted last row first (d[pc] is still 0 when its row is
    reached), rescaled by positive factors only, so signs survive."""
    pivot_cols = {pc for pc, _ in triangle}
    d = [int(c not in pivot_cols) for c in range(width)]
    for pc, row in reversed(triangle):
        s = dot(row, d)
        p = row[pc]
        if s % p:
            m = abs(p) // gcd(s, p)
            d = [x * m for x in d]
            s *= m
        d[pc] = -s // p
    g = gcd(*d)
    return tuple(x // g for x in d)


def is_bounded(poly: HPolytope) -> bool:
    """Exact boundedness test: true iff the recession cone {d : <a_i, d> >= 0
    for every i} is {0}, i.e. the normals positively span the ambient space.

    Decided by exhaustive sign analysis: if the normals do not span, any
    kernel direction recedes; otherwise the cone is pointed and a nonzero
    recession direction would lie on an extreme ray cut out by dim-1
    independent normals, so the kernel direction of every independent
    (dim-1)-subset is sign-tested against all normals.
    """
    n = poly.dim
    normals = [row[:-1] for row in _integer_rows(poly)]
    if mat_rank(normals) < n:
        return False
    for triangle in _full_rank_subsets(normals, n, n - 1):
        d = _kernel(triangle, n)
        lo = hi = False
        for a in normals:
            s = dot(a, d)
            if s > 0:
                hi = True
            elif s < 0:
                lo = True
            if lo and hi:
                break
        if not (lo and hi):
            return False
    return True


def enumerate_vertices(poly: HPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of a bounded H-polytope, sorted lexicographically.

    Every dim-subset of halfspaces with independent normals is solved as an
    exact corner system in homogeneous rows (a, -b): its corner is the
    primitive integer (x, t) with t > 0 that every row annihilates, the
    point x / t. Corners failing some <row, (x, t)> >= 0 are dropped and
    coinciding corners share one key.

    Raises Unbounded when the polytope has a recession direction and
    EmptyPolytope when no point satisfies all halfspaces.
    """
    if not is_bounded(poly):
        raise Unbounded("polytope has a recession direction")
    n = poly.dim
    rows = [(*row[:n], -row[n]) for row in _integer_rows(poly)]
    seen: dict[tuple[int, ...], bool] = {}
    for triangle in _full_rank_subsets(rows, n, n):
        corner = _kernel(triangle, n + 1)
        if corner in seen:
            continue
        seen[corner] = all(dot(row, corner) >= 0 for row in rows)
    vertices = sorted(tuple(Fraction(x, corner[n]) for x in corner[:n])
                      for corner, ok in seen.items() if ok)
    if not vertices:
        raise EmptyPolytope("no feasible point")
    return tuple(vertices)


def solve_square_system(matrix, rhs) -> tuple[Fraction, ...] | None:
    """Solve A x = b exactly; None when A is singular.

    Raises ValueError on dimension mismatch.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("dimension mismatch")
    reduced, pivots, _ = _echelon([(*row, b) for row, b in zip(matrix, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in reduced)


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
    a = [list(map(int, row)) for row in matrix]
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
    vectors are returned as primitive integer vectors, one per free column
    of the reduced system, in ascending column order. The identity yields
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
    reduced, pivots, _ = _echelon(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(c == free) for c in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(primitive_vector(_scale_to_integers(vec)[0]))
    return basis
