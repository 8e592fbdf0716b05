"""Shared exact helpers: random polytopes, an independent 2D vertex oracle,
the Fraction Gauss-Jordan oracle, the brute-force Fraction vertex oracle, the
all-products group oracle, the breadth-first closure and greedy-pick oracles,
random unimodular matrices, and group conjugation."""

import functools
import random
from fractions import Fraction
from math import lcm

from toriclct.errors import EmptyPolytope, GroupNotClosed, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, _integer_rows,
                               _scale_to_integers, dot, identity_matrix,
                               mat_det, mat_mul, mat_rank, mat_vec,
                               primitive_vector, solve_square_system)
from toriclct.toric import GroupAction, RaySet


def hpoly(rows):
    """Halfspaces from (a_1, ..., a_n, b) rows meaning <a, w> >= b."""
    return HPolytope(tuple(HalfSpace(tuple(r[:-1]), r[-1]) for r in rows))


def random_bounded_poly(rng: random.Random) -> HPolytope:
    # a box keeps it bounded, offsets <= -1 keep the origin interior
    rows = [(1, 0, rng.randint(-5, -1)), (-1, 0, rng.randint(-5, -1)),
            (0, 1, rng.randint(-5, -1)), (0, -1, rng.randint(-5, -1))]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if a or b:
            rows.append((a, b, rng.randint(-5, -1)))
    return hpoly(rows)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def oracle_vertices_2d(poly) -> set:
    """Vertices of a bounded 2D H-polytope, independently of
    enumerate_vertices: all feasible pairwise boundary intersections, one
    farthest candidate per direction from the lowest point, then an exact
    angular-sort scan that pops non-left turns."""
    hs = poly.halfspaces
    pts = set()
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            x = solve_square_system((hs[i].normal, hs[j].normal),
                                    (hs[i].offset, hs[j].offset))
            if x is not None and poly.contains(x):
                pts.add(x)
    if len(pts) <= 2:
        return pts
    pivot = min(pts, key=lambda p: (p[1], p[0]))
    farthest = {}
    for p in pts:
        if p == pivot:
            continue
        d = (p[0] - pivot[0], p[1] - pivot[1])
        den = lcm(d[0].denominator, d[1].denominator)
        direction = primitive_vector((int(d[0] * den), int(d[1] * den)))
        r2 = d[0] * d[0] + d[1] * d[1]
        if direction not in farthest or farthest[direction][0] < r2:
            farthest[direction] = (r2, p)

    def by_angle(a, b):
        c = _cross(pivot, a, b)
        return -1 if c > 0 else 1

    order = sorted((p for _, p in farthest.values()),
                   key=functools.cmp_to_key(by_angle))
    hull = [pivot]
    for q in order:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], q) <= 0:
            hull.pop()
        hull.append(q)
    return set(hull)


# The Gauss-Jordan elimination over Fraction that geometry replaced, kept as
# the reference.


def oracle_echelon(rows, width: int):
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
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a[:len(pivots)], pivots, det


# The brute-force corner kernel that geometry replaced, kept as the
# reference: every full-rank subset of halfspaces, corners solved over Q.


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


def _back_substitute(triangle, x: list) -> list:
    """Solve a triangle from _full_rank_subsets for the pivot entries of x,
    last row first: <row[:width], x> = row[width] (0 if absent), width =
    len(x). The entries of x off the pivot columns are given."""
    width = len(x)
    for pc, row in reversed(triangle):
        acc = Fraction(row[width] if len(row) > width else 0)
        for c in range(width):
            if c != pc and row[c]:
                acc -= row[c] * x[c]
        x[pc] = acc / row[pc]
    return x


def oracle_is_bounded(poly: HPolytope) -> bool:
    """Boundedness by sign-testing the kernel direction of every independent
    (dim-1)-subset of normals, solved over Q."""
    n = poly.dim
    normals = [row[:-1] for row in _integer_rows(poly)]
    if mat_rank(normals) < n:
        return False
    for triangle in _full_rank_subsets(normals, n, n - 1):
        # the kernel of the n-1 rows: 1 at the free column, solved for the rest
        pivot_cols = {pc for pc, _ in triangle}
        d = [Fraction(c not in pivot_cols) for c in range(n)]
        d = _scale_to_integers(_back_substitute(triangle, d))[0]
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


def oracle_enumerate_vertices(poly: HPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices by solving every dim-subset of halfspaces over Q, dropping
    infeasible corners and deduplicating equal ones; sorted."""
    if not oracle_is_bounded(poly):
        raise Unbounded("polytope has a recession direction")
    n = poly.dim
    rows = _integer_rows(poly)
    seen: dict[tuple[Fraction, ...], bool] = {}
    for triangle in _full_rank_subsets(rows, n, n):
        point = tuple(_back_substitute(triangle, [0] * n))
        if point in seen:
            continue
        nums, den = _scale_to_integers(point)
        ok = True
        for row in rows:
            s = 0
            for a, p in zip(row, nums):
                if a:
                    s += a * p
            if s < row[n] * den:
                ok = False
                break
        seen[point] = ok
    vertices = sorted(p for p, ok in seen.items() if ok)
    if not vertices:
        raise EmptyPolytope("no feasible point")
    return tuple(vertices)


def oracle_is_group(elements) -> bool:
    """Whether an element list is a group, by the all-products check: every
    element square of one dimension with |det| = 1, no repeats, the
    identity present, and all |G|^2 products in the list."""
    elements = tuple(tuple(tuple(int(c) for c in row) for row in g)
                     for g in elements)
    if not elements:
        return False
    n = len(elements[0])
    for g in elements:
        if len(g) != n or any(len(row) != n for row in g):
            return False
        if abs(mat_det(g)) != 1:
            return False
    table = set(elements)
    if len(table) != len(elements):
        return False
    if identity_matrix(n) not in table:
        return False
    return all(mat_mul(g, h) in table for g in elements for h in elements)


# The group closure that GroupAction replaced, kept as the reference: a
# breadth-first closure, rebuilt from the identity after every greedy pick.


def oracle_closure(gens, cap: int) -> set:
    """The products of gens, by breadth-first multiplication from the
    identity; stops as soon as more than cap elements are found."""
    elements = {identity_matrix(len(gens[0]))}
    frontier = list(elements)
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                prod = mat_mul(g, h)
                if prod not in elements:
                    elements.add(prod)
                    fresh.append(prod)
                    if len(elements) > cap:
                        return elements
        frontier = fresh
    return elements


def oracle_greedy_picks(elements) -> tuple:
    """The elements outside the closure of the ones picked before them, in
    element order. Raises ValueError for a pick with |det| != 1 and
    GroupNotClosed when the closure of the picks leaves the list."""
    table = set(elements)
    span = {identity_matrix(len(elements[0]))}
    gens = []
    for g in elements:
        if g not in span:
            if abs(mat_det(g)) != 1:
                raise ValueError(f"element {g} is not unimodular")
            gens.append(g)
            span = oracle_closure(gens, len(elements))
            if not span <= table:
                raise GroupNotClosed(
                    "element list is not closed under product")
    return tuple(gens)


def random_unimodular(rng: random.Random, n: int):
    """Product of elementary integer row operations: |det| = 1 by
    construction."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(6, 12)):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def inverse_unimodular(m):
    n = len(m)
    cols = []
    for j in range(n):
        x = solve_square_system(m, tuple(int(i == j) for i in range(n)))
        assert all(c.denominator == 1 for c in x)
        cols.append([c.numerator for c in x])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def transform_rays(u, rays: RaySet) -> RaySet:
    return RaySet(tuple(mat_vec(u, v) for v in rays))


def conjugate_group(u, u_inv, group: GroupAction) -> GroupAction:
    return GroupAction(tuple(sorted(
        mat_mul(mat_mul(u, g), u_inv) for g in group.elements)))
