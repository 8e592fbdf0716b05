"""Shared exact helpers: random polytopes, a fan's dual polytope, an
independent 2D vertex oracle, the Fraction Gauss-Jordan oracle with the
determinant, rank, kernel and square solve read off it, the brute-force
Fraction vertex oracle, the double description with its full adjacency scan,
the Fraction vertex-pairing threshold oracle, the dense matrix product, the
two-sided Smith normal form, the all-products group oracle, the
breadth-first closure and greedy-pick oracles, random unimodular matrices
and their inverses, group conjugation, seeded complete ray sets that are not
products, the (fan, group) setups of acceptance criterion 6 and its subgroup
draw, the stored fans, the generators of the signed permutation groups, a
call's outcome, and the calls fixture that logs the calls of a wrapped name.

Every oracle, and inverse_unimodular, has an elimination of its own: its
determinants, ranks, kernels, solutions and first cones come from the
Fraction oracle, and none calls the package's elimination. oracle_toric_lct
takes vertices and boundedness from enumerate_vertices and is_bounded, which
tests/test_kernel.py holds to oracle_enumerate_vertices and
oracle_is_bounded."""

import functools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from toriclct.database import load_builtin
from toriclct.errors import (EmptyPolytope, FanNotComplete,
                             GroupDoesNotPreserveFan, GroupNotClosed,
                             ToolkitError, Unbounded)
from toriclct.geometry import (HalfSpace, HPolytope, _integer_rows,
                               _scale_to_integers, dot, enumerate_vertices,
                               identity_matrix, is_bounded, mat_mul, mat_vec,
                               primitive_vector, transpose)
from toriclct.toric import (GroupAction, RaySet, ToricLctReport, product_fan,
                            projective_space_fan, toric_lct)


@pytest.fixture
def calls(monkeypatch):
    """calls(owners, name) wraps name on each owner that binds it, an owner
    being a module, a class or a tuple of them, and returns the one list to
    which every call appends its positional arguments; keyword arguments
    pass through. monkeypatch puts the names back."""
    def record(owners, name):
        log = []

        def logged(original):
            def wrapper(*args, **kwargs):
                log.append(args)
                return original(*args, **kwargs)
            return wrapper

        owners = [o for o in (owners if isinstance(owners, tuple) else (owners,))
                  if name in vars(o)]
        if not owners:
            raise AttributeError(f"no owner binds {name!r}")
        for owner in owners:
            monkeypatch.setattr(owner, name, logged(vars(owner)[name]))
        return log
    return record


def outcome(fn, *args):
    """fn(*args), or the type of the ToolkitError it raises."""
    try:
        return fn(*args)
    except ToolkitError as exc:
        return type(exc)


def stored_fans() -> dict:
    """The 18 stored fans of the builtin table, by family id text."""
    return {str(rec.id): rec.fan for rec in load_builtin().records
            if rec.fan is not None}


def signed_permutation_generators(n):
    """A transposition, an n-cycle and one sign change: they generate B_n."""
    eye = [list(row) for row in identity_matrix(n)]
    return [[eye[1], eye[0]] + eye[2:], eye[1:] + eye[:1],
            [[-1] + [0] * (n - 1)] + eye[1:]]


def hpoly(rows):
    """Halfspaces from (a_1, ..., a_n, b) rows meaning <a, w> >= b."""
    return HPolytope(tuple(HalfSpace(tuple(r[:-1]), r[-1]) for r in rows))


def dual_polytope(rays):
    """The polytope {w : <w, v> >= -1 for every ray v}."""
    return HPolytope(tuple(HalfSpace(v, -1) for v in rays))


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
            x = oracle_solve((hs[i].normal, hs[j].normal),
                             (hs[i].offset, hs[j].offset))
            if x is not None and all(dot(h.normal, x) >= h.offset for h in hs):
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


def oracle_det(m):
    """Determinant of a square matrix: 0 when it is singular."""
    _, pivots, det = oracle_echelon(m, len(m))
    return det if len(pivots) == len(m) else 0


def oracle_rank(rows) -> int:
    """Rank over Q of a nonempty list of rows of one length."""
    return len(oracle_echelon(rows, len(rows[0]))[1])


def oracle_kernel(rows, n: int) -> list:
    """A basis of {x in Q^n : <row, x> = 0 for every row}: one primitive
    integer vector per free column of the reduced rows, positive there, in
    column order."""
    reduced, pivots, _ = oracle_echelon(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(c == free) for c in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(primitive_vector(_scale_to_integers(vec)[0]))
    return basis


def oracle_solve(matrix, rhs):
    """The x with matrix x = rhs over Q, for a square matrix: None when it is
    singular."""
    n = len(matrix)
    reduced, pivots, _ = oracle_echelon(
        [(*row, b) for row, b in zip(matrix, rhs)], n)
    return tuple(row[n] for row in reduced) if len(pivots) == n else None


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
    if oracle_rank(normals) < n:
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


# The double description that geometry sped up, kept as the reference: every
# (+, -) pair with d - 2 common tight rows scans all the cone's masks.


def oracle_extreme_rays(rows, d: int):
    """The extreme rays of the pointed cone {y : <row, y> >= 0 for every
    row}, by double description (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996); None when the integer rows have rank < d.

    Each ray is a pair (primitive integer tuple, int bitmask of the rows it
    is tight at). The first cone is cut by the first d independent rows B in
    input order: one Fraction elimination of the transposed rows beside the
    identity picks B and gives B^-T, whose row i pairs to 1 with row i of B
    and to 0 with the others, so that, scaled to integers, it is a ray. Every
    other row is inserted in turn: a ray on its positive side and one on its
    negative side combine into a ray on its hyperplane iff they are adjacent,
    that is, their common tight rows Z number at least d - 2 and no third ray
    is tight at all of Z. The test is combinatorial, so it stays exact on
    degenerate cones.
    """
    eliminated, basis, _ = oracle_echelon(
        [(*col, *e) for col, e in zip(transpose(rows), identity_matrix(d))], len(rows))
    if len(basis) < d:
        return None
    tight = sum(1 << i for i in basis)
    rays = [(primitive_vector(_scale_to_integers(row[-d:])[0]), tight ^ (1 << i))
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


# The matrix product that geometry.mat_mul replaced, kept as the reference:
# every entry a dense sum over a row of a and a column of b.


def oracle_mat_mul(a, b):
    """a @ b entry by entry; raises ValueError when a row of a does not have
    len(b) entries."""
    n = len(b)
    for row in a:
        if len(row) != n:
            raise ValueError(f"dimension mismatch: {len(row)} vs {n}")
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


# The Smith normal form that geometry replaced, kept as the reference: every
# elementary operation written twice, once on the rows of a and u and once on
# the columns of a and v.


def oracle_smith_normal_form(matrix):
    """(u, d, v) as tuples of tuples, with u @ matrix @ v == d."""
    n = len(matrix)
    a = [list(row) for row in matrix]
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
    return freeze(u), freeze(a), freeze(v)


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
        if abs(oracle_det(g)) != 1:
            return False
    table = set(elements)
    if len(table) != len(elements):
        return False
    if identity_matrix(n) not in table:
        return False
    return all(oracle_mat_mul(g, h) in table for g in elements for h in elements)


# The threshold computation that toric replaced, kept as the reference: the
# dual polytope as Fraction halfspaces, its vertices as sorted Fraction tuples
# (lifted from the fixed subspace over Q on the equivariant path), each vertex
# scaled back to integers over its lcm and paired with every sorted ray.


def _oracle_restrict(poly: HPolytope, basis) -> HPolytope:
    # coordinates t on span(basis): w = sum t_i b_i turns <a, w> >= c into
    # <B^T a, t> >= c; constraints vanishing on the span drop out (offsets
    # here are negative, so they hold identically)
    kept = []
    for h in poly.halfspaces:
        normal = tuple(dot(h.normal, b) for b in basis)
        if all(c == 0 for c in normal):
            continue
        kept.append(HalfSpace(normal, h.offset))
    return HPolytope(tuple(kept))


def oracle_toric_lct(rays: RaySet, group: GroupAction | None = None) -> ToricLctReport:
    """toric_lct by the Fraction vertex round trip: the first strict maximum
    over sorted vertices times sorted rays."""
    poly = dual_polytope(rays)
    if group is None:
        try:
            vertices = enumerate_vertices(poly)
        except Unbounded:
            raise FanNotComplete("rays do not positively span the lattice") from None
    else:
        # the group's faults first, as toric_lct reports them
        if group.dim != rays.dim:
            raise ValueError("group dimension does not match rays")
        gens = group.generators or group.elements
        ray_set = set(rays)
        for g in gens:
            if {mat_vec(g, v) for v in rays} != ray_set:
                raise GroupDoesNotPreserveFan(
                    f"generator {g} does not permute the rays")
        if not is_bounded(poly):
            raise FanNotComplete("rays do not positively span the lattice")
        # D^G lies in fix(g^T) for each g: the kernel of the stacked g^T - I
        n = rays.dim
        basis = oracle_kernel([[g[j][i] - (i == j) for j in range(n)]
                               for g in gens for i in range(n)], n)
        if not basis:
            vertices = (tuple(Fraction(0) for _ in range(rays.dim)),)
        else:
            restricted = _oracle_restrict(poly, basis)
            lift = transpose(basis)
            vertices = tuple(sorted(mat_vec(lift, point)
                                    for point in enumerate_vertices(restricted)))
    ordered = sorted(rays)
    best = None
    for w in vertices:
        nums, den = _scale_to_integers(w)
        for v in ordered:
            p = dot(nums, v)
            if best is None or p * best[1] > best[0] * den:
                best = (p, den, w, v)
    num, den, wv, wr = best
    m = Fraction(num, den)
    return ToricLctReport(lct=1 / (1 + m), max_pairing=m,
                          witness_vertex=wv, witness_ray=wr)


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
                prod = oracle_mat_mul(g, h)
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
            if abs(oracle_det(g)) != 1:
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
        x = oracle_solve(m, tuple(int(i == j) for i in range(n)))
        assert all(c.denominator == 1 for c in x)
        cols.append([c.numerator for c in x])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def transform_rays(u, rays: RaySet) -> RaySet:
    return RaySet(tuple(mat_vec(u, v) for v in rays))


def conjugate_group(u, u_inv, group: GroupAction) -> GroupAction:
    return GroupAction(tuple(sorted(
        mat_mul(mat_mul(u, g), u_inv) for g in group.elements)))


def random_complete_rays(rng: random.Random, n: int, m: int, b: int) -> RaySet:
    """m distinct primitive vectors in [-b, b]^n, in the order drawn, redrawn
    as a whole until toric_lct takes them for a complete fan. With b = 1
    many rays are coplanar, so the dual polytope has non-simple vertices."""
    while True:
        rays = []
        while len(rays) < m:
            v = tuple(rng.randint(-b, b) for _ in range(n))
            if gcd(*v) == 1 and v not in rays:
                rays.append(v)
        rays = RaySet(tuple(rays))
        try:
            toric_lct(rays)
        except FanNotComplete:
            continue
        return rays


def criterion_6_setups():
    """The four (fan, full group) pairs of acceptance criterion 6."""
    p1 = projective_space_fan(1)
    p3 = projective_space_fan(3)
    swap12_3d = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    return (
        (projective_space_fan(2),
         GroupAction.generate([((0, 1), (1, 0)), ((0, -1), (1, -1))])),
        (product_fan(p1, p1),
         GroupAction.generate([((0, 1), (1, 0)), ((-1, 0), (0, 1))])),
        (product_fan(product_fan(p1, p1), p1),
         GroupAction.generate([((0, 0, 1), (1, 0, 0), (0, 1, 0)), swap12_3d,
                               ((-1, 0, 0), (0, 1, 0), (0, 0, 1))])),
        (p3,
         GroupAction.generate([swap12_3d, ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
                               ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))])),
    )


def criterion_6_subgroups(rng: random.Random, setups):
    """The 50 (fan, full group, subgroup) trials of criterion 6, drawn from
    rng: trial i takes setup i mod 4 and the group that a random sample of
    its elements generates."""
    for trial in range(50):
        fan, full = setups[trial % len(setups)]
        picked = rng.sample(full.elements, rng.randint(1, len(full)))
        yield fan, full, GroupAction.generate(picked)
