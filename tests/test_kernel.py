"""The vertex kernel against the brute-force Fraction oracle in conftest:
equal boundedness and equal vertex tuples, order and types included, on
stored and product fans in seeded bases, rational and non-simple polytopes,
shuffled halfspace orders, fans missing one ray, repeated rows, 1-D
polytopes, and unbounded and empty inputs; one elimination per double
description; the double description against its full-scan oracle, equal
lists of rays and masks on fans and degenerate cones in seeded bases, each
ray's tableau row holding its exact products with every row, and the hashed
partner search listing the pair loop's candidates in its order;
toric_lct reading its pairings from those rows without an inner product;
and the rays made and hashed searches run on seeded product fans, pinned."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import (hpoly, oracle_enumerate_vertices, oracle_extreme_rays,
                      oracle_is_bounded, outcome, random_complete_rays,
                      random_unimodular, stored_fans, transform_rays)

import toriclct.geometry
from toriclct.errors import EmptyPolytope, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, _extreme_rays, dot,
                               enumerate_vertices, is_bounded, mat_vec)
from toriclct.toric import (GroupAction, RaySet, dual_polytope, product_fan,
                            projective_space_fan, toric_lct)

F = Fraction
FANS = list(stored_fans().values())


def _agree(poly):
    """Kernel and oracle agree on poly; returns the oracle's outcome."""
    assert is_bounded(poly) == oracle_is_bounded(poly)
    expected = outcome(oracle_enumerate_vertices, poly)
    got = outcome(enumerate_vertices, poly)
    assert got == expected
    if isinstance(got, tuple):
        assert all(type(c) is Fraction for w in got for c in w)
    return expected


def test_stored_fans_in_seeded_bases_match_oracle():
    rng = random.Random(91)
    assert len(FANS) == 18
    for fan in FANS:
        u = random_unimodular(rng, fan.dim)
        assert isinstance(_agree(dual_polytope(transform_rays(u, fan))), tuple)


def test_product_fans_in_seeded_bases_match_oracle():
    rng = random.Random(92)
    pairs = rng.sample(list(itertools.combinations(FANS, 2)), 20)
    for a, b in pairs:
        a = transform_rays(random_unimodular(rng, a.dim), a)
        b = transform_rays(random_unimodular(rng, b.dim), b)
        assert isinstance(_agree(dual_polytope(product_fan(a, b))), tuple)


def _random_rational_poly(rng, n):
    # integer and rational normals, offsets like -3/2 keep the origin inside
    halfspaces = []
    for _ in range(rng.randint(n + 1, n + 6)):
        normal = [rng.randint(-3, 3) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = 1
        if rng.random() < 0.3:
            normal = [F(c, rng.randint(1, 3)) for c in normal]
        offset = F(-rng.randint(1, 9), rng.randint(1, 4))
        halfspaces.append(HalfSpace(tuple(normal), offset))
    return HPolytope(tuple(halfspaces))


def test_rational_polytopes_match_oracle():
    rng = random.Random(93)
    outcomes = []
    for _ in range(60):
        poly = _random_rational_poly(rng, rng.choice((3, 4)))
        outcomes.append(_agree(poly))
    bounded = [o for o in outcomes if isinstance(o, tuple)]
    assert len(bounded) >= 20
    assert outcomes.count(Unbounded) >= 5
    # some vertices are not integral
    assert any(c.denominator > 1 for w in itertools.chain(*bounded) for c in w)


OCTAHEDRON = hpoly([(a, b, c, -1) for a, b, c in itertools.product((1, -1), repeat=3)])
# base [-1, 1]^2 at z = 0, apex (0, 0, 1)
SQUARE_PYRAMID = hpoly([(0, 0, 1, 0), (-1, 0, -1, -1), (1, 0, -1, -1),
                        (0, -1, -1, -1), (0, 1, -1, -1)])


@pytest.mark.parametrize("poly, vertices", [
    (OCTAHEDRON, ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))),
    (SQUARE_PYRAMID, ((-1, -1, 0), (-1, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 0))),
], ids=["octahedron", "square_pyramid"])
def test_non_simple_polytopes_match_oracle(poly, vertices):
    # every octahedron vertex and the pyramid apex lie on four facets
    assert _agree(poly) == vertices


def test_unbounded_and_empty_match_oracle():
    assert _agree(hpoly([(1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)])) is Unbounded
    # x >= 1 and x <= 0 inside a bounded strip
    assert _agree(hpoly([(1, 0, 1), (-1, 0, 0), (0, 1, 0), (0, -1, -1)])) is EmptyPolytope


# What an incremental kernel can get wrong and a subset walk cannot: the
# insertion order of the halfspaces, recession directions left over when a
# ray goes missing, and vertices lying on many more facets than the dimension.


def test_shuffled_halfspace_order_gives_identical_tuples():
    rng = random.Random(94)
    for fan in FANS:
        poly = dual_polytope(fan)
        expected = oracle_enumerate_vertices(poly)
        for _ in range(5):
            shuffled = list(poly.halfspaces)
            rng.shuffle(shuffled)
            shuffled = HPolytope(tuple(shuffled))
            assert is_bounded(shuffled)
            assert enumerate_vertices(shuffled) == expected


def test_fans_missing_one_ray_match_oracle():
    outcomes = []
    for fan in FANS:
        for k in range(len(fan.rays)):
            rays = fan.rays[:k] + fan.rays[k + 1:]
            outcomes.append(_agree(dual_polytope(RaySet(rays))))
    assert len(outcomes) == 110
    assert sum(isinstance(o, tuple) for o in outcomes) == 40
    assert outcomes.count(Unbounded) == 70


CUBE = [(1, 0, 0, -1), (-1, 0, 0, -1), (0, 1, 0, -1), (0, -1, 0, -1),
        (0, 0, 1, -1), (0, 0, -1, -1)]
OCTAHEDRON_ROWS = [(a, b, c, -1) for a, b, c in itertools.product((1, -1), repeat=3)]


def _product(rows_a, rows_b):
    """The product polytope: each factor's rows padded by zero columns."""
    da, db = len(rows_a[0]) - 1, len(rows_b[0]) - 1
    return hpoly([(*r[:-1], *(0,) * db, r[-1]) for r in rows_a]
                 + [(*(0,) * da, *r) for r in rows_b])


@pytest.mark.parametrize("rows_a, rows_b, count", [
    (CUBE, OCTAHEDRON_ROWS, 48),
    (OCTAHEDRON_ROWS, OCTAHEDRON_ROWS, 36),
], ids=["cube_x_octahedron", "octahedron_x_octahedron"])
def test_degenerate_products_match_oracle(rows_a, rows_b, count):
    # each vertex lies on 7 (cube x octahedron) or 8 facets in dimension 6
    assert len(_agree(_product(rows_a, rows_b))) == count


def test_repeated_rows_match_oracle():
    box = [(1, 0, -1), (-1, 0, -2), (0, 1, -1), (0, -1, -3), (1, 1, -1)]
    verbatim = _agree(hpoly(box + [box[0], box[4]]))
    scaled = _agree(hpoly(box + [(2, 0, -2), (3, 3, -3)]))
    assert verbatim == scaled == _agree(hpoly(box))
    assert len(verbatim) == 5


@pytest.mark.parametrize("rows, expected", [
    ([(1, -2), (-1, -3), (2, -5)], ((F(-2),), (F(3),))),
    ([(1, -2), (3, 1)], Unbounded),
    ([(1, 1), (-1, -3), (-2, 2)], EmptyPolytope),
], ids=["interval", "half_line", "empty_interval"])
def test_one_dimensional_polytopes_match_oracle(rows, expected):
    assert _agree(hpoly(rows)) == expected


def test_empty_polytope_with_non_spanning_normals_is_unbounded():
    # x >= 1 and x <= 0 in the plane: empty, and y recedes
    assert _agree(hpoly([(1, 0, 1), (-1, 0, 0)])) is Unbounded


def test_extreme_ray_masks_are_the_tight_rows():
    rng = random.Random(95)
    for fan in FANS:
        poly = dual_polytope(transform_rays(random_unimodular(rng, fan.dim), fan))
        n = poly.dim
        # t >= 0, then <v, x> + t >= 0 for each ray v
        rows = [(0,) * n + (1,)] + [(*map(int, h.normal), 1) for h in poly.halfspaces]
        rays = _extreme_rays(rows, n + 1)
        assert len(rays) == len(enumerate_vertices(poly))
        for z, mask in rays:
            # the tableau row: the products with every row, then the ray
            y = z[len(rows):]
            assert gcd(*y) == 1 and y[n] > 0
            products = [dot(row, y) for row in rows]
            assert list(z[:len(rows)]) == products
            assert min(products) == 0
            assert mask == sum(1 << k for k, p in enumerate(products) if p == 0)
            # a vertex of a 3-D polytope lies on at least three facets
            assert mask.bit_count() >= n
    assert _extreme_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) is None


def test_double_description_starts_from_one_elimination(calls):
    # the first cone's rows are picked and inverted by the same _echelon call
    echelon = calls(toriclct.geometry, "_echelon")
    p3 = projective_space_fan(3)
    poly = dual_polytope(product_fan(p3, p3))
    assert len(enumerate_vertices(poly)) == 16
    assert [width for _, width in echelon] == [len(poly.halfspaces) + 1]
    echelon.clear()
    assert is_bounded(poly)
    assert [width for _, width in echelon] == [len(poly.halfspaces)]


def test_toric_lct_runs_one_double_description(calls):
    # the DD on D^G decides completeness and finds the vertices; its cone
    # has the dimension of the fixed subspace plus one
    extreme_rays = calls(toriclct.geometry, "_extreme_rays")
    p3 = projective_space_fan(3)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    s4 = [swap, cycle, ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]
    for group, lct, d in ((None, Fraction(1, 4), 4),
                          (GroupAction.generate([swap]), Fraction(1, 4), 3),
                          (GroupAction.generate([cycle]), Fraction(1, 4), 2),
                          (GroupAction.generate(s4), 1, 1)):
        extreme_rays.clear()
        assert toric_lct(p3, group).lct == lct
        assert [cone for _, cone in extreme_rays] == [d], group


def test_toric_lct_reads_pairings_from_the_tableau(calls):
    # the double description's sign tests and the vertex pairings are read
    # from each ray's row products, so no inner product is recomputed
    inner = calls(toriclct.geometry, "dot")
    report = toric_lct(product_fan(FANS[0], FANS[5]))
    assert report.lct == Fraction(1, 4)
    assert inner == []


# The double description against oracle_extreme_rays, which scans every mask
# of the cone for each (+, -) pair with d - 2 common tight rows: the same
# rays, masks and order. Polytopes are rows (a, b) meaning <a, w> >= b, with
# the origin inside; the degenerate ones have vertices on many more facets
# than the dimension.

SQUARE = [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
HEXAGON = SQUARE + [(1, 1, -1), (-1, -1, -1)]


def _cross_polytope(n):
    return [(*signs, -1) for signs in itertools.product((1, -1), repeat=n)]


def _cube(n):
    return [(*(s * (i == j) for j in range(n)), -1) for i in range(n) for s in (1, -1)]


def _pyramid(base):
    """The base at height 0 and an apex at height 1 over the origin."""
    return [(*r[:-1], -1, -1) for r in base] + [(0,) * (len(base[0]) - 1) + (1, 0)]


def _bipyramid(base):
    """The base at height 0 and apexes at heights 1 and -1 over the origin."""
    return [(*r[:-1], s, -1) for r in base for s in (1, -1)]


def _fan_rows(fan):
    return [(*v, -1) for v in fan.rays]


def _random_sign_rows(rng):
    n = rng.randint(3, 5)
    m = n + rng.randint(1, 8)
    rows = []
    while len(rows) < m:
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(a):
            rows.append((*a, -1))
    return rows


DD_FAMILIES = {
    "stored_fans": lambda rng: [_fan_rows(fan) for fan in FANS],
    "product_fans": lambda rng: [
        _fan_rows(product_fan(a, b))
        for a, b in rng.sample(list(itertools.combinations(FANS, 2)), 30)],
    "cross_polytopes": lambda rng: [_cross_polytope(n) for n in (3, 4, 5)],
    "pyramids": lambda rng: [_pyramid(base) for base in
                             (SQUARE, HEXAGON, _cross_polytope(3), _cross_polytope(4))],
    "bipyramids": lambda rng: [_bipyramid(base) for base in
                               (HEXAGON, _cube(3), _cube(4))],
    "random_signs": lambda rng: [_random_sign_rows(rng) for _ in range(40)],
    # large enough (+, -) sides for the hashed partner search, with and
    # without non-simple rays
    "cross_polytope_7": lambda rng: [_cross_polytope(7)],
    "triple_product": lambda rng: [
        _fan_rows(product_fan(product_fan(a, b), c))
        for a, b, c in [rng.sample(FANS, 3)]],
    # seeded complete fans that are not products, degenerate ones (b = 1)
    # included: they reach the hashed search with non-simple rays
    "random_complete_rays": lambda rng: [
        _fan_rows(random_complete_rays(rng, n, rng.randint(n + 2, 3 * n + 2), b))
        for n in range(2, 6) for b in (1, 2, 3)],
}
# the families whose cones reach the hashed partner search, and whether they
# reach it with a non-simple ray on either side
HASHED = {"cross_polytope_7": True, "triple_product": False,
          "random_complete_rays": True}


def _homogenised(rows):
    """The cone of _vertex_rays: t >= 0 first, then (a, -b) for each (a, b)."""
    n = len(rows[0]) - 1
    return [(0,) * n + (1,)] + [(*r[:n], -r[n]) for r in rows]


@pytest.mark.parametrize("family", DD_FAMILIES)
def test_double_description_matches_the_full_scan_oracle(family, monkeypatch):
    hashed = []

    def counted(pos, neg, d):
        hashed.append(any(m.bit_count() >= d for _, _, m in (*pos, *neg)))
        pairs = search(pos, neg, d)
        # the pair loop's order, less the pairs that cannot be adjacent
        assert pairs == [(a, b) for a in pos for b in neg
                         if (a[2] & b[2]).bit_count() >= d - 2]
        return pairs

    search = toriclct.geometry._hashed_pairs
    monkeypatch.setattr(toriclct.geometry, "_hashed_pairs", counted)
    rng = random.Random(96)
    cones = []
    for rows in DD_FAMILIES[family](rng):
        n = len(rows[0]) - 1
        for _ in range(2):
            u = random_unimodular(rng, n)
            rows = [(*mat_vec(u, r[:n]), r[n]) for r in rows]
            rng.shuffle(rows)
            cones.append((_homogenised(rows), n + 1))
            # the recession cone of is_bounded
            cones.append(([r[:n] for r in rows], n))
    degenerate = 0
    for rows, d in cones:
        rays = _extreme_rays(rows, d)
        # the oracle returns the rays alone, without their row products
        projected = rays and [(z[len(rows):], mask) for z, mask in rays]
        assert projected == oracle_extreme_rays(rows, d), (rows, d)
        for z, _ in rays or ():
            assert list(z[:len(rows)]) == [dot(row, z[len(rows):]) for row in rows]
        degenerate += any(mask.bit_count() >= d for _, mask in rays or ())
    if family not in ("stored_fans", "product_fans", "triple_product"):
        # rays tight at more than d - 1 rows are where adjacency needs a scan
        assert degenerate, family
    if family in HASHED:
        assert hashed and any(hashed) == HASHED[family], hashed


# The double description's work on seeded product fans, pinned: per fan,
# the rays made by primitive_vector (the first cone's plus every new one)
# and the inserted rows whose pairs came from _hashed_pairs. A faster kernel
# must make the same rays through the same steps, not fewer of them.
PINNED_WORK = [(57, 0), (74, 0), (98, 0), (48, 0), (148, 2), (40, 0), (154, 1), (39, 0)]


def test_double_description_work_on_product_fans_is_pinned(calls):
    rng = random.Random(97)
    fans = [product_fan(transform_rays(random_unimodular(rng, a.dim), a),
                        transform_rays(random_unimodular(rng, b.dim), b))
            for a, b in rng.sample(list(itertools.combinations(FANS, 2)), 8)]
    made = calls(toriclct.geometry, "primitive_vector")
    hashed = calls(toriclct.geometry, "_hashed_pairs")
    work = []
    for fan in fans:
        made.clear()
        hashed.clear()
        toric_lct(fan)
        work.append((len(made), len(hashed)))
    assert work == PINNED_WORK
