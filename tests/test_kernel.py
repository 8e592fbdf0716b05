"""The vertex kernel against the brute-force Fraction oracle in conftest:
equal boundedness and equal vertex tuples, order and types included, on
stored and product fans in seeded bases, rational and non-simple polytopes,
shuffled halfspace orders, fans missing one ray, repeated rows, 1-D
polytopes, and unbounded and empty inputs; one elimination per double
description."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import (hpoly, oracle_enumerate_vertices, oracle_is_bounded,
                      random_unimodular, transform_rays)

import toriclct.geometry
from toriclct.database import load_builtin
from toriclct.errors import EmptyPolytope, ToolkitError, Unbounded
from toriclct.geometry import (HalfSpace, HPolytope, _extreme_rays, dot,
                               enumerate_vertices, is_bounded)
from toriclct.toric import (GroupAction, RaySet, dual_polytope, product_fan,
                            projective_space_fan, toric_lct)

F = Fraction


def _outcome(enumerate_fn, poly):
    try:
        return enumerate_fn(poly)
    except ToolkitError as exc:
        return type(exc)


def _agree(poly):
    """Kernel and oracle agree on poly; returns the oracle's outcome."""
    assert is_bounded(poly) == oracle_is_bounded(poly)
    expected = _outcome(oracle_enumerate_vertices, poly)
    got = _outcome(enumerate_vertices, poly)
    assert got == expected
    if isinstance(got, tuple):
        assert all(type(c) is Fraction for w in got for c in w)
    return expected


def _stored_fans():
    return [rec.fan for rec in load_builtin().records if rec.fan is not None]


def test_stored_fans_in_seeded_bases_match_oracle():
    rng = random.Random(91)
    fans = _stored_fans()
    assert len(fans) == 18
    for fan in fans:
        u = random_unimodular(rng, fan.dim)
        assert isinstance(_agree(dual_polytope(transform_rays(u, fan))), tuple)


def test_product_fans_in_seeded_bases_match_oracle():
    rng = random.Random(92)
    pairs = rng.sample(list(itertools.combinations(_stored_fans(), 2)), 20)
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
    for fan in _stored_fans():
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
    for fan in _stored_fans():
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
    for fan in _stored_fans():
        poly = dual_polytope(transform_rays(random_unimodular(rng, fan.dim), fan))
        n = poly.dim
        # t >= 0, then <v, x> + t >= 0 for each ray v
        rows = [(0,) * n + (1,)] + [(*map(int, h.normal), 1) for h in poly.halfspaces]
        rays = _extreme_rays(rows, n + 1)
        assert len(rays) == len(enumerate_vertices(poly))
        for y, mask in rays:
            assert gcd(*y) == 1 and y[n] > 0
            products = [dot(row, y) for row in rows]
            assert min(products) == 0
            assert mask == sum(1 << k for k, p in enumerate(products) if p == 0)
            # a vertex of a 3-D polytope lies on at least three facets
            assert mask.bit_count() >= n
    assert _extreme_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) is None


def test_double_description_starts_from_one_elimination(monkeypatch):
    # the first cone's rows are picked and inverted by the same _echelon call
    calls = []
    echelon = toriclct.geometry._echelon

    def counted(rows, width):
        calls.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(toriclct.geometry, "_echelon", counted)
    p3 = projective_space_fan(3)
    poly = dual_polytope(product_fan(p3, p3))
    assert len(enumerate_vertices(poly)) == 16
    assert calls == [len(poly.halfspaces) + 1]
    calls.clear()
    assert is_bounded(poly)
    assert calls == [len(poly.halfspaces)]


def test_toric_lct_runs_one_double_description(monkeypatch):
    # the DD on D^G decides completeness and finds the vertices; its cone
    # has the dimension of the fixed subspace plus one
    calls = []
    extreme_rays = toriclct.geometry._extreme_rays

    def counted(rows, d):
        calls.append(d)
        return extreme_rays(rows, d)

    monkeypatch.setattr(toriclct.geometry, "_extreme_rays", counted)
    p3 = projective_space_fan(3)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    s4 = [swap, cycle, ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]
    for group, lct, d in ((None, Fraction(1, 4), 4),
                          (GroupAction.generate([swap]), Fraction(1, 4), 3),
                          (GroupAction.generate([cycle]), Fraction(1, 4), 2),
                          (GroupAction.generate(s4), 1, 1)):
        calls.clear()
        assert toric_lct(p3, group).lct == lct
        assert calls == [d], group
