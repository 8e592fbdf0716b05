"""The corner kernel against the brute-force Fraction oracle in conftest:
equal boundedness and equal vertex tuples, order and types included, on
stored and product fans in seeded bases, rational and non-simple polytopes,
and one unbounded and one empty input."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (hpoly, oracle_enumerate_vertices, oracle_is_bounded,
                      random_unimodular, transform_rays)

from toriclct.database import load_builtin
from toriclct.errors import EmptyPolytope, ToolkitError, Unbounded
from toriclct.geometry import HalfSpace, HPolytope, enumerate_vertices, is_bounded
from toriclct.toric import dual_polytope, product_fan

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
