"""The stored fans' own symmetry, by brute force in integers.

A fan's normal form is the least sorted list of its rays written in an
ordered basis of three of its rays with |det| = 1; it is a complete
GL(3, Z) invariant of the ray set. The bases that reach it are in one-to-one
correspondence with Aut(Sigma), the lattice automorphisms that permute the
rays. Coordinates come from integer adjugates, not from the package's
elimination.

Under G = Aut(Sigma) the engine's threshold is 1 exactly when the invariant
part D^G of the dual polytope D is {0}: then D^G is the one point 0 and the
pairing maximum is 0. D^G = {0} holds exactly when the sum of the elements
of G, |G| times the projection onto the invariant vectors, is the zero
matrix, which the test checks beside the engine's value.
"""

from fractions import Fraction
from itertools import permutations

from toriclct.database import load_builtin
from toriclct.toric import GroupAction, toric_lct

AUT_ORDER = {
    "1.17": 24, "2.33": 4, "2.34": 12, "2.35": 6, "2.36": 6, "3.25": 8, "3.26": 2,
    "3.27": 48, "3.28": 4, "3.29": 2, "3.30": 2, "3.31": 8, "4.9": 2, "4.10": 4,
    "4.11": 2, "4.12": 4, "5.2": 4, "5.3": 24,
}
# the threshold under the whole automorphism group: 1 on exactly five fans
AUT_LCT = {
    "1.17": "1", "2.33": "1/3", "2.34": "1", "2.35": "1/2", "2.36": "1/2", "3.25": "1",
    "3.26": "1/4", "3.27": "1", "3.28": "1/2", "3.29": "1/5", "3.30": "1/3",
    "3.31": "1/2", "4.9": "1/3", "4.10": "1/3", "4.11": "1/3", "4.12": "1/3",
    "5.2": "1/2", "5.3": "1",
}


def _det(b):
    return (b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
            - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
            + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0]))


def _inverse(b):
    """b^-1 = det(b) adj(b) of an integer matrix with det(b) = +-1."""
    det = _det(b)
    return tuple(tuple(
        det * (b[(j + 1) % 3][(i + 1) % 3] * b[(j + 2) % 3][(i + 2) % 3]
               - b[(j + 1) % 3][(i + 2) % 3] * b[(j + 2) % 3][(i + 1) % 3])
        for j in range(3)) for i in range(3))


def _times(a, b):
    return tuple(tuple(sum(x * b[k][j] for k, x in enumerate(row)) for j in range(3))
                 for row in a)


def normal_form(rays):
    """(least sorted ray list, the bases that reach it), each basis an
    ordered triple of rays with |det| = 1, as the rows of a matrix."""
    best, bases = None, []
    for basis in permutations(rays, 3):
        if _det(basis) not in (1, -1):
            continue
        # v = c basis, so c = v basis^-1
        form = sorted(_times(rays, _inverse(basis)))
        if best is None or form < best:
            best, bases = form, [basis]
        elif form == best:
            bases.append(basis)
    return best, bases


def automorphisms(rays):
    """Every lattice automorphism that permutes the rays, as the matrix g
    acting on a ray by g v, the engine's convention."""
    _, bases = normal_form(rays)
    first = bases[0]
    # v -> v basis^-1 first sends the rays written in basis to the same list
    # written in first, so it permutes them; g is its transpose
    return [tuple(zip(*_times(_inverse(basis), first))) for basis in bases]


def _stored_fans():
    return {str(record.id): record.fan for record in load_builtin().records
            if record.fan is not None}


def test_stored_fans_have_distinct_normal_forms():
    fans = _stored_fans()
    assert sorted(fans) == sorted(AUT_ORDER)
    forms = {key: normal_form(tuple(fan)) for key, fan in fans.items()}
    assert len({tuple(form) for form, _ in forms.values()}) == 18
    assert {key: len(bases) for key, (_, bases) in forms.items()} == AUT_ORDER


def test_automorphisms_permute_the_rays_and_form_a_group():
    for key, fan in _stored_fans().items():
        rays = set(fan)
        autos = automorphisms(tuple(fan))
        assert len(set(autos)) == AUT_ORDER[key]
        for g in autos:
            assert {tuple(sum(a * x for a, x in zip(row, v)) for row in g)
                    for v in rays} == rays
        assert GroupAction(tuple(sorted(autos))).elements == tuple(sorted(autos))


def test_threshold_under_the_automorphism_group_is_1_exactly_without_invariant_divisors():
    found = {}
    for key, fan in _stored_fans().items():
        autos = automorphisms(tuple(fan))
        lct = found[key] = toric_lct(fan, GroupAction.generate(autos)).lct
        total = tuple(tuple(sum(g[i][j] for g in autos) for j in range(3))
                      for i in range(3))
        assert (lct == 1) == (total == ((0,) * 3,) * 3), key
        # D^G lies in D, so the threshold can only grow
        assert lct >= toric_lct(fan).lct, key
    assert found == {key: Fraction(value) for key, value in AUT_LCT.items()}
    assert {key for key, lct in found.items() if lct == 1} == {
        "1.17", "2.34", "3.25", "3.27", "5.3"}
    assert all(Fraction(1, 5) <= lct <= Fraction(1, 2)
               for lct in found.values() if lct != 1)
