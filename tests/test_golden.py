"""Golden witnesses: the exact (lct, max_pairing, witness_vertex,
witness_ray) of every stored fan and of every equivariant setup that the
acceptance criteria and the engine tests use, recorded as literal data.
A change to the engine that moves any threshold or any witness pair fails
here, even where the other tests only look at the threshold. The same
setups, conjugated, and seeded products of the stored fans are also checked
report for report against the Fraction vertex-pairing oracle."""

import random
from fractions import Fraction

import pytest
from conftest import (conjugate_group, inverse_unimodular, oracle_toric_lct,
                      random_unimodular, transform_rays)

from toriclct.database import load_builtin, lookup
from toriclct.errors import FanNotComplete
from toriclct.toric import (GroupAction, RaySet, product_fan,
                            projective_space_fan, toric_lct, wps_fan)

P1 = projective_space_fan(1)
P2 = projective_space_fan(2)
P3 = projective_space_fan(3)

SWAP2 = ((0, 1), (1, 0))
ROT3 = ((0, -1), (1, -1))
NEG2 = ((-1, 0), (0, -1))
EYE2 = ((1, 0), (0, 1))
SWAP12_3D = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
CYCLE_3D = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
SIGN = GroupAction((((1,),), ((-1,),)))


def _full_setups():
    """The four (fan, full group) pairs of acceptance criterion 6."""
    return (
        (P2, GroupAction.generate([SWAP2, ROT3])),
        (product_fan(P1, P1), GroupAction.generate([SWAP2, ((-1, 0), (0, 1))])),
        (product_fan(product_fan(P1, P1), P1),
         GroupAction.generate([CYCLE_3D, SWAP12_3D,
                               ((-1, 0, 0), (0, 1, 0), (0, 0, 1))])),
        (P3, GroupAction.generate([SWAP12_3D, CYCLE_3D,
                                   ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))])),
    )


def _criterion_6_subgroups(setups):
    """The 50 (fan, subgroup) trials of criterion 6, replayed from its seed:
    the 300 unimodular transforms come first and only advance the stream."""
    rng = random.Random(2026)
    for dim in (2, 2, 3):
        for _ in range(100):
            random_unimodular(rng, dim)
    for trial in range(50):
        fan, full = setups[trial % len(setups)]
        picked = rng.sample(full.elements, rng.randint(1, len(full)))
        yield trial, fan, GroupAction.generate(picked)


def _cases():
    for rec in load_builtin().records:
        if rec.fan is not None:
            yield f"fan {rec.id}", rec.fan, None
    yield "P1 sign", P1, SIGN
    yield "P2 S3", P2, GroupAction.generate([SWAP2, ROT3])
    setups = _full_setups()
    for i, (fan, full) in enumerate(setups):
        yield f"c6 full {i}", fan, full
    for trial, fan, sub in _criterion_6_subgroups(setups):
        yield f"c6 trial {trial}", fan, sub
    # the random trials mostly regenerate the full group; the cyclic
    # subgroups give fixed subspaces of every dimension
    for i, (fan, full) in enumerate(setups):
        for j, g in enumerate(full.elements):
            yield f"c6 cyclic {i}.{j}", fan, GroupAction.generate([g])
    yield "P2 swap", P2, GroupAction((EYE2, SWAP2))
    yield "P1xP1 neg", product_fan(P1, P1), GroupAction((EYE2, NEG2))
    yield "P1xP1 swap", product_fan(P1, P1), GroupAction.generate([SWAP2])
    rng = random.Random(19)
    s3 = GroupAction.generate([SWAP2, ROT3])
    for i in range(5):
        u = random_unimodular(rng, 2)
        yield (f"P2 S3 conjugate {i}", transform_rays(u, P2),
               conjugate_group(u, inverse_unimodular(u), s3))
    yield "P112", wps_fan((1, 1, 2)), None


def _row(report):
    vec = lambda v: ",".join(str(c) for c in v)
    return (str(report.lct), str(report.max_pairing),
            vec(report.witness_vertex), vec(report.witness_ray))


GOLDEN = {
    'fan 1.17': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'fan 2.33': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'fan 2.34': ('1/3', '2', '-1,-1,-1', '0,-1,-1'),
    'fan 2.35': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'fan 2.36': ('1/5', '4', '-1,-1,-1', '-2,-1,-1'),
    'fan 3.25': ('1/3', '2', '-1,-1,0', '-1,-1,-1'),
    'fan 3.26': ('1/4', '3', '3,-1,-1', '1,0,0'),
    'fan 3.27': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'fan 3.28': ('1/3', '2', '-1,-1,2', '0,0,1'),
    'fan 3.29': ('1/5', '4', '3,-1,-1', '2,1,1'),
    'fan 3.30': ('1/4', '3', '-1,-1,3', '0,0,1'),
    'fan 3.31': ('1/3', '2', '-1,-1,-1', '-1,-1,0'),
    'fan 4.9': ('1/3', '2', '-1,-1,2', '0,0,1'),
    'fan 4.10': ('1/3', '2', '-1,2,-1', '0,1,0'),
    'fan 4.11': ('1/3', '2', '-1,-1,2', '0,0,1'),
    'fan 4.12': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'fan 5.2': ('1/3', '2', '-1,-1,2', '0,0,1'),
    'fan 5.3': ('1/2', '1', '-1,-1,0', '-1,0,0'),
    'P1 sign': ('1', '0', '0', '-1'),
    'P2 S3': ('1', '0', '0,0', '-1,-1'),
    'c6 full 0': ('1', '0', '0,0', '-1,-1'),
    'c6 full 1': ('1', '0', '0,0', '-1,0'),
    'c6 full 2': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 full 3': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 0': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 1': ('1', '0', '0,0', '-1,0'),
    'c6 trial 2': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 3': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 4': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 5': ('1', '0', '0,0', '-1,0'),
    'c6 trial 6': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 7': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 8': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 9': ('1', '0', '0,0', '-1,0'),
    'c6 trial 10': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 11': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 12': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 13': ('1', '0', '0,0', '-1,0'),
    'c6 trial 14': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 15': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 trial 16': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 17': ('1', '0', '0,0', '-1,0'),
    'c6 trial 18': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 19': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 20': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 21': ('1', '0', '0,0', '-1,0'),
    'c6 trial 22': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 23': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'c6 trial 24': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 25': ('1', '0', '0,0', '-1,0'),
    'c6 trial 26': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 27': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 28': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 29': ('1', '0', '0,0', '-1,0'),
    'c6 trial 30': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 31': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 32': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 33': ('1', '0', '0,0', '-1,0'),
    'c6 trial 34': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 35': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 36': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 37': ('1', '0', '0,0', '-1,0'),
    'c6 trial 38': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 39': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'c6 trial 40': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 41': ('1', '0', '0,0', '-1,0'),
    'c6 trial 42': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 43': ('1/2', '1', '-1,1,-1', '-1,-1,-1'),
    'c6 trial 44': ('1', '0', '0,0', '-1,-1'),
    'c6 trial 45': ('1/2', '1', '-1,-1', '-1,0'),
    'c6 trial 46': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 trial 47': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 trial 48': ('1/3', '2', '2,-1', '1,0'),
    'c6 trial 49': ('1/2', '1', '-1,-1', '-1,0'),
    'c6 cyclic 0.0': ('1/3', '2', '-1,2', '0,1'),
    'c6 cyclic 0.1': ('1', '0', '0,0', '-1,-1'),
    'c6 cyclic 0.2': ('1', '0', '0,0', '-1,-1'),
    'c6 cyclic 0.3': ('1/3', '2', '-1,-1', '-1,-1'),
    'c6 cyclic 0.4': ('1/3', '2', '2,-1', '1,0'),
    'c6 cyclic 0.5': ('1/3', '2', '-1,-1', '-1,-1'),
    'c6 cyclic 1.0': ('1', '0', '0,0', '-1,0'),
    'c6 cyclic 1.1': ('1/2', '1', '0,-1', '0,-1'),
    'c6 cyclic 1.2': ('1/2', '1', '-1,1', '-1,0'),
    'c6 cyclic 1.3': ('1', '0', '0,0', '-1,0'),
    'c6 cyclic 1.4': ('1', '0', '0,0', '-1,0'),
    'c6 cyclic 1.5': ('1/2', '1', '-1,-1', '-1,0'),
    'c6 cyclic 1.6': ('1/2', '1', '-1,0', '-1,0'),
    'c6 cyclic 1.7': ('1/2', '1', '-1,-1', '-1,0'),
    'c6 cyclic 2.0': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.1': ('1/2', '1', '0,0,-1', '0,0,-1'),
    'c6 cyclic 2.2': ('1/2', '1', '0,-1,1', '0,-1,0'),
    'c6 cyclic 2.3': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.4': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.5': ('1/2', '1', '0,-1,-1', '0,-1,0'),
    'c6 cyclic 2.6': ('1/2', '1', '0,-1,0', '0,-1,0'),
    'c6 cyclic 2.7': ('1/2', '1', '0,-1,-1', '0,-1,0'),
    'c6 cyclic 2.8': ('1/2', '1', '-1,1,0', '-1,0,0'),
    'c6 cyclic 2.9': ('1/2', '1', '-1,1,-1', '-1,0,0'),
    'c6 cyclic 2.10': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.11': ('1/2', '1', '-1,1,-1', '-1,0,0'),
    'c6 cyclic 2.12': ('1/2', '1', '-1,1,1', '-1,0,0'),
    'c6 cyclic 2.13': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.14': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.15': ('1/2', '1', '0,0,-1', '0,0,-1'),
    'c6 cyclic 2.16': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.17': ('1/2', '1', '-1,1,1', '-1,0,0'),
    'c6 cyclic 2.18': ('1/2', '1', '-1,0,1', '-1,0,0'),
    'c6 cyclic 2.19': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.20': ('1/2', '1', '-1,-1,1', '-1,0,0'),
    'c6 cyclic 2.21': ('1/2', '1', '0,-1,0', '0,-1,0'),
    'c6 cyclic 2.22': ('1/2', '1', '-1,-1,1', '-1,0,0'),
    'c6 cyclic 2.23': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.24': ('1/2', '1', '-1,1,-1', '-1,0,0'),
    'c6 cyclic 2.25': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.26': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.27': ('1/2', '1', '-1,0,-1', '-1,0,0'),
    'c6 cyclic 2.28': ('1/2', '1', '0,-1,0', '0,-1,0'),
    'c6 cyclic 2.29': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 2.30': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.31': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 2.32': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.33': ('1/2', '1', '0,0,-1', '0,0,-1'),
    'c6 cyclic 2.34': ('1/2', '1', '-1,-1,1', '-1,0,0'),
    'c6 cyclic 2.35': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.36': ('1', '0', '0,0,0', '-1,0,0'),
    'c6 cyclic 2.37': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 2.38': ('1/2', '1', '-1,-1,0', '-1,0,0'),
    'c6 cyclic 2.39': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 2.40': ('1/2', '1', '-1,0,0', '-1,0,0'),
    'c6 cyclic 2.41': ('1/2', '1', '-1,0,-1', '-1,0,0'),
    'c6 cyclic 2.42': ('1/2', '1', '-1,-1,1', '-1,0,0'),
    'c6 cyclic 2.43': ('1/2', '1', '-1,0,0', '-1,0,0'),
    'c6 cyclic 2.44': ('1/2', '1', '-1,0,0', '-1,0,0'),
    'c6 cyclic 2.45': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 2.46': ('1/2', '1', '-1,-1,0', '-1,0,0'),
    'c6 cyclic 2.47': ('1/2', '1', '-1,-1,-1', '-1,0,0'),
    'c6 cyclic 3.0': ('1/2', '1', '-1,1,1', '0,0,1'),
    'c6 cyclic 3.1': ('1/4', '3', '-1,-1,3', '0,0,1'),
    'c6 cyclic 3.2': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.3': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'c6 cyclic 3.4': ('1/4', '3', '-1,-1,3', '0,0,1'),
    'c6 cyclic 3.5': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.6': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.7': ('1/4', '3', '-1,-1,3', '0,0,1'),
    'c6 cyclic 3.8': ('1/2', '1', '-1,1,-1', '-1,-1,-1'),
    'c6 cyclic 3.9': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.10': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'c6 cyclic 3.11': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.12': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 cyclic 3.13': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 cyclic 3.14': ('1', '0', '0,0,0', '-1,-1,-1'),
    'c6 cyclic 3.15': ('1/2', '1', '-1,-1,1', '-1,-1,-1'),
    'c6 cyclic 3.16': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 cyclic 3.17': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 cyclic 3.18': ('1/4', '3', '-1,-1,3', '0,0,1'),
    'c6 cyclic 3.19': ('1/4', '3', '3,-1,-1', '1,0,0'),
    'c6 cyclic 3.20': ('1/4', '3', '3,-1,-1', '1,0,0'),
    'c6 cyclic 3.21': ('1/4', '3', '-1,3,-1', '0,1,0'),
    'c6 cyclic 3.22': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'c6 cyclic 3.23': ('1/4', '3', '-1,-1,-1', '-1,-1,-1'),
    'P2 swap': ('1/3', '2', '-1,-1', '-1,-1'),
    'P1xP1 neg': ('1', '0', '0,0', '-1,0'),
    'P1xP1 swap': ('1/2', '1', '-1,-1', '-1,0'),
    'P2 S3 conjugate 0': ('1', '0', '0,0', '-2,-1'),
    'P2 S3 conjugate 1': ('1', '0', '0,0', '-1,-1'),
    'P2 S3 conjugate 2': ('1', '0', '0,0', '-1,-1'),
    'P2 S3 conjugate 3': ('1', '0', '0,0', '-1,-1'),
    'P2 S3 conjugate 4': ('1', '0', '0,0', '-11,-4'),
    'P112': ('1/4', '3', '-1,-1', '-1,-2'),
}


def test_golden_witnesses():
    seen = {}
    for key, rays, group in _cases():
        seen[key] = _row(toric_lct(rays, group))
    assert seen == GOLDEN


def _differential_cases():
    rng = random.Random(1010)
    db = load_builtin()
    stored = [rec.fan for rec in db.records if rec.fan is not None]
    cases = [(fan, None) for fan in stored]
    for _ in range(20):
        fan = product_fan(*rng.sample(stored, 2))
        cases.append((transform_rays(random_unimodular(rng, fan.dim), fan), None))
    # the tie-heavy fans of the brute-force tie-break test
    ties = [P2, product_fan(product_fan(P1, P1), P1),
            product_fan(lookup(db, "5.2").fan, lookup(db, "5.3").fan)]
    ties += [transform_rays(random_unimodular(rng, fan.dim), fan) for fan in ties]
    cases += [(fan, None) for fan in ties]
    for _, rays, group in _cases():
        if group is not None:
            u = random_unimodular(rng, rays.dim)
            cases.append((transform_rays(u, rays),
                          conjugate_group(u, inverse_unimodular(u), group)))
    return cases


def test_reports_match_the_fraction_oracle():
    for rays, group in _differential_cases():
        got, want = toric_lct(rays, group), oracle_toric_lct(rays, group)
        assert got == want, (rays, group)
        assert type(got.lct) is Fraction and type(got.max_pairing) is Fraction
        assert all(type(c) is Fraction for c in got.witness_vertex)
        assert all(type(c) is int for c in got.witness_ray)


def test_incomplete_fan_is_rejected_like_the_oracle():
    half_plane = RaySet(((1, 0), (0, 1), (-1, 0)))
    for group in (None, GroupAction((EYE2, ((-1, 0), (0, 1))))):
        for lct in (toric_lct, oracle_toric_lct):
            with pytest.raises(FanNotComplete):
                lct(half_plane, group)
