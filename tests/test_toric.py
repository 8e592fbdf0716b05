"""Engine tests: ray sets, group actions, the threshold computation, fan
constructors, and the fan text format."""

import random
from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest
from conftest import (conjugate_group, inverse_unimodular, oracle_closure,
                      oracle_det, oracle_enumerate_vertices,
                      oracle_greedy_picks, oracle_is_bounded, oracle_is_group,
                      oracle_mat_mul, oracle_rank, oracle_toric_lct,
                      random_complete_rays, random_unimodular, transform_rays)

import toriclct.database
import toriclct.toric
from toriclct.database import load_builtin, lookup
from toriclct.errors import (DegenerateSubdivision, FanNotComplete,
                             GroupDoesNotPreserveFan, GroupNotClosed,
                             NotWellFormed, ParseError, ToolkitError)
from toriclct.geometry import (dot, fixed_subspace, identity_matrix, mat_mul,
                               mat_vec, primitive_vector)
from toriclct.toric import (GroupAction, RaySet, ToricLctReport,
                            bundle_lct_closed_form, check_well_formed,
                            dual_polytope, format_fan, parse_fan, product_fan,
                            projective_space_fan, projectivized_bundle_fan,
                            star_subdivide, toric_lct, wps_fan)

F = Fraction

P1 = projective_space_fan(1)
P2 = projective_space_fan(2)
P3 = projective_space_fan(3)

SWAP2 = ((0, 1), (1, 0))
ROT3 = ((0, -1), (1, -1))  # order-3 rotation of the P2 fan
NEG2 = ((-1, 0), (0, -1))
EYE2 = ((1, 0), (0, 1))
S4_ON_P3 = [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
            ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]


# ---------------------------------------------------------------------------
# ray sets and groups


def test_rayset_rejects_zero():
    with pytest.raises(ValueError):
        RaySet(((0, 0), (1, 0)))
    # an empty vector is a zero vector
    with pytest.raises(ValueError, match="zero vector"):
        RaySet(((),))


def test_rayset_rejects_duplicates():
    with pytest.raises(ValueError):
        RaySet(((1, 0), (1, 0)))


def test_rayset_rejects_mixed_dims():
    with pytest.raises(ValueError):
        RaySet(((1, 0), (1,)))


def test_rayset_normalizes_with_warning():
    with pytest.warns(RuntimeWarning):
        rays = RaySet(((2, 4), (0, 1), (-1, -1)))
    assert (1, 2) in set(rays)


def test_rayset_rejects_non_integer_entries():
    for bad in (1.9, 2.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            RaySet(((bad, 0), (0, 1), (-1, -1)))
    assert RaySet(((True, 0), (0, 1), (-1, -1))).rays[0] == (1, 0)


def test_group_rejects_non_integer_entries():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            GroupAction((((bad,),),))
        with pytest.raises(ValueError, match="non-integer"):
            GroupAction.generate([((bad, 0), (0, 1))])
    assert len(GroupAction((((1,),), ((-1,),)))) == 2


def test_group_rejects_non_unimodular():
    with pytest.raises(ValueError):
        GroupAction((EYE2, ((2, 0), (0, 1))))


def test_group_requires_identity():
    with pytest.raises(GroupNotClosed):
        GroupAction((NEG2,))


def test_group_requires_closure():
    rot4 = ((0, -1), (1, 0))  # rot4 squared is -identity, which is missing
    with pytest.raises(GroupNotClosed):
        GroupAction((EYE2, rot4))


def test_group_requires_closure_when_greedy_span_overshoots():
    # the picks of D4 minus one element still generate all eight
    d4 = GroupAction.generate([SWAP2, ((-1, 0), (0, 1))])
    for missing in d4.elements:
        if missing == EYE2:
            continue
        with pytest.raises(GroupNotClosed, match="not closed"):
            GroupAction(tuple(g for g in d4.elements if g != missing))
    shear = ((1, 1), (0, 1))  # infinite order: its closure outgrows the list
    with pytest.raises(GroupNotClosed):
        GroupAction((EYE2, shear))


def _signed_permutation_generators(n):
    """A transposition, an n-cycle and one sign change: they generate B_n."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    swap = [eye[1], eye[0]] + eye[2:]
    cycle = eye[1:] + eye[:1]
    flip = [[-1] + [0] * (n - 1)] + eye[1:]
    return [swap, cycle, flip]


def _signed_permutation_group(n):
    return GroupAction.generate(_signed_permutation_generators(n))


def _named_groups():
    return {
        "B2": _signed_permutation_group(2),
        "B3": _signed_permutation_group(3),
        "B4": _signed_permutation_group(4),
        "S3 on P2": GroupAction.generate([SWAP2, ROT3]),
        "S4 on P3": GroupAction.generate([
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
            ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]),
    }


def test_generators_decide_the_group():
    orders = {"B2": 8, "B3": 48, "B4": 384, "S3 on P2": 6, "S4 on P3": 24}
    for name, g in _named_groups().items():
        assert len(g) == orders[name], name
        assert 2 ** len(g.generators) <= len(g), name
        assert fixed_subspace(g.generators) == fixed_subspace(g.elements), name
        assert GroupAction(g.elements) == g, name
        assert GroupAction.generate(g.generators) == g, name


def test_generators_fix_what_the_elements_fix_on_cyclic_subgroups():
    for name, full in _named_groups().items():
        for h in full.elements:
            g = GroupAction.generate([h])
            assert fixed_subspace(g.generators or g.elements) == \
                fixed_subspace(g.elements), (name, h)


def test_trivial_group_has_no_generators():
    g = GroupAction((EYE2,))
    assert g.generators == ()
    # the 1-D trivial group: a basis orbit of one point
    one = GroupAction.generate([((1,),), ((1,),)])
    assert one == GroupAction((((1,),),)) and one.generators == ()
    assert toric_lct(P2, g) == toric_lct(P2)


def test_generate_s3():
    g = GroupAction.generate([SWAP2, ROT3])
    assert len(g) == 6


def test_generate_infinite_hits_cap():
    shear = ((1, 1), (0, 1))
    with pytest.raises(GroupNotClosed):
        GroupAction.generate([shear], cap=100)


def _list_outcome(elements):
    """None when GroupAction accepts the element list, else the type and the
    message of what it raises."""
    try:
        GroupAction(tuple(elements))
    except (ValueError, GroupNotClosed) as exc:
        return type(exc), str(exc)
    return None


def _oracle_list_outcome(elements):
    """The outcome of an element list by the rules, in this order: a repeat,
    a missing identity, the first element with |det| != 1, and then the
    list is accepted exactly when it is a group."""
    if len(set(elements)) != len(elements):
        return GroupNotClosed, "repeated elements"
    if identity_matrix(len(elements[0])) not in elements:
        return GroupNotClosed, "identity element missing"
    for g in elements:
        if abs(oracle_det(g)) != 1:
            return ValueError, f"element {g} is not unimodular"
    if oracle_is_group(elements):
        return None
    return GroupNotClosed, "element list is not closed under product"


def test_element_lists_are_accepted_exactly_when_the_oracle_accepts():
    # and each rejected list raises what the rules name, type and message
    rng = random.Random(7)
    outcomes = []
    for full in (_signed_permutation_group(3), GroupAction.generate(S4_ON_P3)):
        eye = identity_matrix(full.dim)
        double = ((2,) + (0,) * (full.dim - 1),) + eye[1:]
        for _ in range(15):
            sub = GroupAction.generate(
                rng.sample(full.elements, rng.randint(1, 3))).elements
            lists = [sub]
            others = [g for g in sub if g != eye]
            if others:
                dropped = rng.choice(others)
                lists.append(tuple(g for g in sub if g != dropped))
            outside = [g for g in full.elements if g not in sub]
            if outside:
                lists.append(sub + (rng.choice(outside),))
            for extra in (random_unimodular(rng, full.dim), double):
                if extra not in sub:
                    lists.append(sub + (extra,))
            lists += [tuple(rng.sample(els, len(els))) for els in lists]
            for elements in lists:
                outcome = _list_outcome(elements)
                assert (outcome is None) == oracle_is_group(elements), elements
                assert outcome == _oracle_list_outcome(elements), elements
                outcomes.append(outcome and outcome[0])
    assert outcomes.count(None) > 30 and outcomes.count(GroupNotClosed) > 30
    assert outcomes.count(ValueError) > 30


def test_generate_matches_the_breadth_first_oracle():
    rng = random.Random(13)
    groups = (_signed_permutation_group(3), _signed_permutation_group(4),
              GroupAction.generate(S4_ON_P3))
    for full in groups:
        eye = identity_matrix(full.dim)
        for _ in range(12):
            gens = rng.sample(full.elements, rng.randint(1, 3))
            if rng.random() < 0.5:  # repeated
                gens.append(rng.choice(gens))
            if rng.random() < 0.5:  # redundant
                gens.append(mat_mul(rng.choice(gens), rng.choice(gens)))
            if rng.random() < 0.5:
                gens.append(eye)
            rng.shuffle(gens)
            group = GroupAction.generate(gens)
            elements = tuple(sorted(oracle_closure(gens, 10000)))
            assert group.elements == elements, gens
            assert group.generators == oracle_greedy_picks(elements), gens
        trivial = GroupAction.generate([eye, eye])
        assert trivial.elements == (eye,) and trivial.generators == ()


ROT6 = ((0, -1), (1, 1))  # order 6 in GL(2, Z)
GENERATING_SETS = {"B3": _signed_permutation_generators(3),
                   "B4": _signed_permutation_generators(4),
                   "S4 on P3": S4_ON_P3, "rotation of order 6": [ROT6]}


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(GENERATING_SETS))
def test_generate_and_element_lists_match_the_oracles_on_conjugated_groups(name, seed):
    # conjugated by a seeded unimodular u, the basis orbit holds vectors with
    # entries beyond +-1; seed None leaves the group as it is
    rng = random.Random(seed)
    full = GroupAction.generate(GENERATING_SETS[name])
    if seed is not None:
        u = random_unimodular(rng, full.dim)
        full = conjugate_group(u, inverse_unimodular(u), full)
    eye = identity_matrix(full.dim)
    shuffled = rng.sample(full.elements, len(full))
    listed = GroupAction(tuple(shuffled))
    assert listed.generators == oracle_greedy_picks(shuffled)
    assert GroupAction.generate(listed.generators) == full
    for _ in range(8):
        gens = rng.sample(full.elements, rng.randint(1, 3))
        if rng.random() < 0.5:  # repeated
            gens.append(rng.choice(gens))
        if rng.random() < 0.5:  # redundant
            gens.append(mat_mul(rng.choice(gens), rng.choice(gens)))
        if rng.random() < 0.5:
            gens.append(eye)
        rng.shuffle(gens)
        group = GroupAction.generate(gens)
        assert group.elements == tuple(sorted(oracle_closure(gens, 10000))), gens
        assert group.generators == oracle_greedy_picks(group.elements), gens
        picks, span = [], {eye}
        for g in gens:
            if g not in span:
                picks.append(g)
                span = oracle_closure(picks, 10000)
        assert group._picks == tuple(picks), gens
        listed = GroupAction(group.elements)
        assert listed == group and hash(listed) == hash(group), gens
        assert repr(listed) == repr(group), gens
        assert listed.generators == listed._picks == group.generators, gens
        assert GroupAction.generate(gens, cap=len(group)) == group, gens
        if len(group) > 1:
            with pytest.raises(GroupNotClosed, match="exceeds cap"):
                GroupAction.generate(gens, cap=len(group) - 1)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("name", ["B3", "S4 on P3"])
def test_each_element_reads_its_rows_off_the_basis_orbit(name, seed):
    # under row vectors the basis orbit is the set of the elements' rows, and
    # an element's tuple names them in order; seed 3 conjugates the group by
    # a seeded unimodular u, so rows have entries beyond +-1
    group = GroupAction.generate(GENERATING_SETS[name])
    if seed is not None:
        u = random_unimodular(random.Random(seed), group.dim)
        group = conjugate_group(u, inverse_unimodular(u), group)
    points, perms = toriclct.toric._orbit(group.elements, group.dim * len(group))
    assert set(points) == {row for g in group.elements for row in g}
    for g, perm in zip(group.elements, perms):
        for i in range(group.dim):
            assert g[i] == points[perm[i]], (g, i)
    gens = group.generators
    assert GroupAction.generate(gens).elements == \
        tuple(sorted(oracle_closure(gens, 10000)))


@pytest.fixture
def compositions(monkeypatch):
    """Calls of the index lookups that toric builds with itemgetter: the
    products h g that the group walk composes."""
    calls = []

    def counted_itemgetter(*items):
        get = itemgetter(*items)

        def composed(h):
            calls.append(1)
            return get(h)
        return composed

    monkeypatch.setattr("toriclct.toric.itemgetter", counted_itemgetter)
    return calls


def test_group_checks_cost_fewer_than_2_products_per_element_and_generate_4(compositions):
    named = [_signed_permutation_group(n) for n in (2, 3, 4)]
    named.append(GroupAction.generate(S4_ON_P3))
    for group in named:
        compositions.clear()
        assert GroupAction(group.elements) == group
        assert 0 < len(compositions) < 2 * len(group), len(group)
        compositions.clear()
        assert GroupAction.generate(group.generators) == group
        assert 0 < len(compositions) < 4 * len(group), len(group)


def test_generate_spans_once_without_the_element_list_check(monkeypatch):
    named = {f"B{n}": _signed_permutation_group(n) for n in (2, 3, 4)}
    named["S4 on P3"] = GroupAction.generate(S4_ON_P3)
    from_lists = {name: GroupAction(g.elements) for name, g in named.items()}

    def refuse(self):
        raise AssertionError("generate ran the element-list check")

    monkeypatch.setattr(GroupAction, "__post_init__", refuse)
    regenerated = {f"B{n}": _signed_permutation_group(n) for n in (2, 3, 4)}
    regenerated["S4 on P3"] = GroupAction.generate(S4_ON_P3)
    for name, group in regenerated.items():
        assert group == from_lists[name], name
        assert group.generators == from_lists[name].generators, name


def test_generate_costs_fewer_than_2_products_per_element(compositions):
    # one span: Dimino's cosets plus the representatives' membership tests
    named = [_signed_permutation_group(n) for n in (2, 3, 4)]
    named.append(GroupAction.generate(S4_ON_P3))
    gen_lists = [group.generators for group in named]
    for gens in gen_lists:
        compositions.clear()
        group = GroupAction.generate(gens)
        assert 0 < len(compositions) < 2 * len(group), len(group)


def test_group_element_products_match_the_dense_oracle():
    named = _named_groups()
    for name in ("B3", "S4 on P3"):
        elements = named[name].elements
        table = set(elements)
        for g in elements:
            for h in elements:
                product = mat_mul(g, h)
                assert product == oracle_mat_mul(g, h), (g, h)
                assert product in table, name


# products composed by GroupAction.generate(group.generators) and by
# GroupAction(group.elements), as counted when each was a matrix product: a
# cheaper product must leave the number of products as it is
PRODUCT_COUNTS = {"B2": (13, 13), "B3": (67, 67), "B4": (430, 430),
                  "S4 on P3": (41, 41)}


def test_group_product_counts_are_pinned(compositions):
    named = _named_groups()
    for name, (generated, listed) in PRODUCT_COUNTS.items():
        group = named[name]
        gens = group.generators  # a walk of its own, on first access
        compositions.clear()
        assert GroupAction.generate(gens) == group
        assert len(compositions) == generated, name
        compositions.clear()
        assert GroupAction(group.elements) == group
        assert len(compositions) == listed, name


# toric._row_times calls of GroupAction(G.elements), G the group B4 conjugated
# by random_unimodular(random.Random(seed), 4): the row products of the
# element-list check, keyed by seed
LIST_ROW_PRODUCTS = {2: 384, 3: 40}


def test_element_list_row_products_are_pinned(monkeypatch):
    b4 = _signed_permutation_group(4)
    groups = {}
    for seed in LIST_ROW_PRODUCTS:
        u = random_unimodular(random.Random(seed), 4)
        groups[seed] = conjugate_group(u, inverse_unimodular(u), b4)
    calls = []
    row_times = toriclct.toric._row_times

    def counted(p, b):
        calls.append(1)
        return row_times(p, b)

    monkeypatch.setattr(toriclct.toric, "_row_times", counted)
    for seed, count in LIST_ROW_PRODUCTS.items():
        calls.clear()
        assert GroupAction(groups[seed].elements) == groups[seed]
        assert len(calls) == count, seed


# geometry._integers and geometry._echelon calls, through either module's
# binding, made by GroupAction.generate on the generators and then by the
# equivariant toric_lct: each generator's rows are checked once, as they
# enter, and its |det| is one elimination; toric_lct checks no row again,
# since the group checked its picks, and eliminates for the rays' rank, the
# fixed subspace and the double description
WORK_COUNTS = {"B3": ((9, 3), (0, 3)), "B4": ((12, 3), (0, 3)),
               "S4 on P3": ((9, 3), (0, 3))}


def test_equivariant_requests_check_each_integer_row_once(monkeypatch):
    calls = {"_integers": 0, "_echelon": 0}
    for module in (toriclct.geometry, toriclct.toric):
        for name in calls:
            if name in vars(module):
                def counted(*args, name=name, original=vars(module)[name]):
                    calls[name] += 1
                    return original(*args)
                monkeypatch.setattr(module, name, counted)

    def read():
        counts = (calls["_integers"], calls["_echelon"])
        calls.update(dict.fromkeys(calls, 0))
        return counts

    fans = {"B3": product_fan(product_fan(P1, P1), P1),
            "B4": product_fan(product_fan(P1, P1), product_fan(P1, P1)),
            "S4 on P3": P3}
    for name, (generated, equivariant) in WORK_COUNTS.items():
        read()
        group = GroupAction.generate(GENERATING_SETS[name])
        assert read() == generated, name
        assert toric_lct(fans[name], group).lct == 1, name
        assert read() == equivariant, name


def test_generate_matches_the_element_list_group():
    rng = random.Random(17)
    groups = (_signed_permutation_group(3), _signed_permutation_group(4),
              GroupAction.generate(S4_ON_P3))
    for full in groups:
        for _ in range(12):
            gens = rng.sample(full.elements, rng.randint(1, 3))
            group = GroupAction.generate(gens)
            listed = GroupAction(group.elements)
            assert group == listed and hash(group) == hash(listed), gens
            assert repr(group) == repr(listed), gens
            assert group.generators == listed.generators, gens
            assert group.generators == oracle_greedy_picks(group.elements), gens


def test_element_determinant_is_checked_before_closure():
    with pytest.raises(ValueError, match="element .* is not unimodular"):
        GroupAction((EYE2, NEG2, ((2, 0), (0, 1))))


def test_generate_checks_generator_determinants():
    with pytest.raises(ValueError, match="generator"):
        GroupAction.generate([((2, 0), (0, 1))])


def test_generate_reports_a_bad_generator_before_the_cap():
    # the shear alone outgrows the cap, but the doubling after it is
    # reported first
    with pytest.raises(ValueError, match=r"generator \(\(2, 0\), \(0, 1\)\) is not unimodular"):
        GroupAction.generate([((1, 1), (0, 1)), ((2, 0), (0, 1))], cap=100)


DOUBLE2 = ((2, 0), (0, 1))
SHEAR2 = ((1, 1), (0, 1))
B4_GENERATORS = _signed_permutation_generators(4)
DOUBLE4 = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ROT4 = ((0, -1), (1, 0))  # order 4: its span leaves a list holding only I and R of its powers
SINGULAR2 = ((1, 0), (0, 0))

# bad group inputs, each with the exception and the whole message it raises
GROUP_FAULTS = [
    ("generator not unimodular first", lambda: GroupAction.generate([DOUBLE2, SWAP2]),
     ValueError, "generator ((2, 0), (0, 1)) is not unimodular"),
    ("generator not unimodular last",
     lambda: GroupAction.generate([SWAP2, ROT3, DOUBLE2]),
     ValueError, "generator ((2, 0), (0, 1)) is not unimodular"),
    ("generator not unimodular after the cap is exceeded",
     lambda: GroupAction.generate(B4_GENERATORS + [DOUBLE4], cap=100), ValueError,
     "generator ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)) is not unimodular"),
    ("zero generator", lambda: GroupAction.generate([((0, 0), (0, 0))]),
     ValueError, "generator ((0, 0), (0, 0)) is not unimodular"),
    ("shear at cap 50", lambda: GroupAction.generate([SHEAR2], cap=50),
     GroupNotClosed, "closure exceeds cap of 50 elements"),
    ("hyperbolic at cap 50", lambda: GroupAction.generate([((2, 1), (1, 1))], cap=50),
     GroupNotClosed, "closure exceeds cap of 50 elements"),
    ("B4 at cap 100", lambda: GroupAction.generate(B4_GENERATORS, cap=100),
     GroupNotClosed, "closure exceeds cap of 100 elements"),
    ("missing product", lambda: GroupAction((EYE2, ((0, -1), (1, 0)))),
     GroupNotClosed, "element list is not closed under product"),
    ("shear in an element list", lambda: GroupAction((EYE2, SHEAR2)),
     GroupNotClosed, "element list is not closed under product"),
    ("repeated element", lambda: GroupAction((EYE2, SWAP2, SWAP2)),
     GroupNotClosed, "repeated elements"),
    ("identity missing", lambda: GroupAction((NEG2,)),
     GroupNotClosed, "identity element missing"),
    ("element not unimodular", lambda: GroupAction((EYE2, NEG2, DOUBLE2)),
     ValueError, "element ((2, 0), (0, 1)) is not unimodular"),
    ("zero element", lambda: GroupAction((EYE2, ((0, 0), (0, 0)))),
     ValueError, "element ((0, 0), (0, 0)) is not unimodular"),
    ("singular element", lambda: GroupAction((EYE2, ((1, 0), (0, 0)))),
     ValueError, "element ((1, 0), (0, 0)) is not unimodular"),
    # every element is checked before the walk, whichever comes first
    ("singular element after an escaping one",
     lambda: GroupAction((EYE2, ROT4, SINGULAR2, SWAP2)),
     ValueError, "element ((1, 0), (0, 0)) is not unimodular"),
    ("singular element before an escaping one",
     lambda: GroupAction((EYE2, SINGULAR2, ROT4, SWAP2)),
     ValueError, "element ((1, 0), (0, 0)) is not unimodular"),
    # both its rows are e1, so it maps the basis orbit into itself, two points
    # to one, and its span with the identity is the list
    ("idempotent singular element", lambda: GroupAction((EYE2, ((1, 0), (1, 0)))),
     ValueError, "element ((1, 0), (1, 0)) is not unimodular"),
]


@pytest.mark.parametrize("call, error, message", [f[1:] for f in GROUP_FAULTS],
                         ids=[f[0] for f in GROUP_FAULTS])
def test_group_faults_keep_their_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# (lookups built, compositions) by GroupAction.generate(B4_GENERATORS, cap=c)
# before it gives up: the span walk stops within one coset of the cap, where
# a walk that finishes the closure first builds 12, 27 and 27 lookups
CAP_STOPS = {10: (7, 20), 50: (15, 121), 100: (16, 148)}


def test_generate_stops_the_span_walk_at_its_cap(compositions, monkeypatch):
    built = []
    counted = toriclct.toric.itemgetter

    def building(*items):
        built.append(items)
        return counted(*items)

    monkeypatch.setattr(toriclct.toric, "itemgetter", building)
    for cap, (lookups, composed) in CAP_STOPS.items():
        built.clear()
        compositions.clear()
        with pytest.raises(GroupNotClosed, match=f"cap of {cap} elements"):
            GroupAction.generate(B4_GENERATORS, cap=cap)
        assert (len(built), len(compositions)) == (lookups, composed), cap


def test_an_element_list_whose_orbit_outgrows_it_names_a_non_unimodular_element():
    # the shear's closure leaves the list before the walk would reach 2I, but
    # the basis orbit outgrows the 2 * 3 points a group of three could reach
    # first, and then the first element with |det| != 1 is named
    with pytest.raises(ValueError) as info:
        GroupAction((EYE2, SHEAR2, ((2, 0), (0, 2))))
    assert str(info.value) == "element ((2, 0), (0, 2)) is not unimodular"


# ---------------------------------------------------------------------------
# the threshold computation


def test_dual_polytope_p1():
    poly = dual_polytope(P1)
    assert [(h.normal, h.offset) for h in poly.halfspaces] == [
        ((1,), -1), ((-1,), -1)]


def test_lct_p2():
    report = toric_lct(P2)
    assert report.lct == F(1, 3)
    assert report.max_pairing == 2
    assert report.witness_vertex == (-1, -1)
    assert report.witness_ray == (-1, -1)


def test_lct_p112():
    rays = RaySet(((1, 0), (0, 1), (-1, -2)))
    report = toric_lct(rays)
    assert report.lct == F(1, 4)
    assert report.max_pairing == 3
    # the maximum is attained at (3,-1) against ray (1,0) as well; the
    # reported witness is the lexicographically smallest attaining pair
    assert 3 * 1 + (-1) * 0 == report.max_pairing
    assert (report.witness_vertex, report.witness_ray) == ((-1, -1), (-1, -2))


def test_lct_incomplete_fan():
    with pytest.raises(FanNotComplete):
        toric_lct(RaySet(((1, 0), (0, 1))))


def test_lct_p1_with_sign_flip():
    group = GroupAction((((1,),), ((-1,),)))
    assert toric_lct(P1, group).lct == 1
    assert toric_lct(P1).lct == F(1, 2)


def test_lct_p2_full_symmetry():
    group = GroupAction.generate([SWAP2, ROT3])
    report = toric_lct(P2, group)
    assert report.lct == 1
    assert report.max_pairing == 0
    assert report.witness_vertex == (0, 0)


def test_lct_p2_swap_only():
    # fixed line (1,1): the restricted maximum still reaches 2
    group = GroupAction((EYE2, SWAP2))
    assert toric_lct(P2, group).lct == F(1, 3)


def test_lct_is_one_iff_fixed_space_trivial():
    cases = [
        (P1, GroupAction((((1,),), ((-1,),)))),
        (P2, GroupAction.generate([SWAP2, ROT3])),
        (P2, GroupAction((EYE2, SWAP2))),
        (product_fan(P1, P1), GroupAction((EYE2, NEG2))),
        (product_fan(P1, P1), GroupAction.generate([SWAP2])),
    ]
    for rays, group in cases:
        value = toric_lct(rays, group).lct
        assert (value == 1) == (fixed_subspace(group.elements) == [])


def test_group_must_preserve_rays():
    rays = RaySet(((1, 0), (0, 1), (-1, -2)))
    with pytest.raises(GroupDoesNotPreserveFan):
        toric_lct(rays, GroupAction((EYE2, SWAP2)))


def test_group_must_preserve_rays_at_a_later_generator():
    # -I keeps this fan; the second pick, an anti-diagonal swap, does not
    rays = RaySet(((1, 0), (-1, 0), (1, 2), (-1, -2)))
    group = GroupAction.generate([SWAP2, NEG2])
    first, *rest = group.generators
    assert rest
    assert {tuple(sum(a * x for a, x in zip(row, v)) for row in first)
            for v in rays} == set(rays)
    with pytest.raises(GroupDoesNotPreserveFan):
        toric_lct(rays, group)


def test_fan_error_names_the_same_generator_however_the_group_was_built():
    # generate picks the swap first, which moves (1, 2); the sorted element
    # list picks -I, which keeps the fan, and then the anti-diagonal swap
    rays = RaySet(((1, 0), (-1, 0), (1, 2), (-1, -2)))
    built = GroupAction.generate([SWAP2, NEG2])
    listed = GroupAction(built.elements)
    messages = []
    for group in (built, listed):
        with pytest.raises(GroupDoesNotPreserveFan) as caught:
            toric_lct(rays, group)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0] == "generator ((0, -1), (-1, 0)) does not permute the rays"


def test_group_dimension_mismatch():
    with pytest.raises(ValueError):
        toric_lct(P3, GroupAction((EYE2,)))


def test_group_faults_are_reported_before_an_incomplete_fan():
    half_plane = RaySet(((1, 0), (0, 1), (-1, 0)))
    with pytest.raises(ValueError, match="group dimension"):
        toric_lct(half_plane, GroupAction((identity_matrix(3),)))
    with pytest.raises(GroupDoesNotPreserveFan):
        toric_lct(half_plane, GroupAction((EYE2, SWAP2)))


@pytest.mark.parametrize("group, error", [
    (GroupAction((EYE2, SWAP2)), GroupDoesNotPreserveFan),
    (GroupAction((identity_matrix(3),)), ValueError),
], ids=["swap", "three_dimensional"])
def test_oracle_reports_group_faults_before_an_incomplete_fan(group, error):
    half_plane = RaySet(((1, 0), (0, 1), (-1, 0)))
    raised = []
    for lct in (toric_lct, oracle_toric_lct):
        with pytest.raises(Exception) as caught:
            lct(half_plane, group)
        raised.append(type(caught.value))
    assert raised == [error, error]


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        ToricLctReport(lct=F(1, 2), max_pairing=F(2),
                       witness_vertex=(F(1),), witness_ray=(2,))


def test_equivariant_monotonicity_smoke():
    plain = toric_lct(P2).lct
    sub = toric_lct(P2, GroupAction((EYE2, SWAP2))).lct
    full = toric_lct(P2, GroupAction.generate([SWAP2, ROT3])).lct
    assert plain <= sub <= full


def test_unimodular_invariance_smoke():
    rng = random.Random(17)
    for _ in range(10):
        u = random_unimodular(rng, 2)
        assert toric_lct(transform_rays(u, P2)).lct == F(1, 3)


def test_conjugated_group_invariance():
    rng = random.Random(19)
    group = GroupAction.generate([SWAP2, ROT3])
    for _ in range(5):
        u = random_unimodular(rng, 2)
        conj = conjugate_group(u, inverse_unimodular(u), group)
        assert toric_lct(transform_rays(u, P2), conj).lct == 1


# S3 on P2, S4 on P3 and B3 on (P1)^3, fan and generators conjugated by a
# seeded unimodular u, so that the picks' transposes are dense and their
# entries reach beyond +-1. Each bad list holds one generator that does not
# permute the conjugated rays: -I for S3 and S4; since B3 is a maximal
# finite subgroup of GL(3, Z), its bad list trades the sign change for the
# reflection of S4 on P3, which keeps the closure finite. The messages were
# computed before the fan check read the picks' transposes.
DENSE_CONJUGATES = {
    "S3 on P2": (P2, [SWAP2, ROT3], [SWAP2, ROT3, NEG2]),
    "S4 on P3": (P3, S4_ON_P3, S4_ON_P3 + [tuple(tuple(-int(i == j) for j in range(3))
                                                  for i in range(3))]),
    "B3": (product_fan(product_fan(P1, P1), P1), _signed_permutation_generators(3),
           _signed_permutation_generators(3)[:2] + [S4_ON_P3[2]]),
}
DENSE_CONJUGATE_FAULTS = {
    ("S3 on P2", 1): "generator ((-1, 0), (-1, 1)) does not permute the rays",
    ("S3 on P2", 2): "generator ((-4, 3), (-7, 5)) does not permute the rays",
    ("S4 on P3", 1): "generator ((-3, 4, 8), (0, 1, 0), (-1, 1, 3)) does not permute the rays",
    ("S4 on P3", 2): "generator ((-3, 1, -1), (-2, 0, -1), (6, -3, 2)) does not permute the rays",
    ("B3", 1): "generator ((-4, 9, 12), (1, -4, -4), (-2, 6, 7)) does not permute the rays",
    ("B3", 2): "generator ((-3, 1, -1), (-1, 0, 0), (6, -3, 2)) does not permute the rays",
}


@pytest.mark.parametrize("name, seed", sorted(DENSE_CONJUGATE_FAULTS))
def test_fan_check_on_dense_conjugates(name, seed):
    fan, good, bad = DENSE_CONJUGATES[name]
    u = random_unimodular(random.Random(seed), fan.dim)
    u_inv = inverse_unimodular(u)
    rays = transform_rays(u, fan)

    def conjugated(gens):
        return GroupAction.generate([mat_mul(mat_mul(u, g), u_inv) for g in gens])

    group = conjugated(good)
    assert max(abs(c) for g in group.generators for row in g for c in row) > 1
    assert toric_lct(rays, group) == oracle_toric_lct(rays, group)
    with pytest.raises(GroupDoesNotPreserveFan) as caught:
        toric_lct(rays, conjugated(bad))
    assert str(caught.value) == DENSE_CONJUGATE_FAULTS[name, seed]


# The threshold of a cyclic subgroup of S3 on P2 or S4 on P3 depends only on
# its conjugacy class, read off as the cycle type of the generator on the
# rays; the identity gives the plain value.
CLASS_LCT = {
    (1, 1, 1): F(1, 3), (1, 2): F(1, 3), (3,): F(1),
    (1, 1, 1, 1): F(1, 4), (1, 1, 2): F(1, 4), (1, 3): F(1, 4),
    (2, 2): F(1, 2), (4,): F(1),
}


def _cycle_type(g, rays):
    image = {v: mat_vec(g, v) for v in rays}
    lengths, seen = [], set()
    for v in rays:
        n = 0
        while v not in seen:
            seen.add(v)
            v = image[v]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


def _permutation_cyclic_subgroups():
    s4 = [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
          ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))]
    for rays, gens in ((P2, [SWAP2, ROT3]), (P3, s4)):
        for g in GroupAction.generate(gens).elements:
            yield rays, g, GroupAction.generate([g])


def test_cyclic_subgroup_thresholds_follow_conjugacy_classes():
    for rays, g, group in _permutation_cyclic_subgroups():
        assert toric_lct(rays, group).lct == CLASS_LCT[_cycle_type(g, rays)], g


def test_witness_divisor_is_group_invariant():
    cases = [(rays, group) for rays, _, group in _permutation_cyclic_subgroups()]
    cases += [(rays, group) for rays, group in (
        (P2, GroupAction((EYE2, SWAP2))),
        (product_fan(P1, P1), GroupAction.generate([SWAP2])))]
    for rays, group in cases:
        w = toric_lct(rays, group).witness_vertex
        for g in group.elements:
            assert all(sum(a * b for a, b in zip(w, mat_vec(g, v))) ==
                       sum(a * b for a, b in zip(w, v)) for v in rays), g


def test_conjugated_subgroup_invariance():
    rng = random.Random(23)
    swap = GroupAction((EYE2, SWAP2))
    for _ in range(20):
        u = random_unimodular(rng, 2)
        conj = conjugate_group(u, inverse_unimodular(u), swap)
        assert toric_lct(transform_rays(u, P2), conj).lct == F(1, 3)
    for rays, g, group in _permutation_cyclic_subgroups():
        u = random_unimodular(rng, rays.dim)
        conj = conjugate_group(u, inverse_unimodular(u), group)
        assert toric_lct(transform_rays(u, rays), conj).lct == \
            CLASS_LCT[_cycle_type(g, rays)], g


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(signs[i] * (j == perm[i]) for j in range(n))
                 for i in range(n))


def _orbit_fans(rng, count):
    """count (rays, group) pairs, each also conjugated by a random unimodular
    matrix: a subgroup of B_n, n = 2..4, generated by one or two random
    signed permutations, and the union of the orbits of one to three random
    primitive vectors, at most 16 rays. Few or small orbits leave the fan
    incomplete."""
    made = 0
    while made < count:
        n = rng.randint(2, 4)
        group = GroupAction.generate(
            [_signed_permutation(rng, n) for _ in range(rng.randint(1, 2))])
        rays = set()
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                rays |= {mat_vec(g, primitive_vector(v)) for g in group.elements}
        if not rays or len(rays) > 16:
            continue
        rays = RaySet(tuple(sorted(rays)))
        u = random_unimodular(rng, n)
        yield rays, group
        yield transform_rays(u, rays), conjugate_group(u, inverse_unimodular(u), group)
        made += 1


def _outcome(lct, rays, group):
    try:
        return lct(rays, group)
    except ToolkitError as exc:
        return type(exc)


def test_orbit_fans_match_the_fraction_oracle():
    # the oracle decides completeness on the whole dual polytope, and the
    # brute-force boundedness oracle decides it once more without the DD
    seen = {"complete": 0, "incomplete": 0, "rank deficient": 0}
    for rays, group in _orbit_fans(random.Random(1212), 150):
        complete = oracle_is_bounded(dual_polytope(rays))
        for g in (None, group):
            got = _outcome(toric_lct, rays, g)
            assert got == _outcome(oracle_toric_lct, rays, g), (rays, g)
            assert (got is FanNotComplete) == (not complete), (rays, g)
        seen["complete" if complete else "incomplete"] += 1
        seen["rank deficient"] += oracle_rank(rays.rays) < rays.dim
    assert min(seen.values()) >= 20, seen


def test_rank_deficient_fan_is_incomplete_under_minus_identity():
    # -I fixes only 0 in the dual, so D^G = {0} is bounded: only the rank of
    # the rays shows that they do not span
    for rays in (RaySet(((1, 0), (-1, 0))),
                 RaySet(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))):
        n = rays.dim
        minus = tuple(tuple(-c for c in row) for row in identity_matrix(n))
        group = GroupAction((identity_matrix(n), minus))
        assert fixed_subspace(group.elements) == []
        with pytest.raises(FanNotComplete):
            toric_lct(rays, group)


# Powers X^k of a stored fan with the automorphism that exchanges the first
# two factors. The rays (v, 0, ...) and (0, v, ...) of one orbit restrict to
# one row on D^G, which the double description takes once.


def _power(fan, k):
    out = fan
    for _ in range(k - 1):
        out = product_fan(out, fan)
    return out


def _factor_swap(n, k):
    """The matrix on X^k, X of dimension n, that exchanges factors 1 and 2."""
    perm = [i + n if i < n else i - n if i < 2 * n else i for i in range(n * k)]
    return tuple(tuple(int(perm[i] == j) for j in range(n * k)) for i in range(n * k))


def _rows_handed_to_the_dd(monkeypatch):
    """A list that records how many rows each toric_lct passes to
    _vertex_rays."""
    counts, vertex_rays = [], toriclct.toric._vertex_rays

    def counted(rows, n):
        counts.append(len(rows))
        return vertex_rays(rows, n)

    monkeypatch.setattr(toriclct.toric, "_vertex_rays", counted)
    return counts


def _swapped_power(fan, k, seed):
    """X^k with the factor swap, as it is and in a seeded basis."""
    power = _power(fan, k)
    group = GroupAction.generate([_factor_swap(fan.dim, k)])
    u = random_unimodular(random.Random(seed), power.dim)
    return [(power, group),
            (transform_rays(u, power), conjugate_group(u, inverse_unimodular(u), group))]


@pytest.mark.parametrize("family", ["P2", "2.35"])
def test_squares_with_a_factor_swap_match_the_fraction_oracle(family, monkeypatch):
    fan = P2 if family == "P2" else lookup(load_builtin(), family).fan
    counts = _rows_handed_to_the_dd(monkeypatch)
    for rays, group in _swapped_power(fan, 2, 1301):
        assert toric_lct(rays, group) == oracle_toric_lct(rays, group)
    # one row per orbit of the swap
    assert counts == [len(fan)] * 2


# toric_lct on 3.31^5 with the swap, as computed before the double
# description took one row per orbit: as it is and in the seeded basis
POWER_3_31_REPORTS = [
    ToricLctReport(F(1, 3), F(2), (F(-1),) * 15, (-1, -1) + (0,) * 13),
    ToricLctReport(F(1, 3), F(2), tuple(map(F, (-7, -5, 2, -5, -1, -1, -1, -1, -1, -1,
                                                -1, 2, 3, -1, -1))),
                   (-1,) + (0,) * 9 + (-1, -3, 0, 0, 0)),
]


def test_fifth_power_with_a_factor_swap_keeps_its_reports(monkeypatch):
    counts = _rows_handed_to_the_dd(monkeypatch)
    cases = _swapped_power(lookup(load_builtin(), "3.31").fan, 5, 31)
    assert [toric_lct(rays, group) for rays, group in cases] == POWER_3_31_REPORTS
    # 30 rays; the swap pairs the 12 of the first two factors
    assert counts == [24] * 2


def _brute_force_maximum(rays):
    """(max_pairing, witness_vertex, witness_ray) by a Fraction double loop
    over every (w, v): the largest pairing, then the smallest (w, v)."""
    vertices = oracle_enumerate_vertices(dual_polytope(rays))
    pairs = [(sum(a * b for a, b in zip(w, v)), w, v)
             for w in vertices for v in rays]
    best = max(p for p, _, _ in pairs)
    return (best, *min((w, v) for p, w, v in pairs if p == best))


def test_tie_break_and_types_match_brute_force():
    db = load_builtin()
    fans = [P2, product_fan(product_fan(P1, P1), P1),
            product_fan(lookup(db, "5.2").fan, lookup(db, "5.3").fan)]
    rng = random.Random(94)
    fans += [transform_rays(random_unimodular(rng, fan.dim), fan) for fan in fans]
    for rays in fans:
        report = toric_lct(rays)
        expected = _brute_force_maximum(rays)
        assert (report.max_pairing, report.witness_vertex, report.witness_ray) == expected
        assert type(report.lct) is Fraction and type(report.max_pairing) is Fraction
        assert all(type(c) is Fraction for c in report.witness_vertex)
        assert all(type(c) is int for c in report.witness_ray)


# Seeded ray sets that are not products, (entry bound b, dimensions, seed):
# with b = 1 many vertices of D are non-simple, and some fans have maximal
# vertices x / t at different t, where the tie-break must compare x / t and
# not x alone.
SEEDED_RAY_SETS = [(1, (3, 4), 1), (2, (2, 3, 4), 1), (3, (2, 3), 4)]


@pytest.mark.parametrize("b, dims, seed", SEEDED_RAY_SETS, ids=["b1", "b2", "b3"])
def test_seeded_ray_sets_match_the_brute_force_and_fraction_oracles(b, dims, seed):
    rng = random.Random(seed)
    non_simple = ties_across_t = 0
    for _ in range(20):
        n = rng.choice(dims)
        rays = random_complete_rays(rng, n, rng.randint(n + 2, 3 * n + 2), b)
        report = toric_lct(rays)
        assert report == oracle_toric_lct(rays), rays
        assert (report.max_pairing, report.witness_vertex,
                report.witness_ray) == _brute_force_maximum(rays), rays
        vertices = oracle_enumerate_vertices(dual_polytope(rays))
        non_simple += any(sum(dot(w, v) == -1 for v in rays) > n for w in vertices)
        ties_across_t += len({lcm(*(c.denominator for c in w)) for w in vertices
                              if max(dot(w, v) for v in rays) == report.max_pairing}) > 1
    assert non_simple >= 5 and ties_across_t >= 1, (non_simple, ties_across_t)


def test_toric_lct_builds_fractions_only_for_the_report(monkeypatch):
    # the threshold and the witness entries, none per vertex or halfspace
    db = load_builtin()
    fan = product_fan(lookup(db, "2.33").fan, lookup(db, "3.26").fan)
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in ("toriclct.toric", "toriclct.geometry"):
        monkeypatch.setattr(f"{module}.Fraction", Counted)
    report = toric_lct(fan)
    assert fan.dim == 6 and report.lct == F(1, 4)
    assert len(made) <= fan.dim + 1, len(made)


def test_report_check_builds_no_fractions(monkeypatch):
    # checked in Fraction arithmetic, the report made 2n + 2 of them: 14 at
    # 6-D and 32 at 15-D
    db = load_builtin()
    six = toric_lct(product_fan(lookup(db, "2.33").fan, lookup(db, "3.26").fan))
    cases = [six._values, POWER_3_31_REPORTS[1]._values]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for fields in cases:
        monkeypatch.setattr(Fraction, "__new__", counted)
        report = ToricLctReport(*fields)
        monkeypatch.undo()
        assert report._values == fields
    assert [len(fields[2]) for fields in cases] == [6, 15]
    assert made == []


# ---------------------------------------------------------------------------
# fan constructors


def test_projective_space_fans():
    assert tuple(P1) == ((1,), (-1,))
    assert tuple(P2) == ((1, 0), (0, 1), (-1, -1))
    assert len(P3) == 4
    assert tuple(sum(c) for c in zip(*P3)) == (0, 0, 0)
    with pytest.raises(ValueError):
        projective_space_fan(0)


def test_lct_projective_spaces():
    for n in range(1, 5):
        assert toric_lct(projective_space_fan(n)).lct == F(1, n + 1)


def test_product_fan_p1_p1():
    assert set(product_fan(P1, P1)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_product_fan_p1_p2():
    fan = product_fan(P1, P2)
    assert len(fan) == 5 and fan.dim == 3
    assert toric_lct(fan).lct == F(1, 3)


def test_product_fan_p1_cubed():
    fan = product_fan(product_fan(P1, P1), P1)
    assert toric_lct(fan).lct == F(1, 2)


def _seeded_product(rng, count):
    """The product of count stored fans drawn by rng, each in a seeded basis,
    and the smallest of their recorded thresholds, which the product takes."""
    stored = [(rec.status.value, rec.fan) for rec in load_builtin().records
              if rec.fan is not None]
    picks = rng.sample(stored, count)
    fans = [transform_rays(random_unimodular(rng, fan.dim), fan) for _, fan in picks]
    product = fans[0]
    for fan in fans[1:]:
        product = product_fan(product, fan)
    return product, min(value for value, _ in picks)


def _shuffled(rng, rays):
    rays = list(rays)
    rng.shuffle(rays)
    return RaySet(tuple(rays))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_twelve_dimensional_products_take_the_smallest_factor_value(seed):
    rng = random.Random(seed)
    fan, expected = _seeded_product(rng, 4)
    assert fan.dim == 12
    report = toric_lct(fan)
    assert report.lct == expected
    assert toric_lct(_shuffled(rng, fan)) == report


def test_product_reports_do_not_depend_on_the_ray_order():
    rng = random.Random(17)
    for _ in range(20):
        fan, expected = _seeded_product(rng, 2)
        report = toric_lct(fan)
        assert report.lct == expected
        for _ in range(3):
            assert toric_lct(_shuffled(rng, fan)) == report


def test_bundle_fan_rays():
    fan = projectivized_bundle_fan(2, (1,))
    assert set(fan) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1),
                        (-1, -1, -1)}


def test_bundle_fan_engine_values():
    assert toric_lct(projectivized_bundle_fan(2, (1,))).lct == F(1, 4)
    assert toric_lct(projectivized_bundle_fan(2, (2,))).lct == F(1, 5)


def test_bundle_untwisted_matches_product():
    fan = projectivized_bundle_fan(1, (0, 0))
    assert toric_lct(fan).lct == toric_lct(product_fan(P1, P2)).lct


def test_bundle_closed_form():
    assert bundle_lct_closed_form(2, (1,)) == F(1, 4)
    assert bundle_lct_closed_form(3, (0,)) == F(1, 4)
    assert bundle_lct_closed_form(1, (1, 1, 1)) == F(1, 5)
    with pytest.raises(ValueError):
        bundle_lct_closed_form(1, ())
    with pytest.raises(ValueError):
        bundle_lct_closed_form(2, (-1,))


def test_bundle_rejects_non_integer_twists():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            bundle_lct_closed_form(1, (bad,))
        with pytest.raises(ValueError, match="non-integer"):
            projectivized_bundle_fan(1, (bad,))
    assert bundle_lct_closed_form(1, (1,)) == F(1, 3)


def test_bundle_holds_outside_fano_range():
    # P(O + O(-3)) over P1 is not Fano, yet the formula still matches
    fan = projectivized_bundle_fan(1, (3,))
    assert toric_lct(fan).lct == bundle_lct_closed_form(1, (3,)) == F(1, 5)


def test_constructed_fans_pass_the_checks_they_skip():
    # both constructors build their RaySet without its checks; RaySet of the
    # same rays checks them, and its warning on a non-primitive ray is an
    # error under the test settings
    for n in range(1, 7):
        fan = projective_space_fan(n)
        assert fan == RaySet(fan.rays), n
    for n in range(1, 4):
        for twists in ((0,), (1,), (3,), (0, 0), (1, 2), (2, 4), (2, 0, 5)):
            fan = projectivized_bundle_fan(n, twists)
            assert fan == RaySet(fan.rays), (n, twists)


def test_star_subdivide_blowup_of_p3_line():
    fan = star_subdivide(P3, [(1, 0, 0), (0, 1, 0)])
    assert (1, 1, 0) in set(fan)
    assert toric_lct(fan).lct == F(1, 4)


def test_star_subdivide_f1():
    fan = star_subdivide(P2, [(1, 0), (0, 1)])
    assert set(fan) == {(1, 0), (0, 1), (-1, -1), (1, 1)}
    assert toric_lct(fan).lct == F(1, 3)


def test_star_subdivide_degenerate_cases():
    with pytest.raises(DegenerateSubdivision):
        star_subdivide(P1, [(1,), (-1,)])
    with pytest.raises(DegenerateSubdivision):
        star_subdivide(P2, [(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        star_subdivide(P2, [(5, 7)])
    f1 = star_subdivide(P2, [(1, 0), (0, 1)])
    with pytest.raises(DegenerateSubdivision):
        star_subdivide(f1, [(1, 0), (0, 1)])


def test_star_subdivide_rejects_non_integer_rays():
    for bad in (1.5, 1.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            star_subdivide(P2, [(bad, 0), (0, 1)])


class _DuckRays:
    """Iterates and sizes like a RaySet without being one, so that nothing
    it holds has been checked."""

    def __init__(self, rays):
        self.rays, self.dim = rays, len(rays[0])

    def __iter__(self):
        return iter(self.rays)


def _padded(a, b):
    return (tuple(v + (0,) * b.dim for v in a.rays)
            + tuple((0,) * a.dim + v for v in b.rays))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_product_fans_of_ray_sets_equal_the_checked_construction(seed):
    # every ordered pair of the 18 stored fans, each in a seeded basis, as the
    # benchmark's products are built
    rng = random.Random(seed)
    stored = [rec.fan for rec in load_builtin().records if rec.fan is not None]
    factors = [transform_rays(random_unimodular(rng, fan.dim), fan) for fan in stored]
    assert len(factors) == 18
    for a in factors:
        for b in factors:
            if a is b:
                continue
            fan = product_fan(a, b)
            assert fan.__class__ is RaySet
            assert fan == RaySet(_padded(a, b))
            assert RaySet(fan.rays) == fan


def _counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)
    monkeypatch.setattr(module, name, counted)


def test_builtin_fan_constructors_equal_the_checked_construction(monkeypatch):
    # each star_subdivide and product_fan that builds a stored fan checks
    # only its subset and its new ray, yet equals the fan RaySet checks
    database = toriclct.database
    calls, made = {}, []
    for name in ("_integers", "primitive_vector"):
        _counted(monkeypatch, toriclct.toric, name, calls)

    def checked_star(rays, subset):
        calls.clear()
        fan = star_subdivide(rays, subset)
        assert calls == {"_integers": len(subset), "primitive_vector": 1}, calls
        total = tuple(map(sum, zip(*subset)))
        assert fan == RaySet(rays.rays + (primitive_vector(total),))
        assert RaySet(fan.rays) == fan
        made.append("star")
        return fan

    def checked_product(a, b):
        calls.clear()
        fan = product_fan(a, b)
        assert calls == {}, calls
        assert fan == RaySet(_padded(a, b))
        made.append("product")
        return fan

    monkeypatch.setattr(database, "star_subdivide", checked_star)
    monkeypatch.setattr(database, "product_fan", checked_product)
    fans = database._builtin_fans()
    assert (made.count("star"), made.count("product")) == (15, 7)
    assert fans == {str(rec.id): rec.fan for rec in load_builtin().records
                    if rec.fan is not None}


def test_fan_constructors_check_arguments_that_are_not_ray_sets(monkeypatch):
    calls = {}
    _counted(monkeypatch, toriclct.toric, "_integers", calls)
    a, b = lookup(load_builtin(), "1.17").fan, lookup(load_builtin(), "4.10").fan
    fan = product_fan(a, b)
    assert calls == {}
    # 4 + 7 rays, each checked when one factor is not a RaySet
    assert product_fan(_DuckRays(a.rays), b) == fan
    assert calls == {"_integers": 11}
    with pytest.raises(ValueError, match="non-integer"):
        product_fan(_DuckRays(((1.0,), (-1,))), P1)
    with pytest.raises(ValueError, match="pairwise distinct"):
        product_fan(P1, _DuckRays(((1,), (1,))))
    with pytest.raises(ValueError, match="zero vector"):
        product_fan(_DuckRays(((0,), (1,))), P2)
    with pytest.raises(ValueError, match="non-integer"):
        star_subdivide(_DuckRays(((1, 0), (0, 1), (-1, -1), (1.5, 2))), [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="pairwise distinct"):
        star_subdivide(_DuckRays(((1, 0), (0, 1), (-1, -1), (1, 0))), [(0, 1), (-1, -1)])


def test_wps_fan_values():
    assert toric_lct(wps_fan((1, 1, 1))).lct == F(1, 3)
    assert toric_lct(wps_fan((1, 1, 2))).lct == F(1, 4)
    assert toric_lct(wps_fan((1, 1, 2, 3))).lct == F(1, 7)


def test_wps_fan_relation():
    for weights in ((1, 1, 2), (1, 2, 3), (1, 1, 2, 3), (2, 3, 5)):
        rays = tuple(wps_fan(weights))
        n = len(weights) - 1
        for i in range(n):
            assert sum(w * v[i] for w, v in zip(weights, rays)) == 0


def test_wps_fan_rejects_non_integer_weights():
    for bad in (2.7, 2.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            wps_fan((1, 1, bad))
        with pytest.raises(ValueError, match="non-integer"):
            check_well_formed((1, 1, bad))


def test_well_formedness():
    check_well_formed((1, 1))
    with pytest.raises(NotWellFormed):
        check_well_formed((2, 2, 3))
    with pytest.raises(ValueError):
        check_well_formed((0, 1))
    with pytest.raises(ValueError):
        check_well_formed((3,))


# ---------------------------------------------------------------------------
# fan text format


def test_format_parse_round_trip():
    text = format_fan(P2)
    rays, group = parse_fan(text)
    assert tuple(rays) == tuple(P2) and group is None
    assert format_fan(rays) == text


def test_format_parse_round_trip_with_group():
    g = GroupAction.generate([SWAP2, ROT3])
    text = format_fan(P2, g)
    rays, group = parse_fan(text)
    assert tuple(rays) == tuple(P2)
    assert group is not None and group.elements == g.elements
    assert format_fan(rays, group) == text


def test_parse_fan_comments_and_blanks():
    rays, group = parse_fan("# a comment\n1,0\n# another\n0,1\n-1,-1\n")
    assert tuple(rays) == ((1, 0), (0, 1), (-1, -1)) and group is None


def test_parse_fan_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_fan("1,0\nnope\n-1,-1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_fan("1,0\n0,1\n1,2,3\n")
    with pytest.raises(ParseError):
        parse_fan("")
    with pytest.raises(ParseError, match="line 5"):
        parse_fan("1,0\n\n1,0,0,1\n\n1,0,0,1\n")
    with pytest.raises(ParseError, match="entries"):
        parse_fan("1,0\n0,1\n-1,-1\n\n1,0\n")
