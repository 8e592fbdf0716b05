"""Global log canonical thresholds of toric varieties from fan data.

For a complete fan with primitive ray set R in Z^n the dual polytope is

    D = {w : <w, v> >= -1 for every v in R},

and for a finite group G of lattice automorphisms permuting R the
G-equivariant global log canonical threshold of the toric variety is

    lct = 1 / (1 + max{<w, v> : w in D^G, v in R}),

where D^G is the G-fixed part of D. G acts on the dual lattice by inverse
transposes, so D^G = {w in D : <w, g v> = <w, v> for every g in G and v in
R}: the G-invariant divisors. The variety is assumed Q-factorial (fan
simplicial); that hypothesis is not verified here. The fan is complete iff
D is bounded, iff R has rank n and D^G is bounded: a recession direction of
D averages over G to a fixed one, which is 0 only if it is orthogonal to R.

The maximum is attained at a vertex of D^G. One double description decides
completeness and gives those vertices as integer rays (x, t), the points
x / t, each with its row products, from which the pairings with R are read
in integers. The engine works from generators: G permutes R iff each
generator does, and D^G lies in the intersection of the fixed subspaces of
the generators' transposes. Each group is spanned once, coset by coset, from
its greedy picks: generate spans its generator list, and an element list is
checked by the span of its own picks. The engine reads the picks of
whichever span built the group. A span holds permutations of the orbit of
the standard basis under row vectors, the rows of the elements, so that a
product is an index lookup and an element is read back row by row.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from functools import cached_property
from math import gcd
from numbers import Rational as _Exact
from operator import index, itemgetter, mul

from .errors import (DegenerateSubdivision, FanNotComplete,
                     GroupDoesNotPreserveFan, GroupNotClosed, InvalidId,
                     NotWellFormed, ParseError, Unbounded)
# bench/layers.py rebinds is_bounded, enumerate_vertices, fixed_subspace and
# mat_mul here to trace them; toric calls none of the four
from .geometry import (HalfSpace, HPolytope, _decimal, _echelon, _fixed_subspace,
                       _Record, _integers, _matrices, _row_times, _scale_to_integers,
                       _vertex_rays, dot, enumerate_vertices, fixed_subspace,
                       identity_matrix, is_bounded, mat_mul, mat_vec,
                       primitive_vector, smith_normal_form, transpose)


class RaySet(_Record):
    """The rays of a fan: pairwise distinct primitive integer vectors.

    Nonzero but non-primitive input vectors are divided by their gcd, with a
    warning; zero vectors and duplicates (after normalization) are rejected.
    """

    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = []
        for v in self.rays:
            v = _integers(v, "ray")
            if all(c == 0 for c in v):
                raise ValueError("zero vector is not a ray")
            w = primitive_vector(v)
            if w != v:
                warnings.warn(f"ray {v} normalized to primitive {w}",
                              RuntimeWarning, stacklevel=3)
                v = w
            rays.append(v)
        if not rays:
            raise ValueError("need at least one ray")
        if any(len(v) != len(rays[0]) for v in rays):
            raise ValueError("rays of mixed dimension")
        if len(set(rays)) != len(rays):
            raise ValueError("rays must be pairwise distinct")
        object.__setattr__(self, "rays", tuple(rays))

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    def __iter__(self):
        return iter(self.rays)

    def __len__(self):
        return len(self.rays)


def _check_unimodular(matrices, what: str) -> None:
    """Raise ValueError naming the first matrix with |det| != 1, of a list of
    integer matrices as _matrices returns it."""
    n = len(matrices[0])
    for g in matrices:
        _, pivots, det = _echelon(g, n)
        if len(pivots) < n or abs(det) != 1:
            raise ValueError(f"{what} {g} is not unimodular")


def _orbit(matrices, limit: int):
    """(O, perms): O the orbit of the standard basis of row vectors under the
    matrices, p to p g, as a list of points, basis first, and each matrix as
    the tuple of the indices of the points of O to which it sends them, so
    row i of the matrix is O[perm[i]]. (None, None) once O has more than
    limit points."""
    n = len(matrices[0])
    zero = (0,) * n
    points = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    at = dict(zip(points, range(n)))
    perms = [[] for _ in matrices]
    for i, p in enumerate(points):
        for g, perm in zip(matrices, perms):
            # a basis point picks one row
            image = g[i] if i < n else _row_times(p, g) or zero
            k = at.get(image)
            if k is None:
                if len(points) == limit:
                    return None, None
                k = at[image] = len(points)
                points.append(image)
            perm.append(k)
    return points, [tuple(perm) for perm in perms]


def _spans(candidates, points, perm, cap: int):
    """(picks, span): the greedy picks of the candidates and the set they
    span. points iterates over a basis orbit O, basis first, that holds every
    row of every candidate, and the span is a set of permutations of O: g h
    is itemgetter(*g)(h), exactly, since O spans Q^n. A candidate is tested
    by its head, the indices of its n rows in O, against the heads of the
    span so far, each element's first n entries; a pick is a candidate
    outside it. perm(g) is asked only for a pick: g's permutation of O, or
    None when g does not permute O, which ends the walk with (picks, None).
    The span grows to the closure of the picks by left cosets x H of the
    old span H (Dimino's algorithm), so only the picks times coset
    representatives x need a membership test. The walk stops once the span
    exceeds cap elements."""
    at = dict(zip(points, range(len(points))))
    picks, span, heads = (), {tuple(range(len(points)))}, set()
    # itemgetter of one index returns it bare, but O has one point only when
    # every candidate is the 1-D identity, and that is never picked
    products = []  # r -> r s for each pick s
    for g in candidates:
        if len(heads) != len(span):
            heads = {x[:len(g)] for x in span}
        if tuple(map(at.__getitem__, g)) in heads:
            continue
        s = perm(g)
        if s is None:
            return picks, None
        picks += (g,)
        products.append(itemgetter(*s))
        old = tuple(span)
        span.update(map(products[-1], old))
        reps = [s]
        for r in reps:
            if len(span) > cap:
                break
            for times_s in products:
                x = times_s(r)
                if x not in span:
                    reps.append(x)
                    span.update(map(itemgetter(*x), old))
        if len(span) > cap:
            break
    return picks, span


class GroupAction(_Record):
    """A finite group of integer matrices, |det| = 1 each, closed under
    product and containing the identity.

    generators: the elements outside the span of the ones picked before
    them, in element order; each pick at least doubles the span. A list of
    m elements is checked once per fact, in this order, whatever its own:
    1. no element repeats, else GroupNotClosed;
    2. the identity is listed, else GroupNotClosed;
    3. the span of the greedy picks equals the list, else ValueError names
       the first element with |det| != 1, or else GroupNotClosed.
    Fact 3 is the walk of generators, which __post_init__ reads. It runs
    _spans on O, the identity's rows and then every listed row, each once:
    for a group, O is the orbit of the standard basis of row vectors, since
    row i of g is e_i g. A pick that sends a point of O outside it, or two
    points to one, fails it, and so does a span of other than m elements.
    A list that passes is a group: each pick permutes the finite spanning
    set O, so has |det| = 1, and every other element equals one of the
    span. A group built by generate skips these checks, as it is its own
    span, and computes its generators on first access; past n cap orbit
    points or cap elements, generate raises GroupNotClosed.
    """

    elements: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        elements = _matrices(self.elements, "element")
        if len(set(elements)) != len(elements):
            raise GroupNotClosed("repeated elements")
        if identity_matrix(len(elements[0])) not in elements:
            raise GroupNotClosed("identity element missing")
        object.__setattr__(self, "elements", elements)
        # the walk of generators checks the rest
        object.__setattr__(self, "_picks", self.generators)

    @cached_property
    def generators(self) -> tuple:
        # O: the identity's rows, then every listed row, each once, as a
        # dict from each point to its index
        at = {p: k for k, p in enumerate(dict.fromkeys(
            [p for g in (identity_matrix(self.dim), *self.elements) for p in g]))}

        def perm(g):
            # None when g sends a point outside O, or two points to one
            s = tuple([at.get(_row_times(p, g)) for p in at])
            return None if None in s or len(set(s)) < len(s) else s

        picks, span = _spans(self.elements, at, perm, len(self))
        if span is None or len(span) != len(self):
            _check_unimodular(self.elements, "element")
            raise GroupNotClosed("element list is not closed under product")
        return picks

    @property
    def dim(self) -> int:
        return len(self.elements[0])

    def __len__(self):
        return len(self.elements)

    @classmethod
    def generate(cls, generators, cap: int = 10000) -> "GroupAction":
        """Closure of a generator list under product, grown coset by coset
        from its greedy picks. Raises ValueError when cap is not an integer
        >= 1 or when any generator has |det| != 1, else GroupNotClosed when
        the closure exceeds cap elements."""
        gens = _matrices(generators, "generator")
        try:
            cap = index(cap)
        except TypeError:
            raise ValueError(f"cap {cap!r} is not an integer") from None
        if cap < 1:
            raise ValueError(f"cap {cap} is below 1")
        # before the orbit, which a generator with |det| > 1 grows without end
        _check_unimodular(gens, "generator")
        n = len(gens[0])
        points, perms = _orbit(gens, n * cap)
        if perms is not None:
            picks, span = _spans(gens, points, dict(zip(gens, perms)).get, cap)
        if perms is None or len(span) > cap:
            raise GroupNotClosed(f"closure exceeds cap of {cap} elements")
        # the span is the closure of picks with |det| = 1, a group as it
        # stands; row i of an element s is points[s[i]]
        group = cls._from_checked(tuple(sorted(
            tuple(map(points.__getitem__, s[:n])) for s in span)))
        object.__setattr__(group, "_picks", picks)
        return group


class ToricLctReport(_Record):
    """Result of a toric lct computation: lct = 1/(1 + max_pairing), with a
    witness pair attaining the maximum (lexicographically smallest).

    lct, max_pairing and the witness vertex's entries are exact rationals
    (int or Fraction) and the witness ray's entries integers, else
    ValueError names the field. Both identities are checked in integers,
    through numerators and denominators, with the vertex scaled to integers
    over the lcm of its denominators."""

    lct: Fraction
    max_pairing: Fraction
    witness_vertex: tuple[Fraction, ...]
    witness_ray: tuple[int, ...]

    def __post_init__(self):
        lct, m, vertex, ray = self._values
        for name, x in (("lct", lct), ("max_pairing", m)):
            if not isinstance(x, _Exact):
                raise ValueError(f"{name} {x!r} is not an exact rational")
        if not all([isinstance(c, _Exact) for c in vertex]):
            raise ValueError(f"witness_vertex {vertex!r} has a non-rational entry")
        try:
            ray = [index(c) for c in ray]
        except TypeError:
            raise ValueError(f"witness_ray {ray!r} has a non-integer entry") from None
        # lct (1 + a/b) = 1 and <x/t, v> = a/b, over the denominators b, t
        a, b = m.numerator, m.denominator
        if lct.numerator * (b + a) != lct.denominator * b:
            raise ValueError("report inconsistent: lct != 1/(1+max_pairing)")
        x, t = _scale_to_integers(vertex)
        if dot(x, ray) * b != a * t:
            raise ValueError("report inconsistent: witness pairing")


def dual_polytope(rays: RaySet) -> HPolytope:
    """The polytope {w : <w, v> >= -1 for every ray v}."""
    return HPolytope(tuple(HalfSpace(v, -1) for v in rays))


def toric_lct(rays: RaySet, group: GroupAction | None = None) -> ToricLctReport:
    """Global lct of the complete toric variety with the given rays,
    equivariant under an optional finite group of lattice automorphisms.

    With a group, its dimension must match the rays' (else ValueError) and
    every generator must permute the rays, else GroupDoesNotPreserveFan
    naming the first of group.generators that does not; the pairing maximum
    is then taken over D^G, in coordinates s on the common fixed subspace of
    the transposes of the picks that spanned the group, w = B s for its basis
    B. Then the fan must be complete, else FanNotComplete: D bounded, or with
    a group, rays of rank n and D^G bounded, decided by one double description.

    Vertices are the integer rays (x, t) of geometry._vertex_rays, read from
    their tableau rows z: the rows are (v, -1), or (B^T v, -1) with a group,
    each distinct row once, so the rays of one G-orbit share a row, and
    z[1 + k] - t is the pairing, in integers, of the vertex with the rays of
    the k-th row; nothing is paired again. Rays zero on B have no row and
    pair at 0. One pass keeps the largest pairing p / t by cross-multiplying
    and reads the point x, lifted to B x with a group, only at a vertex that
    reaches it. Fractions are made only for the report. The witness is the
    smallest maximal vertex x / t, then its first maximal ray in sorted order.

    The rows follow the rays in sorted order, whatever order they came in.
    The double description's intermediate cones, and so its cost, depend on
    the order in which it inserts the rows: a product fan lists one
    factor's rays after the other's, and on such fans the sorted order
    makes far fewer candidate pairs. The witness rule is a total order, so
    the report does not depend on the order either way.
    """
    paired = sorted(rays)
    normals, d = paired, rays.dim
    if group is not None:
        if group.dim != rays.dim:
            raise ValueError("group dimension does not match rays")
        # the trivial group has no picks
        gens = group._picks or group.elements
        ray_set = set(rays)
        transposes = [transpose(g) for g in gens]

        def permutes(gt):
            # g v is v g^T
            return {_row_times(v, gt) for v in rays} == ray_set

        if not all(map(permutes, transposes)):
            # any generating set decides; the message names the same one
            bad = next(g for g in group.generators if not permutes(transpose(g)))
            raise GroupDoesNotPreserveFan(
                f"generator {bad} does not permute the rays")
        if len(_echelon(rays, rays.dim)[1]) < rays.dim:
            raise FanNotComplete("rays do not positively span the lattice")
        # the picks were checked as the group was built
        basis = _fixed_subspace(transposes)
        # <v, B s> >= -1 is <B^T v, s> >= -1
        normals, d = [[sum(map(mul, v, b)) for b in basis] for v in paired], len(basis)
    rows = [(*a, -1) for a in normals]
    # each nonzero row once, numbered by its place in the tableau rows z; a
    # row zero on B always holds, and its rays read z[0] = t: they pair at 0
    slot = {row: k for k, row in enumerate(
        dict.fromkeys(row for row in rows if any(row[:-1])), 1)}
    try:
        vertices = _vertex_rays(list(slot), d)
    except Unbounded:
        raise FanNotComplete("rays do not positively span the lattice") from None
    if group is not None:
        # one row per coordinate, empty ones when D^G = {0}: it lifts to 0
        lift = [[b[i] for b in basis] for i in range(rays.dim)]
    # the running maximum num / den of the pairings starts below any: a
    # complete fan's pairings sum to 0 under positive weights, so each
    # vertex's maximum is >= 0, the pairing of any ray without a row
    num, den, x, best = -1, 1, None, None
    for z in vertices:
        # z = (t, the row products, x, t)
        t = z[0]
        p = max(z[1:-d - 1], default=t) - t
        c = p * den - num * t
        if c < 0:
            continue
        y = z[-d - 1:-1]
        if group is not None:
            # ties compare the lifted points B s
            y = [sum(map(mul, row, y)) for row in lift]
        if c or (y < x if t == den else [a * den for a in y] < [a * t for a in x]):
            num, den, x, best = p, t, y, z
    v = next(v for v, row in zip(paired, rows) if best[slot.get(row, 0)] - den == num)
    m = Fraction(num, den)
    # (lct, max_pairing, witness_vertex, witness_ray), positional: no binding by name
    return ToricLctReport(1 / (1 + m), m, tuple(Fraction(c, den) for c in x), v)


# ---------------------------------------------------------------------------
# fan constructors


def projective_space_fan(n: int) -> RaySet:
    """Rays e_1, ..., e_n, -(e_1 + ... + e_n) of projective n-space. Unit
    vectors and a vector of -1s are primitive, nonzero and distinct, so the
    rays skip RaySet's checks."""
    if n < 1:
        raise ValueError("need n >= 1")
    return RaySet._from_checked(identity_matrix(n) + ((-1,) * n,))


def product_fan(a: RaySet, b: RaySet) -> RaySet:
    """Rays of the product fan: each factor's rays padded by zeros. Zero
    padding keeps two RaySets' rays primitive, nonzero, distinct and of one
    dimension, so their product is not checked again; other arguments go
    through RaySet."""
    da, db = a.dim, b.dim
    rays = (*[v + (0,) * db for v in a], *[(0,) * da + v for v in b])
    if a.__class__ is b.__class__ is RaySet:
        return RaySet._from_checked(rays)
    return RaySet(rays)


def _twists(n: int, twists) -> tuple[int, ...]:
    """Checked integer twists of a split bundle over projective n-space."""
    twists = _integers(twists, "twists")
    if n < 1 or not twists:
        raise ValueError("need base dimension >= 1 and at least one twist")
    if any(a < 0 for a in twists):
        raise ValueError("twists must be nonnegative")
    return twists


def projectivized_bundle_fan(n: int, twists) -> RaySet:
    """Fan of P(O + O(-a_1) + ... + O(-a_k)) over projective n-space.

    Fiber rays e_1..e_k and -(e_1+...+e_k); base rays e_{k+1}..e_{k+n} and
    the twisted ray (-a_1, ..., -a_k, -1, ..., -1). From checked integer
    twists these are unit vectors and two vectors with a -1 entry, one 0 on
    the base and one not: primitive, nonzero and distinct, so the rays skip
    RaySet's checks.
    """
    twists = _twists(n, twists)
    k = len(twists)
    unit = identity_matrix(k + n)
    return RaySet._from_checked((*unit[:k], (-1,) * k + (0,) * n, *unit[k:],
                                 tuple(-a for a in twists) + (-1,) * n))


def bundle_lct_closed_form(n: int, twists) -> Fraction:
    """lct of P(O + O(-a_1) + ... + O(-a_k)) over projective n-space:
    1 / (1 + max(k, n + a_1 + ... + a_k))."""
    twists = _twists(n, twists)
    return Fraction(1, 1 + max(len(twists), n + sum(twists)))


def star_subdivide(rays: RaySet, subset) -> RaySet:
    """Add the primitive part of the sum of a linearly independent subset of
    rays (the toric blow-up of the corresponding cone's stratum).

    The caller is responsible for the subset actually spanning a cone of the
    fan. Raises DegenerateSubdivision when the subset is empty, repeats a
    ray or is dependent, or when its primitive sum is already a ray. The
    rays of a RaySet are not checked again: the new ray is checked,
    primitive and not among them.
    """
    subset = [_integers(v, "ray") for v in subset]
    present = set(rays)
    if not subset:
        raise DegenerateSubdivision("empty subset")
    for v in subset:
        if v not in present:
            raise ValueError(f"{v} is not a ray of the fan")
    if len(set(subset)) != len(subset):
        raise DegenerateSubdivision("subset has repeated rays")
    if len(_echelon(subset, rays.dim)[1]) != len(subset):
        raise DegenerateSubdivision("subset is linearly dependent")
    total = tuple(sum(col) for col in zip(*subset))
    new = primitive_vector(total)
    if new in present:
        raise DegenerateSubdivision(f"{new} is already a ray")
    if rays.__class__ is RaySet:
        return RaySet._from_checked(rays.rays + (new,))
    return RaySet(rays.rays + (new,))


def wps_fan(weights) -> RaySet:
    """Fan of the weighted projective space P(a_0, ..., a_n).

    The rays are the images of the standard basis of Z^{n+1} in the quotient
    lattice Z^{n+1} / Z(a_0, ..., a_n), with the quotient basis read off a
    Smith normal form, so that sum a_i v_i = 0. Raises NotWellFormed unless
    every n of the weights are coprime.
    """
    weights = _integers(weights, "weights")
    check_well_formed(weights)
    n = len(weights) - 1
    # square matrix with the weights in column 0; its Smith u sends the
    # weight vector to +-e_1, so the last n coordinates of u present the
    # quotient lattice
    col = tuple(tuple(weights[i] if j == 0 else 0 for j in range(n + 1))
                for i in range(n + 1))
    u = smith_normal_form(col).u
    if any(mat_vec(u[1:], weights)):
        raise AssertionError("quotient basis failed: sum a_i v_i != 0")
    return RaySet(transpose(u[1:]))


def check_well_formed(weights) -> None:
    """Raise NotWellFormed unless every n-element sub-multiset of the n+1
    positive weights has gcd 1."""
    weights = _integers(weights, "weights")
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    if any(a < 1 for a in weights):
        raise ValueError("weights must be positive")
    for drop in range(len(weights)):
        g = gcd(*weights[:drop], *weights[drop + 1:])
        if g != 1:
            raise NotWellFormed(
                f"weights {weights} share a factor {g} once {weights[drop]} is dropped")


# ---------------------------------------------------------------------------
# fan text format


def format_fan(rays: RaySet, group: GroupAction | None = None) -> str:
    """Canonical text for a fan: one ray per line as comma-separated
    integers; then, if a group is given, a blank line and one matrix per
    line as dim*dim row-major integers."""
    lines = [",".join(str(c) for c in v) for v in rays]
    if group is not None:
        lines.append("")
        for g in group.elements:
            lines.append(",".join(str(c) for row in g for c in row))
    return "\n".join(lines) + "\n"


def _blocks(text: str, header: str | None = None) -> list[list[tuple[int, str]]]:
    """The runs of non-blank lines of text, as (lineno, line) pairs. A line
    ends at LF, CR LF or CR only, not at the other breaks that str.splitlines
    knows, such as a form feed or NEL. A blank line ends a run; so does a
    line starting with header, if one is given."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.strip()
        if blocks[-1] and (not line or header is not None and line.startswith(header)):
            blocks.append([])
        if line:
            blocks[-1].append((lineno, raw))
    return [block for block in blocks if block]


class _at_line:
    """with _at_line(lineno): re-raise a content fault in the block
    (ValueError, InvalidId, GroupNotClosed) as ParseError(lineno, its
    message). A class, not a generator: a block costs no frame."""

    def __init__(self, lineno: int):
        self.lineno = lineno

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, InvalidId, GroupNotClosed)):
            raise ParseError(self.lineno, str(exc)) from exc


def _ints(text: str) -> list[int]:
    """The integers of a comma-separated list, each token read by
    geometry._decimal; a blank or non-integer token raises ValueError."""
    return [_decimal(tok) for tok in text.split(",")]


def _int_rows(lines) -> list[tuple[int, list[int]]]:
    """(lineno, values) of the integer rows, read by _ints, among (lineno,
    line) pairs; '#' starts a comment. Raises ParseError on any other line."""
    rows = []
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            with _at_line(lineno):
                rows.append((lineno, _ints(line)))
    return rows


def _ray_block(rows, lineno: int) -> RaySet:
    """The RaySet of integer rows (lineno, values), as _int_rows reads them,
    of a fan file or a '[fan id]' block. A row of another length than the
    first fails at its own line; a fault of the RaySet (a zero or repeated
    ray) fails at the given lineno."""
    dim = len(rows[0][1])
    for row_line, values in rows:
        if len(values) != dim:
            raise ParseError(row_line, f"expected {dim} coordinates")
    with _at_line(lineno):
        return RaySet(tuple(tuple(values) for _, values in rows))


def _square_matrix(entries, n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n matrix with the given row-major entries."""
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} row-major entries")
    return tuple(tuple(entries[r * n:(r + 1) * n]) for r in range(n))


def parse_fan(text: str) -> tuple[RaySet, GroupAction | None]:
    """Inverse of format_fan. '#' starts a comment; a blank line separates
    the ray block from the optional group block. Raises ParseError with the
    offending line number."""
    blocks = [rows for rows in map(_int_rows, _blocks(text)) if rows]
    if not blocks:
        raise ParseError(1, "no rays")
    if len(blocks) > 2:
        raise ParseError(blocks[2][0][0], "more than two blocks")
    rays = _ray_block(blocks[0], blocks[0][0][0])
    group = None
    if len(blocks) == 2:
        matrices = []
        for lineno, values in blocks[1]:
            with _at_line(lineno):
                matrices.append(_square_matrix(values, rays.dim))
        with _at_line(blocks[1][0][0]):
            group = GroupAction(tuple(matrices))
    return rays, group
