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
x / t, paired with R in integers. The engine works from generators: G permutes
R iff each generator does, and D^G lies in the intersection of the fixed
subspaces of the generators' transposes. Each group is spanned once, coset by
coset, from its greedy picks: generate spans its generator list, and an
element list is checked by the span of its own picks. The engine reads the
picks of whichever span built the group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .errors import (DegenerateSubdivision, FanNotComplete,
                     GroupDoesNotPreserveFan, GroupNotClosed, NotWellFormed,
                     ParseError, Unbounded)
# bench/layers.py rebinds is_bounded, enumerate_vertices (unused here), mat_mul
from .geometry import (HalfSpace, HPolytope, _integers, _vertex_rays, dot,
                       enumerate_vertices, fixed_subspace, identity_matrix,
                       is_bounded, mat_det, mat_mul, mat_rank, mat_vec,
                       primitive_vector, smith_normal_form, transpose)


@dataclass(frozen=True)
class RaySet:
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
        d = len(rays[0])
        if d < 1 or any(len(v) != d for v in rays):
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


def _matrices(matrices, what: str) -> tuple:
    """Integer copies of a nonempty list of square matrices of one
    dimension."""
    out = tuple(tuple(_integers(row, f"{what} row") for row in g)
                for g in matrices)
    if not out:
        raise ValueError(f"need at least one {what}")
    n = len(out[0])
    for g in out:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError(f"{what}s must be square of one dimension")
    return out


def _spans(candidates, cap: int, what: str):
    """Yield (picks, span) before the first greedy pick and after each. A
    pick is a candidate outside the span, with |det| = 1 checked; the span
    grows to the closure of the picks by right cosets H x of the old span H
    (Dimino's algorithm), so only coset representatives x times the picks
    need a membership test. All stops once the span exceeds cap elements."""
    picks, span = (), {identity_matrix(len(candidates[0]))}
    yield picks, span
    for g in candidates:
        if g in span:
            continue
        if abs(mat_det(g)) != 1:
            raise ValueError(f"{what} {g} is not unimodular")
        picks += (g,)
        old = tuple(span)
        span.update(mat_mul(h, g) for h in old)
        reps = [g]
        for r in reps:
            if len(span) > cap:
                break
            for s in picks:
                x = mat_mul(r, s)
                if x not in span:
                    reps.append(x)
                    span.update(mat_mul(h, x) for h in old)
        yield picks, span
        if len(span) > cap:
            return


@dataclass(frozen=True)
class GroupAction:
    """A finite group of integer matrices, |det| = 1 each, closed under
    product and containing the identity.

    generators: the elements outside the span of the ones picked before
    them, in element order; each pick at least doubles the span. The list
    is checked as that span grows, coset by coset, once: each pick has
    |det| = 1 and the span must stay in the list, ending equal to it.
    A group built by generate skips that check, since it is its own span;
    its generators are computed on first access.
    """

    elements: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        elements = _matrices(self.elements, "element")
        table = set(elements)
        if len(table) != len(elements):
            raise GroupNotClosed("repeated elements")
        if identity_matrix(len(elements[0])) not in table:
            raise GroupNotClosed("identity element missing")
        for gens, span in _spans(elements, len(elements), "element"):
            if not span <= table:
                raise GroupNotClosed("element list is not closed under product")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_picks", gens)

    @cached_property
    def generators(self) -> tuple:
        *_, (picks, _) = _spans(self.elements, len(self), "element")
        return picks

    @property
    def dim(self) -> int:
        return len(self.elements[0])

    def __len__(self):
        return len(self.elements)

    @classmethod
    def generate(cls, generators, cap: int = 10000) -> "GroupAction":
        """Closure of a generator list under product, grown coset by coset
        from its greedy picks. Raises ValueError when any generator has
        |det| != 1, else GroupNotClosed when the closure exceeds cap."""
        gens = _matrices(generators, "generator")
        *_, (picks, span) = _spans(gens, cap, "generator")
        if len(span) > cap:
            # the span stopped at cap, maybe before a generator with |det| != 1
            for g in gens:
                if abs(mat_det(g)) != 1:
                    raise ValueError(f"generator {g} is not unimodular")
            raise GroupNotClosed(f"closure exceeds cap of {cap} elements")
        # no __post_init__: the span is the closure of picks with |det| = 1,
        # a group as it stands
        group = object.__new__(cls)
        object.__setattr__(group, "elements", tuple(sorted(span)))
        object.__setattr__(group, "_picks", picks)
        return group


@dataclass(frozen=True)
class ToricLctReport:
    """Result of a toric lct computation: lct = 1/(1 + max_pairing), with a
    witness pair attaining the maximum (lexicographically smallest)."""

    lct: Fraction
    max_pairing: Fraction
    witness_vertex: tuple[Fraction, ...]
    witness_ray: tuple[int, ...]

    def __post_init__(self):
        if self.lct * (1 + self.max_pairing) != 1:
            raise ValueError("report inconsistent: lct != 1/(1+max_pairing)")
        if dot(self.witness_vertex, self.witness_ray) != self.max_pairing:
            raise ValueError("report inconsistent: witness pairing")


def dual_polytope(rays: RaySet) -> HPolytope:
    """The polytope {w : <w, v> >= -1 for every ray v}."""
    return HPolytope(tuple(HalfSpace(v, Fraction(-1)) for v in rays))


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

    Vertices are the integer rays (x, t) of geometry._vertex_rays, paired in
    integers; Fractions are made only for the report. The witness is the
    smallest maximal vertex x / t, then its first maximal ray in sorted order.
    """
    rows, d = [(*v, -1) for v in rays], rays.dim
    if group is not None:
        if group.dim != rays.dim:
            raise ValueError("group dimension does not match rays")
        # the trivial group has no picks
        gens = group._picks or group.elements
        ray_set = set(rays)

        def permutes(g):
            return {mat_vec(g, v) for v in rays} == ray_set

        if not all(map(permutes, gens)):
            # any generating set decides; the message names the same one
            bad = next(g for g in group.generators if not permutes(g))
            raise GroupDoesNotPreserveFan(
                f"generator {bad} does not permute the rays")
        if mat_rank(rays) < rays.dim:
            raise FanNotComplete("rays do not positively span the lattice")
        basis = fixed_subspace([transpose(g) for g in gens])
        # <v, B s> >= -1 is <B^T v, s> >= -1; rows zero on B always hold
        normals = [[dot(v, b) for b in basis] for v in rays]
        rows, d = [(*a, -1) for a in normals if any(a)], len(basis)
    try:
        vertices = _vertex_rays(rows, d)
    except Unbounded:
        raise FanNotComplete("rays do not positively span the lattice") from None
    if group is not None:
        # one row per coordinate, empty ones when D^G = {0}: it lifts to 0
        lift = [[b[i] for b in basis] for i in range(rays.dim)]
        vertices = [(*mat_vec(lift, y[:-1]), y[-1]) for y in vertices]
    # map stops at the ray's length, so t is never paired
    ordered = sorted(rays)
    best = None
    for y in vertices:
        pairings = [sum(map(mul, y, v)) for v in ordered]
        p, t, x = max(pairings), y[-1], y[:-1]
        if best is None or p * best[1] > best[0] * t or (
                p * best[1] == best[0] * t
                and [c * best[1] for c in x] < [c * t for c in best[2]]):
            best = (p, t, x, ordered[pairings.index(p)])
    num, t, x, v = best
    m = Fraction(num, t)
    return ToricLctReport(lct=1 / (1 + m), max_pairing=m,
                          witness_vertex=tuple(Fraction(c, t) for c in x),
                          witness_ray=v)


# ---------------------------------------------------------------------------
# fan constructors


def projective_space_fan(n: int) -> RaySet:
    """Rays e_1, ..., e_n, -(e_1 + ... + e_n) of projective n-space."""
    if n < 1:
        raise ValueError("need n >= 1")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return RaySet(tuple(rays))


def product_fan(a: RaySet, b: RaySet) -> RaySet:
    """Rays of the product fan: each factor's rays padded by zeros."""
    da, db = a.dim, b.dim
    rays = [v + (0,) * db for v in a]
    rays += [(0,) * da + v for v in b]
    return RaySet(tuple(rays))


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
    the twisted ray (-a_1, ..., -a_k, -1, ..., -1).
    """
    twists = _twists(n, twists)
    k = len(twists)
    d = k + n
    rays = [tuple(int(i == j) for j in range(d)) for i in range(k)]
    rays.append(tuple(-1 if j < k else 0 for j in range(d)))
    rays += [tuple(int(i == j) for j in range(d)) for i in range(k, d)]
    rays.append(tuple(-twists[j] if j < k else -1 for j in range(d)))
    return RaySet(tuple(rays))


def bundle_lct_closed_form(n: int, twists) -> Fraction:
    """lct of P(O + O(-a_1) + ... + O(-a_k)) over projective n-space:
    1 / (1 + max(k, n + a_1 + ... + a_k))."""
    twists = _twists(n, twists)
    return Fraction(1, 1 + max(len(twists), n + sum(twists)))


def star_subdivide(rays: RaySet, subset) -> RaySet:
    """Add the primitive part of the sum of a linearly independent subset of
    rays (the toric blow-up of the corresponding cone's stratum).

    The caller is responsible for the subset actually spanning a cone of the
    fan. Raises DegenerateSubdivision when the subset is dependent, sums to
    zero, or its primitive sum is already a ray.
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
    if mat_rank(subset) != len(subset):
        raise DegenerateSubdivision("subset is linearly dependent")
    total = tuple(sum(col) for col in zip(*subset))
    if all(c == 0 for c in total):
        raise DegenerateSubdivision("subset sums to zero")
    new = primitive_vector(total)
    if new in present:
        raise DegenerateSubdivision(f"{new} is already a ray")
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
    rays = []
    for i in range(n + 1):
        v = tuple(u[r][i] for r in range(1, n + 1))
        rays.append(v)
    combo = [sum(w * v[i] for w, v in zip(weights, rays)) for i in range(n)]
    if any(combo):
        raise AssertionError("quotient basis failed: sum a_i v_i != 0")
    return RaySet(tuple(rays))


def check_well_formed(weights) -> None:
    """Raise NotWellFormed unless every n-element sub-multiset of the n+1
    positive weights has gcd 1."""
    weights = _integers(weights, "weights")
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    if any(a < 1 for a in weights):
        raise ValueError("weights must be positive")
    for drop in range(len(weights)):
        g = 0
        for i, a in enumerate(weights):
            if i != drop:
                g = gcd(g, a)
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
    """The runs of non-blank lines of text, as (lineno, line) pairs. A blank
    line ends a run; so does a line starting with header, if one is given."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if blocks[-1] and (not line or header is not None and line.startswith(header)):
            blocks.append([])
        if line:
            blocks[-1].append((lineno, raw))
    return [block for block in blocks if block]


def _int_rows(lines) -> list[tuple[int, list[int]]]:
    """(lineno, values) of the comma-separated integer rows among (lineno,
    line) pairs; '#' starts a comment. Raises ParseError on any other line."""
    rows = []
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                rows.append((lineno, [int(tok) for tok in line.split(",")]))
            except ValueError:
                raise ParseError(lineno, f"not a comma-separated integer row: {raw!r}")
    return rows


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
    ray_block = blocks[0]
    dim = len(ray_block[0][1])
    for lineno, values in ray_block:
        if len(values) != dim:
            raise ParseError(lineno, f"expected {dim} coordinates")
    try:
        rays = RaySet(tuple(tuple(values) for _, values in ray_block))
    except ValueError as exc:
        raise ParseError(ray_block[0][0], str(exc))
    group = None
    if len(blocks) == 2:
        matrices = []
        for lineno, values in blocks[1]:
            try:
                matrices.append(_square_matrix(values, dim))
            except ValueError as exc:
                raise ParseError(lineno, str(exc))
        try:
            group = GroupAction(tuple(matrices))
        except (ValueError, GroupNotClosed) as exc:
            raise ParseError(blocks[1][0][0], str(exc))
    return rays, group
