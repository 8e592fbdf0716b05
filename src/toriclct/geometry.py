"""Exact rational linear algebra and bounded-polytope vertex enumeration.

Boundedness and vertices come from one double description routine: the
extreme rays of a pointed cone, as primitive integer vectors, each with the
rows it is tight at as an int bitmask. Each ray y is carried as its tableau
row (<row, y> for every row of the cone, then y), so a ray's side of an
inserted row is a lookup and a new ray is one linear combination of two
tableau rows. A vertex is a ray (x, t) of the homogenised cone, the point
x / t; its tableau row holds its pairing with every row, which toric_lct
reads instead of recomputing. Two rays are adjacent when they share d - 2
tight rows and, unless one of them is simple (tight at exactly d - 1 rows),
no third ray is tight at all of those; when an inserted row has many rays on
both sides, simple rays find their simple partners by hashing those shared
rows instead of testing every pair. Eliminations run in integers, fraction
free; Fraction holds only halfspaces and returned points, and a halfspace's
entries are read exactly by _rational. No floats, no epsilon.

Vectors are tuples, matrices are tuples of row tuples. A row vector times
a matrix, p @ b, is _row_times: the sum of the rows of b that the nonzero
entries of p pick, so the mostly-zero group matrices cost a few row copies,
not n^2 dot products.
An H-polytope is a finite intersection of closed halfspaces
{w : <normal, w> >= offset}.

_Record is the base of the package's frozen value classes: it compares,
hashes and shows them by their fields without importing dataclasses, which
would load inspect, ast and dis at every command-line start.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from numbers import Rational as _Exact
from operator import add, attrgetter, index, mul
from typing import Sequence

from .errors import EmptyPolytope, Unbounded

# The value type for every threshold and coordinate: exact p/q, reduced,
# positive denominator, arbitrary precision. fractions.Fraction guarantees
# all of that.
Rational = Fraction


# ---------------------------------------------------------------------------
# vector and matrix helpers


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def _integers(v, what: str) -> tuple[int, ...]:
    """The entries of v, which must be integers: no floats, no Fractions."""
    v = tuple(v)
    try:
        # sized exactly: tuple(map(...)) resizes, filling the tuple free lists
        return tuple([index(c) for c in v])
    except TypeError:
        raise ValueError(f"{what} {v} has a non-integer entry") from None


def _decimal(text: str) -> int:
    """The integer a token spells: an optional leading '-' and ASCII digits,
    whitespace around them ignored. Any other token, '+1', '1_0' and
    non-ASCII digits among them, raises ValueError."""
    token = text.strip()
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(token)


def _rational(x, what: str) -> Fraction:
    """x as a Fraction, read exactly from an int, a Fraction or a string: an
    integer token (_decimal) optionally followed by '/' or '.' and ASCII
    digits, such as '3/4' or '-0.75', whitespace around it ignored. Floats,
    other inexact numbers, any other string and zero denominators raise
    ValueError naming what."""
    with suppress(ValueError, ZeroDivisionError):
        if isinstance(x, str):
            head, sep, tail = x.strip().partition("/" if "/" in x else ".")
            _decimal(head)
            if sep:  # then ASCII digits: an integer token once a '-' leads
                _decimal(f"-{tail}")
            return Fraction(x)
        if isinstance(x, _Exact):
            return Fraction(x)
    raise ValueError(f"{what} {x!r} is not an exact rational")


def _threshold(x, what: str) -> Fraction:
    """x read by _rational, which must lie in (0, 1], as every threshold
    does."""
    x = _rational(x, what)
    if not 0 < x <= 1:
        raise ValueError(f"{what} must lie in (0, 1]")
    return x


def _matrices(matrices, what: str) -> tuple:
    """Integer copies of a nonempty list of square matrices of one
    dimension."""
    label = f"{what} row"
    out = tuple(tuple(_integers(row, label) for row in g) for g in matrices)
    if not out:
        raise ValueError(f"need at least one {what}")
    n = len(out[0])
    for g in out:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError(f"every {what} must be square of one dimension")
    return out


class _Record:
    """Base of the frozen value classes: a subclass's own annotations are its
    fields, in order, and a class-level value is a default. __init__ binds them
    and calls __post_init__; ==, hash and repr read them as a frozen dataclass's do."""

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)  # of one name, the bare value
        cls._values = property(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):  # by name, defaults filled in
            cls, rest = type(self), self._fields[len(args):]
            bad = sorted(set(kwargs).difference(rest)) + [
                f for f in rest if f not in kwargs and not hasattr(cls, f)]
            if len(args) > len(cls._fields) or bad:
                raise TypeError(f"{cls.__qualname__}() takes ({', '.join(cls._fields)}): got "
                                f"{len(args)} positional; unknown, repeated or missing {bad}")
            args += tuple(kwargs[f] if f in kwargs else getattr(cls, f) for f in rest)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _from_checked(cls, *values):
        """The record of field values that pass __post_init__ as they stand,
        bound in field order without running it: the one way to skip it."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __post_init__(self):
        """Checks and normalises the fields, writing by object.__setattr__."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self._values == other._values
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """The primitive part of a nonzero integer vector: v divided by gcd(v)."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple([c // g for c in v])


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def _row_times(p, b):
    """The row vector p times the matrix b of tuple rows, unchecked: the sum
    of the rows of b that the nonzero entries of p pick, c times row j for
    the entry c at j (row j itself when p picks it once with c = 1); None
    when p is zero."""
    acc = None
    for c, row in zip(p, b):
        if c:
            if c != 1:
                row = tuple([c * x for x in row])
            acc = row if acc is None else tuple(map(add, acc, row))
    return acc


def mat_mul(a, b):
    b = [tuple(row) for row in b]
    width = len(b[0]) if b else 0
    for rows, n in ((a, len(b)), (b, width)):
        for row in rows:
            if len(row) != n:
                raise ValueError(f"dimension mismatch: {len(row)} vs {n}")
    zero = (0,) * width
    return tuple([_row_times(row, b) or zero for row in a])


def _echelon(rows, width: int):
    """Fraction-free Gauss-Jordan over Z (Bareiss 1968; divisions are exact),
    pivoting in the first width columns, carrying later ones: (the nonzero
    rows, their pivot columns, d). Each row is d at its own pivot column and 0
    at the others, so row / d is the reduced row echelon form over Q; a swap
    negates the row it moves down, so d is det of a full-rank square matrix.

    A row x is updated to (p x - f y) // d for the pivot row y, pivot p and
    x's entry f in the pivot column. When f = 0 and p = d that is x itself,
    so the update is skipped; most updates of sparse unimodular inputs are
    such. The loop stops once every row holds a pivot: no later column can
    take one. The rows must hold integers already; callers check them.

    It is the package's one elimination."""
    a = list(rows)
    n = len(a)
    pivots: list[int] = []
    d = 1
    for col in range(width):
        top = len(pivots)
        if top == n:
            break
        for piv in range(top, n):
            if a[piv][col]:
                break
        else:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], [-x for x in a[top]]
        y = a[top]
        p = y[col]
        for r, row in enumerate(a):
            f = row[col]
            if r != top and (f or p != d):
                a[r] = [(p * x - f * c) // d for x, c in zip(row, y)]
        d = p
        pivots.append(col)
    return a[:len(pivots)], pivots, d


def _scale_to_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals times the lcm of their denominators: (integers, lcm)."""
    den = lcm(*(c.denominator for c in values))
    return tuple(c.numerator * (den // c.denominator) for c in values), den


# ---------------------------------------------------------------------------
# H-polytopes


class HalfSpace(_Record):
    """The closed halfspace {w : <normal, w> >= offset}, its entries read
    exactly by _rational."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        normal = tuple(_rational(c, "halfspace normal entry") for c in self.normal)
        if not normal or all(c == 0 for c in normal):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", _rational(self.offset, "halfspace offset"))

    @property
    def dim(self) -> int:
        return len(self.normal)


class HPolytope(_Record):
    """An intersection of finitely many halfspaces of one dimension."""

    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        halfspaces = tuple(self.halfspaces)
        if not halfspaces:
            raise ValueError("need at least one halfspace")
        d = halfspaces[0].dim
        if any(h.dim != d for h in halfspaces):
            raise ValueError("halfspaces of mixed dimension")
        object.__setattr__(self, "halfspaces", halfspaces)

    @property
    def dim(self) -> int:
        return self.halfspaces[0].dim


def _integer_rows(poly: HPolytope) -> list[tuple[int, ...]]:
    """Each halfspace rescaled to integer entries, as (normal..., offset)."""
    return [_scale_to_integers((*h.normal, h.offset))[0]
            for h in poly.halfspaces]


def _extreme_rays(rows, d: int):
    """The extreme rays of the pointed cone {y : <row, y> >= 0 for every
    row}, by double description (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996); None when the integer rows have rank < d.

    Each ray y is a pair (z, int bitmask of the rows it is tight at), where
    z = (<rows[0], y>, ..., <rows[N - 1], y>, *y) is its tableau row for the
    N rows, primitive: gcd(z) = gcd(y), since every product is an integer
    combination of y, so z[N:] is the primitive ray. The first cone is cut by
    the first d independent rows B in input order: one elimination of the
    transposed rows beside the identity picks B and gives det(B) B^-T, whose
    rows, negated when det(B) < 0, are its rays. The eliminated [rows^T | I]
    holds each such row after its products with every row, so its rows, so
    oriented, are already the tableau rows. Every other row k is inserted in
    turn, and a ray's side of it is its entry z[k]: a ray on its positive
    side and one on its negative side combine into a ray on its hyperplane
    iff they are adjacent, that is, their common tight rows Z number at least
    d - 2 and no third ray is tight at all of Z. The combination is linear in
    the whole tableau row, so every product stays exact. The test is
    combinatorial, so it stays exact on degenerate cones.

    The scan for a third ray runs only when neither ray is simple, that is,
    tight at exactly d - 1 rows. An extreme ray's tight rows have rank d - 1,
    so a simple ray's d - 1 tight rows are independent; a ray tight at all of
    them lies on the same line, so any other ray shares at most d - 2 of them.
    When it shares d - 2, Z is independent, so the face cut out by Z spans a
    2-D subspace. That face contains both rays, so it is a pointed 2-D cone
    whose only two extreme rays are these two: the pair is adjacent.

    So two simple rays are adjacent iff their masks of d - 1 bits share
    d - 2. When |pos| |neg| exceeds 2 (|pos| + |neg|) (d - 1), the pairs
    come from _hashed_pairs, which finds those simple pairs by hashing and
    keeps every other pair with at least d - 2 common bits, in the order of
    the full loop; all take the test above, so the rays, masks and order
    are the same either way. Below that switch the full loop is cheaper
    than the index. The intermediate cones, and so the cost, still depend
    on the order of the rows, which is the caller's: toric_lct sorts them.
    """
    eliminated, basis, det = _echelon(
        [(*col, *e) for col, e in zip(transpose(rows), identity_matrix(d))], len(rows))
    if len(basis) < d:
        return None
    tight = sum(1 << i for i in basis)
    rays = [(primitive_vector(row if det > 0 else [-x for x in row]),
             tight ^ (1 << i)) for row, i in zip(eliminated, basis)]
    for k in range(len(rows)):
        if k in basis:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for z, mask in rays:
            s = z[k]
            if s > 0:
                pos.append((s, z, mask))
                kept.append((z, mask))
            elif s < 0:
                neg.append((s, z, mask))
            else:
                kept.append((z, mask | bit))
        # distinct extreme rays of a pointed cone have distinct tight sets
        masks = [mask for _, mask in rays]
        if len(pos) * len(neg) > 2 * (len(pos) + len(neg)) * (d - 1):
            pairs = _hashed_pairs(pos, neg, d)
        else:
            pairs = product(pos, neg)
        for (sp, p, mp), (sn, q, mq) in pairs:
            common = mp & mq
            if common.bit_count() < d - 2 or (
                    mp.bit_count() >= d and mq.bit_count() >= d and any(
                        m & common == common and m != mp and m != mq
                        for m in masks)):
                continue
            z = primitive_vector([sp * b - sn * a for a, b in zip(p, q)])
            kept.append((z, common | bit))
        rays = kept
    return rays


def _low_bits(mask: int):
    """The set bits of mask, each as an int of one bit, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _hashed_pairs(pos, neg, d: int) -> list:
    """The (+, -) pairs of _extreme_rays whose masks share at least d - 2
    bits, in the order of product(pos, neg). Each negative simple ray is
    indexed under its d - 1 masks with one bit dropped, and each positive
    simple ray looks up its own d - 1: two distinct simple masks of d - 1
    bits share d - 2 iff they meet under exactly one such key. Pairs with a
    non-simple ray are counted bit by bit."""
    masks = [(j, b[2]) for j, b in enumerate(neg)]
    keys, wide = {}, []
    for j, mask in masks:
        if mask.bit_count() >= d:
            wide.append((j, mask))
        else:
            for low in _low_bits(mask):
                keys.setdefault(mask ^ low, []).append(j)
    pairs = []
    for a in pos:
        mask = a[2]
        simple = mask.bit_count() < d
        found = [j for j, m in (wide if simple else masks)
                 if (mask & m).bit_count() >= d - 2]
        if simple:
            for low in _low_bits(mask):
                found += keys.get(mask ^ low, ())
            found.sort()
        pairs += [(a, neg[j]) for j in found]
    return pairs


def is_bounded(poly: HPolytope) -> bool:
    """Exact boundedness test: true iff the recession cone {d : <a_i, d> >= 0
    for every i} is {0}, i.e. the normals positively span the ambient space.

    Decided by double description on the normals alone: the polytope is
    bounded iff they have full rank, so that the cone is pointed, and the
    cone has no extreme ray.
    """
    normals = [row[:-1] for row in _integer_rows(poly)]
    return _extreme_rays(normals, poly.dim) == []


def _vertex_rays(rows, n: int) -> list[tuple[int, ...]]:
    """The vertices of {w in Q^n : <a, w> >= b for every integer row (a, b)},
    unsorted: the primitive extreme rays (x, t), t > 0, each the point x / t,
    of the cone {(x, t) : t >= 0, <a, x> - b t >= 0}, by double description
    with the row t >= 0 inserted first.

    Each is returned as its tableau row from _extreme_rays: z[0] = t,
    z[1 + k] = <a_k, x> - b_k t for input row k, and z[-n - 1:] = (x, t).

    Raises Unbounded when the polytope has a recession direction (the rows
    have rank < n + 1, or some extreme ray has t = 0) and EmptyPolytope when
    no point satisfies all rows (no extreme ray at all).
    """
    rows = [(0,) * n + (1,)] + [(*row[:n], -row[n]) for row in rows]
    rays = _extreme_rays(rows, n + 1)
    if rays is None or any(z[0] == 0 for z, _ in rays):
        raise Unbounded("polytope has a recession direction")
    if not rays:
        raise EmptyPolytope("no feasible point")
    return [z for z, _ in rays]


def enumerate_vertices(poly: HPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of a bounded H-polytope, sorted lexicographically, from
    _vertex_rays. Raises Unbounded or EmptyPolytope as that does."""
    n = poly.dim
    rays = [z[-n - 1:] for z in _vertex_rays(_integer_rows(poly), n)]
    # integer keys over the common denominator sort faster than Fractions
    den = lcm(*(y[n] for y in rays))
    points = sorted(rays, key=lambda y: [x * (den // y[n]) for x in y[:n]])
    return tuple(tuple(Fraction(x, y[n]) for x in y[:n]) for y in points)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithDecomposition(_Record):
    """u @ a @ v == d with u, v unimodular and d = diag(d1 | d2 | ...) >= 0."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def reconstructs(self, matrix) -> bool:
        return mat_mul(mat_mul(self.u, matrix), self.v) == tuple(
            tuple(row) for row in self.d)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Exact Smith decomposition of a square integer matrix a.

    Works on the block matrix m = [[a, u], [v, 0]], with u = v = I at the
    start, through one reduction step: move row i to row t, subtract from
    each top-block row below t the floor quotient of its pivot-column entry
    by the pivot times row t, and report whether a nonzero remainder is left
    in that column. Run on m, the step's row operations act on a and u;
    run on the transpose of m, whose top block is [a^T | v^T], they are
    column operations on a and v. The pivot is a nonzero entry of least
    absolute value in the trailing block, the first in row-major order; once
    row and column t are clear, a trailing row that the pivot does not
    divide is added to row t and the pivot sought again, and d[t][t] is
    made nonnegative last.
    """
    (matrix,) = _matrices([matrix], "matrix")
    n = len(matrix)
    eye = identity_matrix(n)
    m = [row + e for row, e in zip(matrix, eye)] + [e + (0,) * n for e in eye]

    def step(m, t, i, j) -> bool:
        m[t], m[i] = m[i], m[t]
        y = m[t]
        for r in range(t + 1, n):
            if m[r][j]:
                q = m[r][j] // y[j]
                m[r] = [x - q * c for x, c in zip(m[r], y)]
        return any(m[r][j] for r in range(t + 1, n))

    for t in range(n):
        while True:
            entries = [(abs(x), i, j) for i in range(t, n)
                       for j, x in enumerate(m[i][t:n], t) if x]
            if not entries:
                break
            _, i, j = min(entries)
            left = step(m, t, i, j)
            m = list(zip(*m))
            left = step(m, t, j, t) or left
            m = list(zip(*m))
            if left:
                continue
            p = m[t][t]
            offender = next((r for r in range(t + 1, n)
                             if any(x % p for x in m[r][:n])), None)
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    return SmithDecomposition(tuple(tuple(row[n:]) for row in m[:n]),
                              tuple(tuple(row[:n]) for row in m[:n]),
                              tuple(tuple(row[:n]) for row in m[n:]))


# ---------------------------------------------------------------------------
# fixed subspaces of matrix groups


def fixed_subspace(gens) -> list[tuple[int, ...]]:
    """Basis of the common fixed subspace {w : g w = w for every g}.

    Computed as the kernel over Q of the stacked matrices g - I; basis
    vectors are primitive integer vectors, one per free column of the reduced
    system and positive there, in ascending column order. The identity yields
    the standard basis; an empty list means the fixed subspace is {0}.
    """
    return _fixed_subspace(_matrices(gens, "matrix"))


def _fixed_subspace(gens) -> list[tuple[int, ...]]:
    """fixed_subspace of a nonempty list of integer square matrices of one
    dimension, which the caller has checked."""
    n = len(gens[0])
    rows = [(*row[:i], row[i] - 1, *row[i + 1:]) for g in gens for i, row in enumerate(g)]
    reduced, pivots, d = _echelon(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [d * d * (c == free) for c in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -d * row[free]
        basis.append(primitive_vector(vec))
    return basis
