"""Closed-form log canonical thresholds and complex singularity exponents.

Every function returns an exact Fraction. The del Pezzo values and the
surfaces they are known for live in one table, DEL_PEZZO_LCT; the
cubic-surface classifier encodes the standard value table for singular
cubics; the remaining functions are one-line formulas with explicit
validity regimes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from .errors import OutOfRegime, UnknownKey, UnsupportedDescriptor
from .geometry import _Record, _integers, _threshold
from .toric import check_well_formed

CUBIC_SINGULARITY_TYPES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")


def wps_lct(weights) -> Fraction:
    """lct of the weighted projective space P(a_0 <= ... <= a_n):
    a_0 / (a_0 + ... + a_n). Weights are sorted internally; raises
    NotWellFormed unless every n of them are coprime."""
    weights = tuple(sorted(_integers(weights, "weights")))
    check_well_formed(weights)
    return Fraction(weights[0], sum(weights))


def hypersurface_lct(n: int, m: int) -> Fraction:
    """lct of a smooth hypersurface of degree m < n in projective n-space:
    1/(n + 1 - m). Raises OutOfRegime when m >= n."""
    n, m = _integers((n, m), "dimension and degree")
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if m >= n:
        raise OutOfRegime(f"degree {m} hypersurface in P^{n}: formula needs m < n")
    return Fraction(1, n + 1 - m)


def double_cover_lct(n: int, d: int) -> Fraction:
    """lct of a smooth double cover of projective n-space branched in degree
    2d, for 2 <= d <= n - 1: 1/(n + 1 - d)."""
    n, d = _integers((n, d), "dimension and half-degree")
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if not 2 <= d <= n - 1:
        raise OutOfRegime(f"branch half-degree {d} over P^{n}: formula needs 2 <= d <= n-1")
    return Fraction(1, n + 1 - d)


def _exponents(exponents) -> tuple[int, ...]:
    """The exponents of a singularity: at least one, each a positive
    integer."""
    exponents = _integers(exponents, "exponents")
    if not exponents or any(m < 1 for m in exponents):
        raise ValueError("exponents must be positive integers")
    return exponents


def monomial_cse(exponents) -> Fraction:
    """Complex singularity exponent of the monomial z_1^{m_1} ... z_k^{m_k}
    at the origin: min(1/m_i)."""
    return Fraction(1, max(_exponents(exponents)))


def fermat_cse(exponents) -> Fraction:
    """Complex singularity exponent of z_1^{m_1} + ... + z_k^{m_k} at the
    origin: min(1, sum 1/m_i)."""
    return min(Fraction(1), sum(Fraction(1, m) for m in _exponents(exponents)))


def product_lct(a, b) -> Fraction:
    """lct of a product with canonical Gorenstein factors: min of the
    factors' thresholds, each read by geometry._threshold."""
    return min(_threshold(a, "factor threshold"), _threshold(b, "factor threshold"))


def p1_product_lct(a) -> Fraction:
    """lct of a product of the projective line with a log terminal Fano:
    product_lct(1/2, a), the projective line's threshold being 1/2."""
    return product_lct(Fraction(1, 2), a)


# The global lct of every tabulated del Pezzo surface, keyed by (degree,
# nodes, flags, degree8_type); flags name the boolean features it carries.
DEL_PEZZO_LCT = {
    (1, 0, (), None): Fraction(1), (1, 0, ("cuspidal",), None): Fraction(5, 6),
    (2, 0, (), None): Fraction(5, 6), (2, 0, ("tacnodal",), None): Fraction(3, 4),
    (3, 0, (), None): Fraction(3, 4), (3, 0, ("Eckardt",), None): Fraction(2, 3),
    (4, 0, (), None): Fraction(2, 3), (4, 1, (), None): Fraction(1, 2),
    (5, 0, (), None): Fraction(1, 2), (5, 1, (), None): Fraction(1, 2),
    (6, 0, (), None): Fraction(1, 2), (6, 1, (), None): Fraction(1, 3),
    (7, 0, (), None): Fraction(1, 3),
    (8, 0, (), "product"): Fraction(1, 2), (8, 0, (), "nonproduct"): Fraction(1, 3),
    (9, 0, (), None): Fraction(1, 3),
}


def _describe(nodes: int, flags: tuple, degree8_type) -> str:
    """The features of a DEL_PEZZO_LCT key, in words."""
    named = ([f"{nodes} node" + "s" * (nodes != 1)] if nodes else []) + list(flags)
    if degree8_type is not None:
        named.append(f"{degree8_type} type")
    return " + ".join(named) or "no feature"


class DelPezzoDescriptor(_Record):
    """A del Pezzo surface, described by degree plus the features that move
    its threshold; degree8_type is "product" for the quadric surface and
    "nonproduct" for the one-point blow-up of the plane. A combination that
    is not a key of DEL_PEZZO_LCT raises UnsupportedDescriptor.
    """

    degree: int
    nodes: int = 0
    has_cuspidal_anticanonical: bool = False
    has_tacnodal_anticanonical: bool = False
    has_eckardt_point: bool = False
    degree8_type: str | None = None

    @property
    def key(self) -> tuple:
        """The (degree, nodes, flags, degree8_type) key of DEL_PEZZO_LCT."""
        flags = (("cuspidal", self.has_cuspidal_anticanonical),
                 ("tacnodal", self.has_tacnodal_anticanonical),
                 ("Eckardt", self.has_eckardt_point))
        return (self.degree, self.nodes, tuple(name for name, on in flags if on),
                self.degree8_type)

    def __post_init__(self):
        if self.key not in DEL_PEZZO_LCT:
            known = [_describe(*k[1:]) for k in DEL_PEZZO_LCT if k[0] == self.degree]
            raise UnsupportedDescriptor(
                f"no value for degree {self.degree} with {_describe(*self.key[1:])}; "
                f"tabulated for degree {self.degree}: {', '.join(known) or 'none'}"
                + ("; route singular cubics to cubic_surface_lct"
                   if self.degree == 3 and self.nodes else ""))


def del_pezzo_lct(surface: DelPezzoDescriptor) -> Fraction:
    """Global lct of a del Pezzo surface, looked up in DEL_PEZZO_LCT."""
    return DEL_PEZZO_LCT[surface.key]


def cubic_surface_lct(singularities: Iterable[str]) -> Fraction:
    """Global lct of a cubic surface with du Val singularities, from the
    multiset of singularity types.

    Precedence: exactly one A1 -> 2/3; any A5 or exactly {D5} -> 1/4;
    exactly {E6} -> 1/6; any A4, or exactly {D4}, or two or more A2 -> 1/3;
    everything else (including the smooth surface's types being routed
    through del_pezzo_lct instead) -> 1/2.
    """
    bag = Counter(str(s) for s in singularities)
    if not bag:
        raise ValueError("empty singularity multiset; smooth cubics go through del_pezzo_lct")
    unknown = sorted(set(bag) - set(CUBIC_SINGULARITY_TYPES))
    if unknown:
        raise ValueError(f"unknown singularity types: {', '.join(unknown)}")
    if bag == {"A1": 1}:
        return Fraction(2, 3)
    if bag["A5"] or bag == {"D5": 1}:
        return Fraction(1, 4)
    if bag == {"E6": 1}:
        return Fraction(1, 6)
    if bag["A4"] or bag == {"D4": 1} or bag["A2"] >= 2:
        return Fraction(1, 3)
    return Fraction(1, 2)


class EquivariantLct(_Record):
    """A tabulated equivariant threshold and the action it is known for."""

    value: Fraction
    provenance: str


KNOWN_EQUIVARIANT: dict[str, EquivariantLct] = {
    "dP5_S5": EquivariantLct(Fraction(2), "quintic del Pezzo surface with its symmetric-group action"),
    "dP5_A5": EquivariantLct(Fraction(2), "quintic del Pezzo surface with its alternating-group action"),
    "FermatCubic_Aut": EquivariantLct(Fraction(4), "Fermat cubic surface with its full automorphism group"),
    "P2_A6": EquivariantLct(Fraction(2), "projective plane with the icosahedral A6 action"),
}


def known_equivariant_lct(key: str) -> EquivariantLct:
    """Tabulated equivariant thresholds (value, provenance) for the four
    classically known group actions; raises UnknownKey otherwise."""
    try:
        return KNOWN_EQUIVARIANT[key]
    except KeyError:
        raise UnknownKey(f"no tabulated equivariant lct for {key!r}; "
                         f"known keys: {', '.join(sorted(KNOWN_EQUIVARIANT))}")
