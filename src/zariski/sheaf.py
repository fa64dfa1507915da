"""Sections of the structure sheaf on basic opens, restriction, and gluing.

A section over the basic open of ``f`` is an element of the localization
A_f; restriction to a smaller basic open D(g) <= D(f) is the canonical map
A_f -> A_g, the extension of A -> A_g that sends 1/f to the inverse of f
in A_g (the universal property of localization).  A cover is
a generator list with a unit-ideal certificate; ``glue`` reassembles a
global element from a compatible family of local sections and verifies the
result, realizing the equalizer property of the structure sheaf
constructively.  ``invertibility_support_basic`` computes, inside the part
of the lattice below D(f), the largest open on which a section becomes
invertible.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .algebra import (
    POWER_CAP,
    AlgebraElement,
    AlgebraMorphism,
    ExtractionCapError,
    Localization,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
    try_extend,
)
from .lattice import ZarElement, basic_open


class BasicOpenSection:
    """An element of A_f, tagged with its localization presentation."""

    __slots__ = ("loc", "value")

    def __init__(self, loc: Localization, value: AlgebraElement):
        if value.algebra != loc.algebra:
            raise ValueError("value does not live in the localization")
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BasicOpenSection is immutable")

    @property
    def base(self) -> PresentedAlgebra:
        return self.loc.base

    @property
    def denominator(self) -> AlgebraElement:
        return self.loc.denominator

    def __str__(self):
        return f"{self.value} over D({self.denominator})"

    def __repr__(self):
        return f"<section {self}>"


def global_section(loc: Localization, a: AlgebraElement) -> BasicOpenSection:
    """The restriction a/1 of a global element to D(f)."""
    return BasicOpenSection(loc, loc.to_loc(loc.base.element(a)))


def section_equal(s: BasicOpenSection, t: BasicOpenSection) -> bool:
    """Equality of fractions, decided by normal forms in A[y]/(fy-1)."""
    if s.loc != t.loc:
        raise ValueError("sections over different basic opens")
    return s.value == t.value


def restriction_map(loc_f: Localization, loc_g: Localization) -> AlgebraMorphism:
    """The canonical map A_f -> A_g for D(g) <= D(f).

    The universal property of A_f (``try_extend``) applied to A -> A_g: f
    maps to a unit of A_g exactly when D(g) <= D(f), and 1/f goes to its
    certified inverse there.
    """
    if loc_f.base != loc_g.base:
        raise ValueError("localizations of different algebras")
    phi = try_extend(loc_f, loc_g.to_loc)
    if phi is None:
        raise ValueError(
            f"D({loc_g.denominator}) is not below D({loc_f.denominator}); "
            "no restriction map exists"
        )
    return phi


def restrict(s: BasicOpenSection, g: AlgebraElement) -> BasicOpenSection:
    """Restrict a section over D(f) to D(g) <= D(f)."""
    loc_g = make_localization(s.base, g)
    return BasicOpenSection(loc_g, restriction_map(s.loc, loc_g)(s.value))


class CoverData:
    """A basic-open cover of the full spectrum, with its unit certificate.

    Construction fails unless 1 = sum(certificate[i] * pieces[i]) can be
    produced; the stored certificate re-evaluates exactly.
    """

    __slots__ = ("base", "pieces", "certificate")

    def __init__(self, base: PresentedAlgebra, pieces: Sequence[AlgebraElement]):
        pieces = tuple(base.element(p) for p in pieces)
        cert = base.unit_certificate(pieces)
        if cert is None:
            raise ValueError(
                f"D({', '.join(str(p) for p in pieces)}) does not cover: "
                "the pieces do not generate the unit ideal"
            )
        combo = base.zero
        for e, p in zip(cert, pieces):
            combo = combo + e * p
        if combo != base.one:
            raise AssertionError("unit certificate failed to re-evaluate to 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "certificate", tuple(cert))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CoverData is immutable")

    def __repr__(self):
        return f"CoverData({', '.join(str(p) for p in self.pieces)})"


class SectionFamily:
    """One section per cover piece, the raw material for gluing."""

    __slots__ = ("cover", "sections")

    def __init__(self, cover: CoverData, sections: Sequence[BasicOpenSection]):
        if len(sections) != len(cover.pieces):
            raise ValueError("need exactly one section per cover piece")
        for s, p in zip(sections, cover.pieces):
            if s.base != cover.base or s.denominator != p:
                raise ValueError(
                    f"section over D({s.denominator}) does not match piece D({p})"
                )
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "sections", tuple(sections))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SectionFamily is immutable")


def incompatibility_witness(
    fam: SectionFamily
) -> Optional[Tuple[int, int, BasicOpenSection, BasicOpenSection]]:
    """The first (i, j, restricted values) where the family disagrees."""
    pieces = fam.cover.pieces
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = pieces[i] * pieces[j]
            ri = restrict(fam.sections[i], overlap)
            rj = restrict(fam.sections[j], overlap)
            if not section_equal(ri, rj):
                return (i, j, ri, rj)
    return None


def glue(fam: SectionFamily) -> AlgebraElement:
    """The unique global element restricting to the family's sections.

    Clears every section to a shared denominator exponent N, combines with
    the unit-ideal cofactors of the pieces' N-th powers, and verifies all
    restrictions; N grows (up to ``POWER_CAP``) until verification passes,
    which compatibility guarantees.
    """
    witness = incompatibility_witness(fam)
    if witness is not None:
        i, j, ri, rj = witness
        raise ValueError(
            f"family is not compatible: pieces {i} and {j} restrict to "
            f"{ri.value} vs {rj.value} on the overlap"
        )
    base = fam.cover.base
    pieces = fam.cover.pieces
    extracted = [extract_fraction(s.loc, s.value) for s in fam.sections]
    start = max((k for _, k in extracted), default=0)
    for n in range(start, POWER_CAP + 1):
        numerators = [r * p ** (n - k) for (r, k), p in zip(extracted, pieces)]
        powered = [p ** n for p in pieces]
        cert = base.unit_certificate(powered)
        if cert is None:
            raise AssertionError(
                "cover pieces' powers failed the unit-ideal test; "
                "CoverData invariant violated"
            )
        candidate = base.zero
        for e, a in zip(cert, numerators):
            candidate = candidate + e * a
        ok = all(
            s.loc.to_loc(candidate) == s.value for s in fam.sections
        )
        if ok:
            return candidate
    raise ExtractionCapError(
        f"gluing did not stabilize within denominator exponent cap {POWER_CAP}"
    )


def invertibility_support_basic(s: BasicOpenSection) -> ZarElement:
    """The largest open below D(f) on which the section is invertible.

    For s = r/f**n this is D(f*r); its defining property — restricting s
    there is invertible, and it dominates every basic open below D(f) on
    which s restricts invertibly — is what the tests check.
    """
    numerator, _ = extract_fraction(s.loc, s.value)
    return basic_open(s.base, [s.denominator * numerator])

