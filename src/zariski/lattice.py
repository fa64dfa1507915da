"""The lattice of basic opens of a presented algebra, with decidable order.

Elements are finite generator lists ``D(f1, ..., fn)``; two lists denote the
same lattice element exactly when each generator of one lies in the radical
of the ideal spanned by the other, which radical membership decides.  Joins
concatenate, meets take pairwise products, and the order test ``leq`` is
the per-generator radical-membership criterion.  The lattice of a
localization A_f is isomorphic to the part of A's lattice below D(f);
``open_from_localization`` and ``open_to_localization`` realize the two
directions concretely via numerator extraction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    Localization,
    PresentedAlgebra,
    extract_fraction,
)
from .polynomials import poly_sort_key


class ZarElement:
    """A basic-open class ``D(f1, ..., fn)`` with a canonical generator list.

    The stored list is canonical as a *list* (zeros dropped, duplicate
    normal forms removed, sorted); semantic equality of lattice elements is
    ``eq``, which is weaker than list equality.
    """

    __slots__ = ("owner", "generators", "_hash")

    def __init__(self, owner: PresentedAlgebra, generators: Tuple[AlgebraElement, ...]):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ZarElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, ZarElement):
            return NotImplemented
        return self.owner == other.owner and self.generators == other.generators

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.owner, self.generators))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return f"D({', '.join(str(g) for g in self.generators)})"

    def __repr__(self):
        return f"<{self} over {self.owner!r}>"


def basic_open(
    owner: PresentedAlgebra, elems: Sequence[AlgebraElement]
) -> ZarElement:
    """The basic open ``D(f1, ..., fn)``, canonicalized."""
    seen = set()
    gens: List[AlgebraElement] = []
    for e in elems:
        e = owner.element(e)
        if e.is_zero() or e in seen:
            continue
        seen.add(e)
        gens.append(e)
    gens.sort(key=lambda e: poly_sort_key(e.poly))
    return ZarElement(owner, tuple(gens))


def top(owner: PresentedAlgebra) -> ZarElement:
    return basic_open(owner, [owner.one])


def bottom(owner: PresentedAlgebra) -> ZarElement:
    return basic_open(owner, [])


def _same_owner(u: ZarElement, v: ZarElement):
    if u.owner != v.owner:
        raise ValueError("lattice elements over different algebras")


def leq(u: ZarElement, v: ZarElement) -> bool:
    """Order test: every generator of u is in the radical of v's ideal."""
    _same_owner(u, v)
    vset = set(v.generators)
    for f in u.generators:
        if f in vset:
            continue
        if not u.owner.radical_member(f, v.generators):
            return False
    return True


def eq(u: ZarElement, v: ZarElement) -> bool:
    return leq(u, v) and leq(v, u)


def join(u: ZarElement, v: ZarElement) -> ZarElement:
    _same_owner(u, v)
    return basic_open(u.owner, u.generators + v.generators)


def meet(u: ZarElement, v: ZarElement) -> ZarElement:
    _same_owner(u, v)
    return basic_open(
        u.owner, [f * g for f in u.generators for g in v.generators]
    )


def join_all(owner: PresentedAlgebra, elems: Sequence[ZarElement]) -> ZarElement:
    gens: List[AlgebraElement] = []
    for e in elems:
        if e.owner != owner:
            raise ValueError("lattice elements over different algebras")
        gens.extend(e.generators)
    return basic_open(owner, gens)


# -- the localization isomorphism ------------------------------------------------


def open_from_localization(loc: Localization, u: ZarElement) -> ZarElement:
    """Carry an open of A_f down to A: D(r/f^n) lands on D(r*f).

    The image always lies below D(f); this is one direction of the
    isomorphism between the lattice of A_f and the part of A's lattice
    below D(f).
    """
    if u.owner != loc.algebra:
        raise ValueError("element does not live over the localization")
    gens = []
    for s in u.generators:
        numerator, _ = extract_fraction(loc, s)
        gens.append(numerator * loc.denominator)
    return basic_open(loc.base, gens)


def open_to_localization(loc: Localization, u: ZarElement) -> ZarElement:
    """Carry an open of A below D(f) up to A_f (the inverse direction)."""
    if u.owner != loc.base:
        raise ValueError("element does not live over the base")
    if not leq(u, basic_open(loc.base, [loc.denominator])):
        raise ValueError(
            f"{u} is not below D({loc.denominator}); it has no preimage"
        )
    return basic_open(loc.algebra, [loc.to_loc(g) for g in u.generators])
