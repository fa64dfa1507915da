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

from typing import Callable, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
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


def induced_hom(phi: AlgebraMorphism, u: ZarElement) -> ZarElement:
    """Push a basic open forward along an algebra morphism, generatorwise."""
    if u.owner != phi.source:
        raise ValueError("element does not live over the morphism's source")
    return basic_open(phi.target, [phi(f) for f in u.generators])


# -- supports ------------------------------------------------------------------


class LatticeCarrier:
    """The operations a caller-supplied target lattice must provide."""

    __slots__ = ("join", "meet", "top", "bottom", "eq")

    def __init__(self, join, meet, top, bottom, eq):
        object.__setattr__(self, "join", join)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "eq", eq)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LatticeCarrier is immutable")

    def leq(self, a, b) -> bool:
        return self.eq(self.join(a, b), b)


class SupportMap:
    """A map from ring elements to a lattice, expected to satisfy:
    d(0) = bottom, d(1) = top, d(xy) = d(x) ∧ d(y), d(x+y) ≤ d(x) ∨ d(y).

    The laws are the caller's responsibility; ``check_support_laws`` samples
    them.  ``extend_support`` is the unique lattice extension to basic
    opens, correct whenever the laws hold.
    """

    __slots__ = ("source", "value", "carrier")

    def __init__(
        self,
        source: PresentedAlgebra,
        value: Callable[[AlgebraElement], object],
        carrier: LatticeCarrier,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "carrier", carrier)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SupportMap is immutable")


def zar_carrier(owner: PresentedAlgebra) -> LatticeCarrier:
    return LatticeCarrier(join, meet, top(owner), bottom(owner), eq)


def canonical_support(owner: PresentedAlgebra) -> SupportMap:
    """The universal support: f maps to its own basic open D(f)."""
    return SupportMap(
        owner, lambda f: basic_open(owner, [f]), zar_carrier(owner)
    )


def check_support_laws(
    d: SupportMap, pairs: Sequence[Tuple[AlgebraElement, AlgebraElement]]
) -> Optional[str]:
    """None if all four laws hold on the samples, else a witness string."""
    car = d.carrier
    if not car.eq(d.value(d.source.zero), car.bottom):
        return "d(0) != bottom"
    if not car.eq(d.value(d.source.one), car.top):
        return "d(1) != top"
    for x, y in pairs:
        if not car.eq(d.value(x * y), car.meet(d.value(x), d.value(y))):
            return f"d(({x})*({y})) != d({x}) meet d({y})"
        if not car.leq(d.value(x + y), car.join(d.value(x), d.value(y))):
            return f"d(({x})+({y})) not below d({x}) join d({y})"
    return None


def extend_support(d: SupportMap, u: ZarElement):
    """The join of d over u's generators (the unique lattice extension)."""
    if u.owner != d.source:
        raise ValueError("element does not live over the support's source")
    result = d.carrier.bottom
    for f in u.generators:
        result = d.carrier.join(result, d.value(f))
    return result


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
