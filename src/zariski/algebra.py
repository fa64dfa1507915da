"""Finitely presented algebras k[x1..xn]/(p1..pm) and their morphisms.

A ``PresentedAlgebra`` eagerly computes the reduced basis of its relation
ideal; elements are stored as normal forms, so equality is plain comparison.
Ideal and radical membership in the quotient come with explicit cofactor
certificates where consumers need them.  Localizations A_f are presented as
A[y]/(f*y - 1) and carry the canonical map A -> A_f.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar
from .groebner import (
    GroebnerBasis,
    ideal_contains_one,
    unit_ideal_certificate,
)
from .polynomials import Monomial, Poly, PolyRing, _new, _poly, _set, poly_sort_key


class ExtractionCapError(RuntimeError):
    """Raised when clearing a denominator exceeds the exponent cap."""


# The one bound on every search over denominator powers: clearing s = r/f**k,
# finding g**k in (f), the exponent of a glue, and radical power certificates.
POWER_CAP = 64


def _fresh_names(stems: Sequence[str], used: Iterable[str]) -> List[str]:
    """Deterministic collision-free variants of ``stems`` against ``used``."""
    taken = set(used)
    out = []
    for stem in stems:
        candidate = stem
        counter = 2
        while candidate in taken:
            candidate = f"{stem}{counter}"
            counter += 1
        taken.add(candidate)
        out.append(candidate)
    return out


class PresentedAlgebra:
    """A quotient of a polynomial ring by finitely many relations.

    ``_memo`` remembers facts that depend on the algebra alone, for its
    lifetime and for no other algebra, equal or not: ``make_localization``
    by ``("loc", f)``, ``_member_gb`` by ``("member", gens)``,
    ``radical_member`` by ``("radical", f, gens)``, ``try_invert`` by
    ``("inv", c)``, ``enumerate_elements`` by ``"elements"``, and in
    ``funscheme`` the Frobenius matrix by ``"frobenius"``, ``is_reduced`` by
    ``"reduced"``, ``atomic_factors`` by ``"atoms"`` and Spec by ``"spec"``.
    """

    __slots__ = ("ring", "relations", "gb", "_memo", "_hash")

    def __init__(self, ring: PolyRing, relations: Sequence[Poly] = ()):
        rels = tuple(r for r in relations if not r.is_zero())
        for r in rels:
            if r.ring != ring:
                raise ValueError("relation from a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "gb", GroebnerBasis(ring, rels))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hash", hash(("PresentedAlgebra", ring, rels)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PresentedAlgebra is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PresentedAlgebra)
            and self.ring == other.ring
            and self.relations == other.relations
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.relations:
            return f"{self.ring!r}"
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ring!r}/({rels})"

    @property
    def field(self) -> Field:
        return self.ring.field

    @property
    def names(self) -> Tuple[str, ...]:
        return self.ring.names

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def with_relations(self, extra: Sequence[Poly]) -> "PresentedAlgebra":
        return PresentedAlgebra(self.ring, self.relations + tuple(extra))

    # -- elements -----------------------------------------------------------
    def normal_form(self, p: Poly) -> Poly:
        return self.gb.normal_form(p)

    def element(self, value: Union[Poly, int, "AlgebraElement"]) -> "AlgebraElement":
        if isinstance(value, AlgebraElement):
            if value.algebra is not self and value.algebra != self:
                raise ValueError("element of a different algebra")
            return value
        if isinstance(value, int):
            value = self.ring.const(self.field.of_int(value))
        if value.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return AlgebraElement(self, self.normal_form(value))

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, self.ring.zero)

    @property
    def one(self) -> "AlgebraElement":
        return self.element(self.ring.one)

    def const(self, c: Scalar) -> "AlgebraElement":
        return self.element(self.ring.const(c))

    def var(self, i: int) -> "AlgebraElement":
        return self.element(self.ring.var(i))

    def gens(self) -> Tuple["AlgebraElement", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def is_trivial(self) -> bool:
        return self.gb.contains_one()

    # -- ideal and radical membership in the quotient ------------------------
    def _member_gb(self, gens: Tuple[Poly, ...]) -> GroebnerBasis:
        gb = self._memo.get(("member", gens))
        if gb is None:
            gb = GroebnerBasis(self.ring, gens + self.relations)
            self._memo[("member", gens)] = gb
        return gb

    def unit_certificate(
        self, gens: Sequence["AlgebraElement"]
    ) -> Optional[List["AlgebraElement"]]:
        """Cofactors ``e`` with ``1 == sum(e[i]*gens[i])``, or None."""
        polys = tuple(g.poly for g in gens) + self.relations
        row = unit_ideal_certificate(polys, self.ring)
        if row is None:
            return None
        return [self.element(c) for c in row[: len(gens)]]

    def radical_member(
        self, f: "AlgebraElement", gens: Sequence["AlgebraElement"]
    ) -> bool:
        """Whether some power of ``f`` lies in the ideal the ``gens`` span."""
        if f.poly.is_zero():
            return True
        key = ("radical", f.poly, tuple(sorted((g.poly for g in gens), key=poly_sort_key)))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if f.poly.is_constant():
            # a nonzero constant is in the radical iff the ideal is all of A
            result = ideal_contains_one(key[2] + self.relations, self.ring)
            self._memo[key] = result
            return result
        wname = _fresh_names(["w"], self.ring.names)[0]
        ext = self.ring.with_vars([wname])
        w = ext.var(ext.nvars - 1)
        polys = [self.ring.lift(g, ext) for g in key[2]]
        polys.extend(self.ring.lift(r, ext) for r in self.relations)
        polys.append(ext.one - w * self.ring.lift(f.poly, ext))
        result = ideal_contains_one(polys, ext)
        self._memo[key] = result
        return result

    def try_invert(self, c: "AlgebraElement") -> Optional["AlgebraElement"]:
        """The inverse of ``c`` with certificate, or None if not a unit.

        Remembered in ``_memo`` (None for a non-unit too), so each element
        of this algebra is certified by ``unit_certificate`` once.
        """
        memo, key = self._memo, ("inv", c.poly)
        if key not in memo:
            row = self.unit_certificate([c])
            memo[key] = None if row is None else row[0]
        return memo[key]

    # -- enumeration (finite algebras over prime fields) ----------------------
    def staircase(self) -> List[Monomial]:
        """Monomials below the basis' leading terms; must be finite."""
        lms = [b.lead_monomial() for b in self.gb.basis]
        bounds = []
        for i in range(self.nvars):
            pure = [
                m[i]
                for m in lms
                if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
            ]
            if not pure:
                raise ValueError(
                    f"algebra is not finite over its field: no power of "
                    f"{self.names[i]!r} reduces"
                )
            bounds.append(min(pure))
        out = []
        for m in itertools.product(*(range(b) for b in bounds)):
            if any(all(x >= y for x, y in zip(m, lm)) for lm in lms):
                continue
            out.append(m)
        out.sort(key=self.ring.monomial_key)
        return out

    def _stairs(self) -> List[int]:
        """The packed staircase, a basis over GF(p) (empty for the zero ring);
        raises ``ValueError`` over QQ and if the algebra is not finite."""
        if not self.field.is_finite:
            raise ValueError("cannot enumerate an algebra over QQ")
        return [] if self.is_trivial() else [self.ring._pack(m) for m in self.staircase()]

    def enumerate_elements(self) -> List["AlgebraElement"]:
        """All elements, in a deterministic order, listed once (``_memo``); finite cases only."""
        if "elements" not in self._memo:
            stairs = self._stairs()
            self._memo["elements"] = tuple([
                AlgebraElement(self, _poly(self.ring, {m: c for m, c in zip(stairs, coeffs) if c}))
                for coeffs in itertools.product(self.field.elements(), repeat=len(stairs))
            ])
        return list(self._memo["elements"])


class AlgebraElement:
    """An element of a presented algebra, stored as its normal form."""

    __slots__ = ("algebra", "poly", "_hash")

    def __init__(self, algebra: PresentedAlgebra, poly: Poly):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraElement is immutable")

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, int):
            return self.algebra.const(self.algebra.field.of_int(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.element(self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.poly)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.element(self.poly - other.poly)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.element(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of an algebra element")
        result = self.algebra.one
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.algebra.const(self.algebra.field.of_int(other))
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.poly == other.poly

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.algebra, self.poly))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"<{self.poly} in {self.algebra!r}>"


class AlgebraMorphism:
    """An algebra map determined by where the source variables go."""

    __slots__ = ("source", "target", "images", "_polys", "_hash")

    def __new__(
        cls,
        source: PresentedAlgebra,
        target: PresentedAlgebra,
        images: Sequence[AlgebraElement],
    ):
        if len(images) != source.nvars:
            raise ValueError("need exactly one image per source variable")
        if source.field != target.field:
            raise ValueError("field mismatch")
        return _morphism(source, target, tuple([target.element(im) for im in images]))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraMorphism is immutable")

    @classmethod
    def identity(cls, algebra: PresentedAlgebra) -> "AlgebraMorphism":
        return cls(algebra, algebra, algebra.gens())

    def __call__(self, elt: AlgebraElement) -> AlgebraElement:
        if elt.algebra is not self.source and elt.algebra != self.source:
            raise ValueError("argument is not an element of the source")
        return self._apply(elt.poly)

    def _apply(self, p: Poly) -> AlgebraElement:
        return _evaluate(p, self.target, self.images, self._polys)

    def is_valid(self) -> bool:
        """Whether every relation of the source maps to zero."""
        return all(self._apply(r).is_zero() for r in self.source.relations)

    def check_valid(self) -> "AlgebraMorphism":
        for r in self.source.relations:
            img = self._apply(r)
            if not img.is_zero():
                raise ValueError(
                    f"not an algebra morphism: relation {r} maps to {img}"
                )
        return self

    def then(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """The composite ``self`` followed by ``other``."""
        if other.source != self.target:
            raise ValueError("morphisms do not compose")
        return _morphism(
            self.source, other.target, tuple([other._apply(im.poly) for im in self.images])
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.source, self.target, self.images))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        arrows = ", ".join(
            f"{nm} -> {im}" for nm, im in zip(self.source.names, self.images)
        )
        return f"AlgebraMorphism({arrows or 'constants only'})"


def _evaluate(p: Poly, target: PresentedAlgebra, images: Sequence, polys: Sequence) -> AlgebraElement:
    """The normalized image in ``target`` of ``p``, a polynomial of the
    source ring, where variable k goes to ``images[k]`` (``polys[k]`` its
    polynomial): a bare variable's image, a constant itself (zero in the
    trivial algebra), anything else substituted and normalized.  Morphisms
    and the hom search both evaluate here.  The validity checks pass raw
    relations: normalizing one in the source would fold it to zero."""
    if len(p._t) == 1:
        ((m, c),) = p._t.items()
        if not m and not target.is_trivial():
            return AlgebraElement(target, _poly(target.ring, {0: c}, p._d))
        units = p.ring._units
        if c == p._d == 1 and m in units:
            return images[units.index(m)]
    return target.element(p.substitute(polys, target.ring))


def _morphism(source: PresentedAlgebra, target: PresentedAlgebra, images: Tuple) -> AlgebraMorphism:
    """The ``AlgebraMorphism`` with these ``images``, normalized elements of
    ``target``, one per source variable, taken as they are."""
    f = _new(AlgebraMorphism)
    _set(f, "source", source)
    _set(f, "target", target)
    _set(f, "images", images)
    _set(f, "_polys", tuple([im.poly for im in images]))
    _set(f, "_hash", None)
    return f


def morphism(
    source: PresentedAlgebra,
    target: PresentedAlgebra,
    images: Sequence[Union[AlgebraElement, Poly, int]],
) -> AlgebraMorphism:
    """The algebra map sending the source variables to ``images``; raises
    ``ValueError`` unless every relation of the source maps to zero."""
    return AlgebraMorphism(source, target, images).check_valid()


def enumerate_homs(
    source: PresentedAlgebra, target: PresentedAlgebra
) -> List[AlgebraMorphism]:
    """All algebra maps source -> target, in the lexicographic order of their
    images over ``target.enumerate_elements()``.

    Variables are assigned in index order, and each relation is checked as
    soon as its last variable is assigned.  A relation ``c*x + d`` linear in
    its last variable x, whose coefficient c takes a unit value, fixes x to
    ``-d/c``: that one value is tried instead of every element.
    """
    if source.field != target.field:
        raise ValueError("field mismatch")
    candidates = target.enumerate_elements()
    n = source.nvars
    if not source.relations:
        return [
            _morphism(source, target, images)
            for images in itertools.product(candidates, repeat=n)
        ]
    # checks[k + 1]: the relations whose last variable is k (k = -1: constants);
    # solvers[k]: (relation, c, d) for those of the form c*x_k + d
    checks: List[List[Poly]] = [[] for _ in range(n + 1)]
    solvers: List[List[Tuple[Poly, Poly, Poly]]] = [[] for _ in range(n)]
    for r in source.relations:
        last = max((i for i in range(n) if r.involves(i)), default=-1)
        checks[last + 1].append(r)
        if last >= 0 and r.degree_in(last) == 1:
            c_terms, d_terms = {}, {}
            for m, coeff in r.terms.items():
                if m[last]:
                    c_terms[m[:last] + (0,) + m[last + 1:]] = coeff
                else:
                    d_terms[m] = coeff
            solvers[last].append(
                (r, Poly(source.ring, c_terms), Poly(source.ring, d_terms))
            )
    polys = [target.ring.zero] * n  # images so far; later variables occur in no check
    images: List[AlgebraElement] = [target.zero] * n
    out: List[AlgebraMorphism] = []

    def holds(k: int, solved: Optional[Poly]) -> bool:
        return all(
            _evaluate(r, target, images, polys).is_zero()
            for r in checks[k + 1] if r is not solved
        )

    def assign(k: int) -> None:
        if k == n:
            out.append(_morphism(source, target, tuple(images)))
            return
        options, solved = candidates, None
        for (r, c, d) in solvers[k]:
            inv = target.try_invert(_evaluate(c, target, images, polys))
            if inv is not None:
                options, solved = [-(_evaluate(d, target, images, polys) * inv)], r
                break
        for b in options:
            images[k] = b
            polys[k] = b.poly
            if holds(k, solved):
                assign(k + 1)

    if holds(-1, None):
        assign(0)
    return out


# -- localization -------------------------------------------------------------


class Localization:
    """The presentation A_f = A[y]/(f*y - 1) plus the canonical map into it.

    Its ring orders monomials by the power of ``y`` first and by the base
    ring's own order within each power, which eliminates ``y``.
    """

    __slots__ = ("base", "denominator", "algebra", "to_loc", "inv_index", "inv_name")

    def __init__(self, base: PresentedAlgebra, denominator: AlgebraElement):
        if denominator.algebra != base:
            raise ValueError("denominator is not an element of the base")
        inv_name = _fresh_names(["y"], base.ring.names)[0]
        ring = base.ring.with_vars([inv_name], base.ring.order.eliminating())
        rels = [base.ring.lift(r, ring) for r in base.relations]
        f_lift = base.ring.lift(denominator.poly, ring)
        rels.append(f_lift * ring.var(ring.nvars - 1) - ring.one)
        algebra = PresentedAlgebra(ring, rels)
        to_loc = _morphism(base, algebra, algebra.gens()[: base.nvars])
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "to_loc", to_loc)
        object.__setattr__(self, "inv_index", ring.nvars - 1)
        object.__setattr__(self, "inv_name", inv_name)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Localization is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Localization)
            and self.base == other.base
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash(("Localization", self.base, self.denominator))

    def __repr__(self):
        return f"Localization({self.base!r} at {self.denominator})"

    @property
    def inverse(self) -> AlgebraElement:
        return self.algebra.var(self.inv_index)



def make_localization(base: PresentedAlgebra, f: AlgebraElement) -> Localization:
    f = base.element(f)
    key = ("loc", f.poly)
    loc = base._memo.get(key)
    if loc is None:
        loc = Localization(base, f)
        base._memo[key] = loc
    return loc


def extract_fraction(loc: Localization, s: AlgebraElement) -> Tuple[AlgebraElement, int]:
    """Write ``s = r / f**k`` with ``r`` from the base ring; least such k.

    Multiplies by the denominator until the normal form no longer involves
    the inverse variable.  The localization's ring eliminates that variable
    (``MonomialOrder.eliminating``), so an element that comes from the base
    has a normal form free of it (the elimination theorem, Cox-Little-O'Shea
    §3.1): the loop ends at the least k with ``s * f**k`` from the base.
    Such a k exists for every ``s``; past ``POWER_CAP`` the search raises
    ``ExtractionCapError``.
    """
    if s.algebra != loc.algebra:
        raise ValueError("section does not live in this localization")
    f_img = loc.to_loc(loc.denominator)
    candidate = s
    for k in range(POWER_CAP + 1):
        if not candidate.poly.involves(loc.inv_index):
            numerator = loc.base.element(
                loc.algebra.ring.project(candidate.poly, loc.base.ring)
            )
            return numerator, k
        candidate = candidate * f_img
    raise ExtractionCapError(
        f"could not clear {loc.inv_name!r} from {s} within {POWER_CAP} powers of "
        f"{loc.denominator}"
    )


def try_extend(loc: Localization, alpha: AlgebraMorphism) -> Optional[AlgebraMorphism]:
    """Extend ``alpha : base -> C`` to ``A_f -> C`` if alpha(f) is a unit of C,
    sending 1/f to its certified inverse; None if alpha(f) is not a unit."""
    inv = alpha.target.try_invert(alpha(loc.denominator))
    if inv is None:
        return None
    return _morphism(loc.algebra, alpha.target, alpha.images + (inv,))
