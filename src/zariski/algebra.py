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

from .fields import Field, Scalar, _Value
from .groebner import (
    _RelationBasis,
    ideal_contains_one,
    unit_ideal_certificate,
)
from .polynomials import _VALUE, MonomialOrder, Poly, PolyRing, _new, _poly, _set


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


class PresentedAlgebra(_Value):
    """A quotient of a polynomial ring by finitely many relations.

    ``_memo``, written only by ``_remember``, keeps facts that depend on the algebra alone, for its lifetime
    and for no other algebra, equal or not: ``make_localization`` by ``("loc", f)``, ``radical_member`` by
    ``("radical", f, frozenset(gens))``, its ring and lifted relations (``_rabinowitsch``) by
    ``"rabinowitsch"``, ``try_invert`` by ``("inv", c)``, ``enumerate_elements`` by ``"elements"``, and in
    ``funscheme`` the Frobenius matrix by ``"frobenius"``, the regular representation by ``"regular"``, the
    nilradical by ``"nilradical"``, ``is_reduced`` by ``"reduced"``, ``atomic_factors`` by ``"atoms"`` and
    Spec by ``"spec"``.
    """

    __slots__ = ("ring", "relations", "gb", "_memo")

    def __init__(self, ring: PolyRing, relations: Sequence[Poly] = ()):
        rels = tuple(r for r in relations if not r.is_zero())
        for r in rels:
            if r.ring != ring:
                raise ValueError("relation from a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "gb", _RelationBasis(ring, rels))
        object.__setattr__(self, "_memo", {})

    def _key(self):
        return (self.ring, self.relations)

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
            value = self.ring.const(value)
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
        polys = tuple([g.poly for g in gens])
        return self._remember(("radical", f.poly, frozenset(polys)), self._radical_member, f.poly, polys)

    def _radical_member(self, f: Poly, gens: Tuple[Poly, ...]) -> bool:
        """Rabinowitsch's test, 1 in (gens, 1 - w*f) (Cox-Little-O'Shea
        §4.2), in the ring of ``_rabinowitsch``; a nonzero constant f is in
        the radical iff the gens alone span all of A."""
        ext, rels = self._remember("rabinowitsch", self._rabinowitsch)
        polys = [self.ring.lift(g, ext) for g in gens]
        polys.extend(rels)
        if not f.is_constant():
            polys.append(ext.one - ext.var(ext.nvars - 1) * self.ring.lift(f, ext))
        return ideal_contains_one(polys, ext)

    def _rabinowitsch(self) -> Tuple[PolyRing, Tuple[Poly, ...]]:
        """The ring plus a fresh last variable w in an elimination block
        over grevlex, whatever the algebra's order, and the relations lifted
        there.  For a grevlex algebra the block packs the old variables as
        the ring does, so ``lift`` carries its terms over as they are."""
        ext = self.ring.with_vars(_fresh_names(["w"], self.ring.names), MonomialOrder().eliminating())
        return ext, tuple([self.ring.lift(r, ext) for r in self.relations])

    def try_invert(self, c: "AlgebraElement") -> Optional["AlgebraElement"]:
        """The inverse of ``c`` with certificate, or None if not a unit.

        Remembered in ``_memo`` (None for a non-unit too), so each element
        of this algebra is certified by ``unit_certificate`` once.
        """
        return self._remember(("inv", c.poly), self._inverse, c)

    def _inverse(self, c: "AlgebraElement") -> Optional["AlgebraElement"]:
        row = self.unit_certificate([c])
        return None if row is None else row[0]

    # -- enumeration (finite algebras over prime fields) ----------------------
    def _stairs(self) -> List[int]:
        """The packed staircase, a basis over GF(p) (empty for the zero ring);
        raises ``ValueError`` over QQ and if the algebra is not finite."""
        if not self.field.is_finite:
            raise ValueError("cannot enumerate an algebra over QQ")
        return [] if self.is_trivial() else self.ring._staircase(self.gb._leads)

    def enumerate_elements(self) -> List["AlgebraElement"]:
        """All elements, in a deterministic order, listed once (``_memo``); finite cases only."""
        return list(self._remember("elements", self._elements))

    def _elements(self) -> Tuple["AlgebraElement", ...]:
        stairs = self._stairs()
        return tuple([
            AlgebraElement(self, _poly(self.ring, {m: c for m, c in zip(stairs, coeffs) if c}))
            for coeffs in itertools.product(self.field.elements(), repeat=len(stairs))
        ])


class AlgebraElement(_Value):
    """An element of a presented algebra, stored as its normal form."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: PresentedAlgebra, poly: Poly):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "poly", poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, int):
            return self.algebra.const(other)
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
            other = self.algebra.const(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.poly == other.poly

    __hash__ = _Value.__hash__

    def _key(self):
        return (self.algebra, self.poly)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"<{self.poly} in {self.algebra!r}>"


class AlgebraMorphism(_Value):
    """An algebra map determined by where the source variables go."""

    __slots__ = ("source", "target", "images", "_polys")

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

    def _key(self):
        return (self.source, self.target, self.images)

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
    soon as its last variable is assigned.  The relations whose last
    variable is x, classified once per call, narrow x's candidates first:

    - ``c*x + d`` whose coefficient c takes a unit value fixes x to
      ``-d/c``, c's inverse certified by ``try_invert``, once per value of (c, d);
    - a separated ``h(x) + s``, s free of x, keeps the x with h(x) = -s:
      h is evaluated once per call on every element, keyed by its normal
      form (a hash join), so each prefix costs a lookup, not |B| checks;
    - ``c*x + d`` whose coefficient is no unit keeps the solutions of
      ``c*x = -d``, solved over GF(p) on the staircase basis once per
      value of (c, d) (``_solutions``); no solution ends the branch.

    Each narrowing is remembered per value of the variables of its c, d and
    s, and every candidate is checked against the relations that did not solve it.
    """
    if source.field != target.field:
        raise ValueError("field mismatch")
    if not source.relations:
        return [_morphism(source, target, images)
                for images in itertools.product(target.enumerate_elements(), repeat=source.nvars)]
    return _homs(source, target, (), None)


def _homs(source: PresentedAlgebra, target: PresentedAlgebra, nonunits: Sequence[Poly], is_unit):
    """``enumerate_homs`` less the maps that send some f of ``nonunits``
    (source polynomials) to a unit (``is_unit``), none of them built: each
    f is checked at its last variable, and a bare variable f narrows its
    variable to target's non-units, listed once per call."""
    candidates = target.enumerate_elements()
    n = source.nvars
    ring = source.ring
    # checks[k + 1]: the relations whose last variable is k (k = -1: constants),
    # conds[k + 1]: the nonunits so, bar the bare variables (``bare``);
    # reads[k]: the variables in the c, d and s that narrow x_k;
    # solvers[k]: (relation, c, d) for those of the form c*x_k + d;
    # joins[k]: (relation, h, s) for the first of the form h(x_k) + s
    checks: List[List[Poly]] = [[] for _ in range(n + 1)]
    conds: List[List[Poly]] = [[] for _ in range(n + 1)]
    solvers: List[List[Tuple[Poly, Poly, Poly]]] = [[] for _ in range(n)]
    joins: List[Optional[Tuple[Poly, Poly, Poly]]] = [None] * n
    bare = {k for k in range(n) if ring.var(k) in nonunits}
    for f in [f for f in nonunits if f not in ring.gens()]:
        conds[max((i for i in range(n) if f.involves(i)), default=-1) + 1].append(f)
    for r in source.relations:
        last = max((i for i in range(n) if r.involves(i)), default=-1)
        checks[last + 1].append(r)
        if last < 0:
            continue
        shift, unit = ring._shifts[last], ring._units[last]
        inner = {m: c for m, c in r._t.items() if m >> shift & _VALUE}
        outer = _poly(ring, {m: c for m, c in r._t.items() if m not in inner})
        if r.degree_in(last) == 1:
            solvers[last].append((r, _poly(ring, {m - unit: c for m, c in inner.items()}), outer))
        elif joins[last] is None and all(m == (m >> shift & _VALUE) * unit for m in inner):
            joins[last] = (r, _poly(ring, inner), outer)
    reads = [[i for i in range(k) if any(f.involves(i) for (_, *cd) in solvers[k] for f in cd)
              or joins[k] is not None and joins[k][2].involves(i)] for k in range(n)]
    nonunit_values = {b.poly for b in candidates if not is_unit(b)} if bare else set()
    polys = [target.ring.zero] * n  # images so far; later variables occur in no check
    images: List[AlgebraElement] = [target.zero] * n
    tables: dict = {}  # k -> x_k's candidates keyed by h's value on them
    linear: dict = {}  # (c, d) -> the x with c*x + d == 0
    narrowed: dict = {}  # (k, values of reads[k]) -> narrow(k), unless each prefix differs there
    out: List[AlgebraMorphism] = []

    def value(p: Poly) -> AlgebraElement:
        return _evaluate(p, target, images, polys)

    def holds(k: int, solved: Optional[Poly]) -> bool:
        return all(value(r).is_zero() for r in checks[k + 1] if r is not solved) and not (
            conds[k + 1] and any(is_unit(value(f)) for f in conds[k + 1]))

    def narrow(k: int) -> Tuple[Sequence[AlgebraElement], Optional[Poly]]:
        vcs = [value(c) for (_, c, _) in solvers[k]]  # each coefficient evaluated once
        for (r, c, d), vc in zip(solvers[k], vcs):
            inv = target.try_invert(vc)
            if inv is not None:
                vd = value(d)
                if (vc.poly, vd.poly) not in linear:
                    linear[vc.poly, vd.poly] = [-(vd * inv)]
                return linear[vc.poly, vd.poly], r
        if joins[k] is not None:
            r, h, s = joins[k]
            if k not in tables:
                tables[k] = {}
                for b in candidates:
                    images[k], polys[k] = b, b.poly
                    tables[k].setdefault(value(h).poly, []).append(b)
            return tables[k].get((-value(s)).poly, ()), r  # h(x) = -s solves r
        if solvers[k]:
            c, d = vcs[0].poly, value(solvers[k][0][2]).poly
            if (c, d) not in linear:
                linear[c, d] = _solutions(target, candidates, c, d)
            return linear[c, d], None
        return candidates, None

    def assign(k: int) -> None:
        if k == n:
            out.append(_morphism(source, target, tuple(images)))
            return
        key = (k, *[polys[i] for i in reads[k]]) if len(reads[k]) < k else None
        got = narrowed.get(key)
        if got is None:
            options, solved = narrow(k)
            got = [b for b in options if b.poly in nonunit_values] if k in bare else options, solved
            if key:
                narrowed[key] = got
        options, solved = got
        for b in options:
            images[k] = b
            polys[k] = b.poly
            if holds(k, solved):
                assign(k + 1)

    if holds(-1, None):
        assign(0)
    assign = None  # break its closure's cycle: the search's tables go on return, not at a collection
    return out


def _solutions(
    target: PresentedAlgebra, candidates: Sequence[AlgebraElement], c: Poly, d: Poly
) -> List[AlgebraElement]:
    """The x of ``candidates`` (``target.enumerate_elements()``, in its
    order) with ``c*x + d == 0``, for normal forms c and d of a nontrivial
    target.  On the staircase basis e_1..e_N, the kernel over GF(p) of the
    matrix [c*e_1 .. c*e_N | d] (``_kernel_mod_p``) spans the solutions of
    c*x = 0, plus, when c*x = -d is solvable, one vector ending in 1: the
    last, as the last column is then the last free one."""
    stairs, p, ring = target._stairs(), target.field.char, target.ring
    N = len(stairs)
    cols = [target.normal_form(c * _poly(ring, {m: 1})) for m in stairs]
    kernel = _kernel_mod_p(_coordinates(stairs, [f._t for f in cols + [d]]), p)
    if not kernel or not kernel[-1][N]:
        return []
    xs = [kernel[-1][:N]]
    for v in kernel[:-1]:
        xs = [[(a + t * b) % p for a, b in zip(x, v)] for x in xs for t in range(p)]
    # candidates list the coordinate vectors in lexicographic order
    weights = [p ** (N - 1 - i) for i in range(N)]
    return [candidates[i] for i in sorted(sum(map(int.__mul__, x, weights)) for x in xs)]


def _coordinates(stairs: Sequence[int], columns: Sequence[dict]) -> List[List[int]]:
    """The matrix over GF(p) whose column j holds the coordinates on the
    packed staircase ``stairs`` of a normal form with terms ``columns[j]``."""
    row_of = {m: i for i, m in enumerate(stairs)}
    rows = [[0] * len(columns) for _ in stairs]
    for j, terms in enumerate(columns):
        for m, c in terms.items():
            rows[row_of[m]][j] = c
    return rows


def _kernel_mod_p(rows: List[List[int]], p: int) -> List[List[int]]:
    """A basis of {x : rows * x = 0} over GF(p), one vector per non-pivot
    column, by reducing a copy of ``rows``, which each step replaces by rows."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        for pivot in range(r, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        inv = pow(rows[pivot][col], -1, p)
        top_row = [a * inv % p for a in rows[pivot]]
        rows[pivot] = rows[r]
        rows[r] = top_row
        for i, row in enumerate(rows):
            factor = row[col]
            if factor and i != r:
                rows[i] = [(a - factor * b) % p for a, b in zip(row, top_row)]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = -rows[r][free] % p
        basis.append(x)
    return basis


# -- localization -------------------------------------------------------------


class Localization(_Value):
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

    def _key(self):
        return (self.base, self.denominator)

    def __repr__(self):
        return f"Localization({self.base!r} at {self.denominator})"

    @property
    def inverse(self) -> AlgebraElement:
        return self.algebra.var(self.inv_index)



def make_localization(base: PresentedAlgebra, f: AlgebraElement) -> Localization:
    f = base.element(f)
    return base._remember(("loc", f.poly), Localization, base, f)


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
            return loc.base.element(loc.algebra.ring.lift(candidate.poly, loc.base.ring)), k
        candidate = candidate * f_img
    raise ExtractionCapError(
        f"could not clear {loc.inv_name!r} from {s} within {POWER_CAP} powers of "
        f"{loc.denominator}"
    )


def _support(loc: Localization, s: AlgebraElement) -> AlgebraElement:
    """f*r for ``s = r / f**k``: D(f*r) is where s is invertible below D(f)."""
    return loc.denominator * extract_fraction(loc, s)[0]


def try_extend(loc: Localization, alpha: AlgebraMorphism) -> Optional[AlgebraMorphism]:
    """Extend ``alpha : base -> C`` to ``A_f -> C`` if alpha(f) is a unit of C,
    sending 1/f to its certified inverse; None if alpha(f) is not a unit."""
    inv = alpha.target.try_invert(alpha(loc.denominator))
    if inv is None:
        return None
    return _morphism(loc.algebra, alpha.target, alpha.images + (inv,))
