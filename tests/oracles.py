"""Independent brute-force oracles and the frozen values they produced.

Nothing in this module imports the package under test.  Counting is done by
exhaustive enumeration over tuples of residues modulo a prime; ideal and
radical questions are settled by explicit certificates (re-evaluated here
from scratch) or by explicit counterexample points; Groebner bases are
cross-checked against sympy's implementation in test_oracles.py.

The FROZEN_* constants below were produced by these functions once and are
asserted to still match in test_oracles.py.  The rest of the suite treats
them as the expected values, so any regression in either side is caught.
"""

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# brute-force counting over prime fields
# ---------------------------------------------------------------------------


def affine_point_count(p, nvars, relations):
    """Count tuples in GF(p)^nvars where every relation evaluates to 0.

    Relations are plain callables on integer tuples, evaluated mod p.
    """
    count = 0
    for point in itertools.product(range(p), repeat=nvars):
        if all(rel(*point) % p == 0 for rel in relations):
            count += 1
    return count


def unit_count(p):
    """Count elements of GF(p) that have a multiplicative inverse."""
    count = 0
    for a in range(p):
        if any(a * b % p == 1 for b in range(p)):
            count += 1
    return count


def projective_line_count(p):
    """Count lines through the origin of GF(p)^2 by canonical representatives.

    Every nonzero pair is scaled so its first nonzero coordinate is 1; the
    number of distinct representatives is the point count of the line glued
    from two affine charts.
    """
    reps = set()
    for a, b in itertools.product(range(p), repeat=2):
        if a == 0 and b == 0:
            continue
        lead = a if a != 0 else b
        inv = next(v for v in range(p) if lead * v % p == 1)
        reps.add((a * inv % p, b * inv % p))
    return len(reps)


def punctured_plane_count(p):
    """Count GF(p)^2 minus the origin by direct enumeration."""
    return sum(
        1
        for pair in itertools.product(range(p), repeat=2)
        if pair != (0, 0)
    )


# ---------------------------------------------------------------------------
# unimodular pairs over small rings with nilpotents, by exhaustive search
# ---------------------------------------------------------------------------


def _nilpotent_ring(p, k, split):
    """The elements, product and one of R = GF(p)[t]/(t^k), or with ``split``
    of GF(p)[t,u]/(t^k, u^2 - u): coefficient tuples over the monomials
    t^i u^j, multiplied term by term with t^k = 0 and u^2 = u."""
    basis = [(i, j) for j in range(1 + split) for i in range(k)]
    where = {m: n for n, m in enumerate(basis)}

    def mul(a, b):
        out = [0] * len(basis)
        for (i1, j1), c1 in zip(basis, a):
            for (i2, j2), c2 in zip(basis, b):
                if c1 and c2 and i1 + i2 < k:
                    n = where[(i1 + i2, min(j1 + j2, 1))]
                    out[n] = (out[n] + c1 * c2) % p
        return tuple(out)

    one = tuple(int(m == (0, 0)) for m in basis)
    return list(itertools.product(range(p), repeat=len(basis))), mul, one


def _unimodular_pairs(p, k, split):
    """The pairs (a, b) of R (see ``_nilpotent_ring``) with aR + bR = R,
    each found by a c with 1 - a*c in bR, and the units of R."""
    ring, mul, one = _nilpotent_ring(p, k, split)
    multiples = {b: {mul(b, c) for c in ring} for b in ring}
    rest = {v: tuple((x - y) % p for x, y in zip(one, v)) for v in ring}
    pairs = [
        (a, b)
        for a in ring
        for b in ring
        if any(rest[v] in multiples[b] for v in multiples[a])
    ]
    units = [a for a in ring if one in multiples[a]]
    return pairs, units, mul


def unimodular_pair_count(p, k, split=False):
    """Count the points of the punctured plane over R: pairs generating R."""
    return len(_unimodular_pairs(p, k, split)[0])


def unimodular_line_count(p, k, split=False):
    """Count the points of the projective line over R: unimodular pairs up
    to scaling by a unit, one orbit per point (R is a finite product of
    local rings, so every line bundle on Spec R is trivial)."""
    pairs, units, mul = _unimodular_pairs(p, k, split)
    return len({frozenset((mul(u, a), mul(u, b)) for u in units) for a, b in pairs})


# ---------------------------------------------------------------------------
# ideal lattices of split semisimple rings, by subset enumeration
# ---------------------------------------------------------------------------


def ideal_count_product_ring(p, k):
    """Count ideals of GF(p) x ... x GF(p) (k factors) by brute force.

    Enumerates every subset of the ring containing 0 and checks closure
    under addition and under multiplication by arbitrary ring elements.
    Exponential in p**k, fine at desk scale.  In this ring every ideal is
    radical, so this is also the size of the lattice of radical ideals.
    """
    ring = list(itertools.product(range(p), repeat=k))
    zero = tuple([0] * k)

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def mul(u, v):
        return tuple((a * b) % p for a, b in zip(u, v))

    count = 0
    nonzero = [r for r in ring if r != zero]
    for size in range(len(nonzero) + 1):
        for rest in itertools.combinations(nonzero, size):
            subset = frozenset((zero,) + rest)
            if all(add(u, v) in subset for u in subset for v in subset) and all(
                mul(r, u) in subset for r in ring for u in subset
            ):
                count += 1
    return count


# ---------------------------------------------------------------------------
# radical membership by certificate / counterexample
# ---------------------------------------------------------------------------

# Positive instances carry an explicit identity  f**n = sum(c_i * g_i)
# which check_radical_certificate re-evaluates with its own tiny polynomial
# arithmetic (dict-of-exponent-tuples over exact rationals).  Negative
# instances carry a point where every generator vanishes but f does not.


def _poly_of(expr_terms, nvars):
    """terms: {exponent tuple: coefficient} -> normalized dict."""
    return {m: c for m, c in expr_terms.items() if c != 0 and len(m) == nvars}


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _poly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def _poly_pow(a, n, nvars):
    out = {tuple([0] * nvars): 1}
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def check_radical_certificate(f, n, cofactors, gens, nvars):
    """Re-evaluate f**n == sum(c_i * g_i) with independent arithmetic."""
    lhs = _poly_pow(_poly_of(f, nvars), n, nvars)
    rhs = {}
    for c, g in zip(cofactors, gens):
        rhs = _poly_add(rhs, _poly_mul(_poly_of(c, nvars), _poly_of(g, nvars)))
    return lhs == rhs


def check_vanishing_refutation(point, f, gens, p):
    """True when every generator vanishes at the point but f does not (mod p,
    or exactly when p == 0); such a point refutes radical membership."""

    def ev(poly_terms):
        total = 0
        for mono, coeff in poly_terms.items():
            term = coeff
            for x, e in zip(point, mono):
                term *= x**e
            total += term
        return total % p if p else total

    return all(ev(g) == 0 for g in gens) and ev(f) != 0


# polynomial dictionaries used by the frozen radical instances ---------------
# one variable x: exponent tuples (e,)
X = {(1,): 1}
X2 = {(2,): 1}
X2_MINUS_X = {(2,): 1, (1,): -1}
X2_PLUS_X = {(2,): 1, (1,): 1}
ONE_1 = {(0,): 1}

RADICAL_POSITIVE = [
    # f in rad(gens): (name, f, n, cofactors, gens, nvars)
    ("square root of its own square", X, 2, [ONE_1], [X2], 1),
    (
        "difference of overlapping products",
        X,
        1,
        [{(0,): Fraction(-1, 2)}, {(0,): Fraction(1, 2)}],
        [X2_MINUS_X, X2_PLUS_X],
        1,
    ),
    (
        "unit ideal from a partition",
        ONE_1,
        1,
        [ONE_1, {(0,): -1}],
        [X, {(1,): 1, (0,): -1}],  # x and x - 1
        1,
    ),
]

RADICAL_NEGATIVE = [
    # (name, witness point, f, gens, characteristic)
    ("shifted element misses the nilpotent ideal", (0,), {(1,): 1, (0,): 1}, [X2], 0),
    ("independent variable misses a principal ideal", (0, 1), {(0, 1): 1}, [{(1, 0): 1}], 0),
    ("idempotent coordinate is not nilpotent on its support", (1,), X, [X2_MINUS_X], 3),
]


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

FROZEN_POINT_COUNTS = {
    ("affine_line", 3): 3,
    ("affine_line", 2): 2,
    ("affine_plane", 3): 9,
    ("multiplicative_group", 5): 4,
    ("multiplicative_group", 3): 2,
    ("projective_line", 2): 3,
    ("projective_line", 3): 4,
    ("punctured_plane", 3): 8,
    ("punctured_plane", 2): 3,
    ("circle", 5): 4,  # x^2 + y^2 = 1 over GF(5)
}

# points over a product of fields multiply: X(B1 x B2) = X(B1) x X(B2)
FROZEN_PRODUCT_COUNTS = {
    ("affine_line", 3, 2): 9,
    ("projective_line", 2, 2): 9,
    ("projective_line", 3, 2): 16,
    ("punctured_plane", 3, 2): 64,
    ("multiplicative_group", 5, 2): 16,
}

# points over GF(p)[t]/(t^k) and, split True, over GF(2)[t,u]/(t^2, u^2 + u)
FROZEN_NILPOTENT_COUNTS = {
    ("projective_line", 2, 2, False): 6,
    ("projective_line", 2, 3, False): 12,
    ("projective_line", 3, 2, False): 12,
    ("projective_line", 3, 3, False): 36,
    ("projective_line", 2, 2, True): 36,
    ("punctured_plane", 2, 2, False): 12,
    ("punctured_plane", 2, 3, False): 48,
    ("punctured_plane", 3, 2, False): 72,
    ("punctured_plane", 3, 3, False): 648,
    ("punctured_plane", 2, 2, True): 144,
}

# number of radical ideals (= compact opens) of GF(p)^k
FROZEN_IDEAL_COUNTS = {(3, 1): 2, (5, 1): 2, (3, 2): 4, (2, 2): 4}

# reduced Groebner bases, frozen from sympy's independent implementation;
# stored as sympy expression strings, parsed into exact polynomials by the
# consuming tests
FROZEN_GROEBNER = {
    ("lex", 0, ("x**2 - 1", "x*y - 1")): ("x - y", "y**2 - 1"),
    ("grevlex", 0, ("x**2 - 1", "x*y - 1")): ("y**2 - 1", "x - y"),
    ("grevlex", 0, ("x**2 + y**2 - 1", "x*y",)): (
        "y**3 - y",
        "x**2 + y**2 - 1",
        "x*y",
    ),
    ("grevlex", 5, ("x**2 + y**2 - 1", "x*y - 1")): (
        "x + y**3 - y",
        "x**2 + y**2 - 1",
        "x*y - 1",
    ),
    ("lex", 0, ("x**3 - x",)): ("x**3 - x",),
}

def frobenius_by_powers(B):
    """The matrix of b -> b**p on the staircase basis of a finite algebra
    ``B`` over GF(p), built from the p-th powers of its basis elements in
    ``B``'s own arithmetic (normal forms of products): column j holds the
    coordinates of (basis j)**p.  The oracle for
    ``funscheme._frobenius_matrix``; ``B`` is read through its methods."""
    stairs, p = B._stairs(), B.field.char
    monos = [B.ring._mono(m) for m in stairs]
    rows = [[0] * len(stairs) for _ in stairs]
    for j, m in enumerate(monos):
        power = B.element(B.ring.from_terms({m: 1})) ** p
        for mono, c in power.poly.terms.items():
            rows[monos.index(mono)][j] = c
    return stairs, rows


def staircase(names, leads, key):
    """The exponent tuples that no tuple of ``leads`` divides, sorted by
    ``key``: the monomial basis of a finite quotient whose Groebner basis
    leads with ``leads``, in the variables ``names``.  Every tuple of the
    box below the least pure power of each variable is tested.  Raises
    ``ValueError`` when some variable has no pure power among the leads."""
    bounds = []
    for i, name in enumerate(names):
        pure = [
            m[i]
            for m in leads
            if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
        ]
        if not pure:
            raise ValueError(
                f"algebra is not finite over its field: no power of {name!r} reduces"
            )
        bounds.append(min(pure))
    out = []
    for m in itertools.product(*(range(b) for b in bounds)):
        if not any(all(x >= y for x, y in zip(m, lm)) for lm in leads):
            out.append(m)
    return sorted(out, key=key)


# dimensions / sizes of finite presented algebras (monomial staircases)
FROZEN_STAIRCASE = {
    "QQ[x]/(x^3 - x)": 3,
    "GF(3)[e]/(e^2 - e)": 2,
    "GF(5)[x]/(x^2 - 2)": 2,
}
FROZEN_ALGEBRA_SIZE = {
    "GF(3)[e]/(e^2 - e)": 9,
    "GF(5)[x]/(x^2 - 2)": 25,
}

# counts of algebra maps into a field, i.e. solutions of the relations
FROZEN_HOM_COUNTS = {
    ("QQ[x]/(x^3 - x)", "QQ"): 3,  # rational roots of x^3 - x
    ("GF(3)[e]/(e^2 - e)", "GF(3)"): 2,
    ("GF(5)[x,y]/(x*y - 1)", "GF(5)"): 4,
    ("GF(5)[x,y]/(x^2 + y^2 - 1)", "GF(5)"): 4,
}
