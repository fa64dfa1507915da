"""Re-derive every frozen oracle value from scratch.

These tests exercise only the oracle machinery (tests/oracles.py) plus
sympy; the package under test is never imported here.  If an oracle value
drifts, this file fails before anything downstream does.
"""

import oracles as O
import pytest
import sympy


def test_point_counts_by_exhaustive_enumeration():
    assert O.affine_point_count(3, 1, []) == O.FROZEN_POINT_COUNTS[("affine_line", 3)]
    assert O.affine_point_count(2, 1, []) == O.FROZEN_POINT_COUNTS[("affine_line", 2)]
    assert O.affine_point_count(3, 2, []) == O.FROZEN_POINT_COUNTS[("affine_plane", 3)]
    assert O.unit_count(5) == O.FROZEN_POINT_COUNTS[("multiplicative_group", 5)]
    assert O.unit_count(3) == O.FROZEN_POINT_COUNTS[("multiplicative_group", 3)]
    assert O.projective_line_count(2) == O.FROZEN_POINT_COUNTS[("projective_line", 2)]
    assert O.projective_line_count(3) == O.FROZEN_POINT_COUNTS[("projective_line", 3)]
    assert O.punctured_plane_count(3) == O.FROZEN_POINT_COUNTS[("punctured_plane", 3)]
    assert O.punctured_plane_count(2) == O.FROZEN_POINT_COUNTS[("punctured_plane", 2)]
    # the unit circle over GF(5): solutions of x^2 + y^2 = 1
    assert (
        O.affine_point_count(5, 2, [lambda x, y: x * x + y * y - 1])
        == O.FROZEN_POINT_COUNTS[("circle", 5)]
    )
    # the hyperbola x*y = 1 over GF(5) has as many points as there are units
    assert O.affine_point_count(5, 2, [lambda x, y: x * y - 1]) == O.unit_count(5)


def test_product_counts_multiply_factor_counts():
    # Maps into a product of rings are pairs of maps into the factors, so
    # point counts over GF(p) x GF(p) are squares of the counts over GF(p).
    for (name, p, k), expected in O.FROZEN_PRODUCT_COUNTS.items():
        assert expected == O.FROZEN_POINT_COUNTS[(name, p)] ** k


def test_unimodular_pairs_by_exhaustive_search():
    # over GF(p) they are the nonzero pairs and, up to scaling, the lines
    for p in (2, 3):
        assert O.unimodular_pair_count(p, 1) == O.punctured_plane_count(p)
        assert O.unimodular_line_count(p, 1) == O.projective_line_count(p)
    for (name, p, k, split), expected in O.FROZEN_NILPOTENT_COUNTS.items():
        count = O.unimodular_line_count if name == "projective_line" else O.unimodular_pair_count
        assert count(p, k, split) == expected, (name, p, k, split)
        # over the local R = GF(p)[t]/(t^k) a pair is unimodular when its
        # residue pair over GF(p) is nonzero, and each coordinate has
        # p**(k-1) lifts; the (p - 1) * p**(k-1) units act freely, which
        # leaves (p + 1) * p**(k-1) lines.  The split ring is R x R, whose
        # counts are squares.
        lifts = p ** (2 * (k - 1))
        local = (p * p - 1) * lifts if name == "punctured_plane" else (p + 1) * p ** (k - 1)
        assert expected == (local**2 if split else local)


def test_ideal_lattice_sizes_by_subset_enumeration():
    for (p, k), expected in O.FROZEN_IDEAL_COUNTS.items():
        assert O.ideal_count_product_ring(p, k) == expected


def test_radical_membership_certificates_reevaluate():
    for name, f, n, cofs, gens, nvars in O.RADICAL_POSITIVE:
        assert O.check_radical_certificate(f, n, cofs, gens, nvars), name


def test_radical_membership_refutation_points():
    for name, point, f, gens, p in O.RADICAL_NEGATIVE:
        assert O.check_vanishing_refutation(point, f, gens, p), name


def test_radical_membership_cross_checked_with_sympy():
    # Rabinowitsch: f lies in the radical of (gens) iff 1 lies in the ideal
    # (gens, 1 - t*f); decided here by sympy's Groebner bases.
    x, t = sympy.symbols("x t")
    xx, yy = sympy.symbols("xx yy")

    def rad_member(f, gens, syms):
        basis = sympy.groebner(list(gens) + [1 - t * f], *syms, t, order="lex")
        return list(basis.exprs) == [sympy.Integer(1)]

    assert rad_member(x, [x**2], [x])
    assert rad_member(x, [x**2 - x, x**2 + x], [x])
    assert not rad_member(x + 1, [x**2], [x])
    assert not rad_member(yy, [xx], [xx, yy])


def test_groebner_bases_recompute_in_sympy():
    x, y = sympy.symbols("x y")
    env = {"x": x, "y": y}
    for (order, modulus, gens), expected in O.FROZEN_GROEBNER.items():
        polys = [sympy.sympify(g, locals=env) for g in gens]
        syms = [x, y] if any("y" in g for g in gens) else [x]
        kwargs = {"order": order}
        if modulus:
            kwargs["modulus"] = modulus
        basis = sympy.groebner(polys, *syms, **kwargs)
        got = tuple(str(e) for e in basis.exprs)
        assert got == expected, (order, modulus, gens)


def test_staircase_dimensions_by_monomial_enumeration():
    # dimension of k[x]/(x^n - lower order) is n: the staircase {1, ..., x^(n-1)}
    assert O.FROZEN_STAIRCASE["QQ[x]/(x^3 - x)"] == 3
    assert O.FROZEN_STAIRCASE["GF(3)[e]/(e^2 - e)"] == 2
    assert O.FROZEN_STAIRCASE["GF(5)[x]/(x^2 - 2)"] == 2
    assert O.staircase(["x"], [(3,)], sum) == [(0,), (1,), (2,)]
    # x^2, x*y and y^2 lead: 1, x and y lie below them; without y^2 no
    # power of y reduces
    assert O.staircase(["x", "y"], [(2, 0), (1, 1), (0, 2)], sum) == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(ValueError, match="no power of 'y' reduces"):
        O.staircase(["x", "y"], [(2, 0), (1, 1)], sum)
    for key, dim in O.FROZEN_STAIRCASE.items():
        if key in O.FROZEN_ALGEBRA_SIZE:
            p = int(key.split("(")[1].split(")")[0])
            assert O.FROZEN_ALGEBRA_SIZE[key] == p**dim


def test_hom_counts_by_root_enumeration():
    # a cubic has at most three roots in a field, and the scan below finds
    # three integer ones, so these are ALL the rational roots of x^3 - x
    roots = [a for a in range(-5, 6) if a**3 - a == 0]
    assert len(roots) == O.FROZEN_HOM_COUNTS[("QQ[x]/(x^3 - x)", "QQ")]
    assert O.affine_point_count(3, 1, [lambda e: e * e - e]) == O.FROZEN_HOM_COUNTS[
        ("GF(3)[e]/(e^2 - e)", "GF(3)")
    ]
    assert O.affine_point_count(5, 2, [lambda x, y: x * y - 1]) == O.FROZEN_HOM_COUNTS[
        ("GF(5)[x,y]/(x*y - 1)", "GF(5)")
    ]
    assert O.affine_point_count(
        5, 2, [lambda x, y: x * x + y * y - 1]
    ) == O.FROZEN_HOM_COUNTS[("GF(5)[x,y]/(x^2 + y^2 - 1)", "GF(5)")]
