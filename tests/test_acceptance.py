"""Acceptance gate: one test per headline guarantee of the package.

Each test is self-contained, seeded, and exact — every comparison is a
decidable equality over QQ or GF(p).  Expected counts come from the frozen
brute-force oracle values in oracles.py, which test_oracles.py re-derives
independently.  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

import ast
import collections
import importlib
import io
import pathlib
import random
import re
import time
import tokenize
from operator import add, mul

from click.testing import CliRunner

import oracles as O
from paper import chart_element, chart_section, pointwise, support_law_witness
from support import (
    affine_line,
    gf5_circle,
    gf5_hyperbola,
    multiplicative_group,
    product_of_points,
    qq_triple_point,
    qq_x,
    qq_xy,
    random_element,
    random_nonzero_element,
    random_open,
    spec_morphism,
)
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    make_localization,
    morphism,
)
from zariski.cli import main as cli_main
from zariski.compare import comparison_check
from zariski.fields import GF, QQ
from zariski.funscheme import eval_points, functorial
from zariski.lattice import (
    basic_open,
    bottom,
    eq,
    join,
    leq,
    meet,
    open_from_localization,
    open_to_localization,
    top,
)
from zariski.latscheme import (
    SchemeMorphism,
    local_morphism_witness,
    mk_affine,
    projective_line,
    punctured_plane,
    top_open,
)
from zariski.polynomials import PolyRing
from zariski.sheaf import (
    BasicOpenSection,
    CoverData,
    SectionFamily,
    global_section,
    glue,
    incompatibility_witness,
    invertibility_support_basic,
    restrict,
    section_equal,
)


def test_c01_lattice_laws_and_support_laws_hold_on_200_random_cases():
    """Bounded-distributive-lattice axioms and the four support laws.

    200 randomized cases over QQ[x, y]; every element has at most three
    generators of degree at most two; every identity is checked under the
    lattice's own decidable equality.
    """
    t0 = time.monotonic()
    rng = random.Random(2026_08_01)
    A = qq_xy()
    bot, tp = bottom(A), top(A)
    for _ in range(200):
        u = random_open(rng, A, max_gens=3, max_degree=2)
        v = random_open(rng, A, max_gens=3, max_degree=2)
        w = random_open(rng, A, max_gens=3, max_degree=2)
        # commutativity
        assert eq(join(u, v), join(v, u))
        assert eq(meet(u, v), meet(v, u))
        # associativity
        assert eq(join(join(u, v), w), join(u, join(v, w)))
        assert eq(meet(meet(u, v), w), meet(u, meet(v, w)))
        # absorption and idempotence
        assert eq(join(u, meet(u, v)), u)
        assert eq(meet(u, join(u, v)), u)
        assert eq(join(u, u), u)
        assert eq(meet(u, u), u)
        # units of the two operations
        assert eq(join(u, bot), u)
        assert eq(meet(u, tp), u)
        # distributivity, both ways
        assert eq(meet(u, join(v, w)), join(meet(u, v), meet(u, w)))
        assert eq(join(u, meet(v, w)), meet(join(u, v), join(u, w)))
        # the four support laws on a fresh random pair
        f = random_element(rng, A)
        g = random_element(rng, A)
        assert support_law_witness(A, lambda h: basic_open(A, [h]), [(f, g)]) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"lattice law suite took {elapsed:.1f}s"


def test_c02_order_agrees_with_per_generator_radical_membership():
    """leq(u, v) must coincide with generator-wise radical membership."""
    rng = random.Random(2026_08_02)
    A = qq_xy()
    agree_true = agree_false = 0
    for _ in range(200):
        u = random_open(rng, A, max_gens=3, max_degree=2)
        v = random_open(rng, A, max_gens=3, max_degree=2)
        direct = all(
            A.radical_member(g, list(v.generators)) for g in u.generators
        )
        assert leq(u, v) == direct
        if direct:
            agree_true += 1
        else:
            agree_false += 1
    # the sample must exercise both answers, otherwise the check is hollow
    assert agree_true > 0 and agree_false > 0


def test_c03_localization_lattice_isomorphism_roundtrips():
    """The lattice of a localization matches the part below D(f).

    Both directions are identities up to lattice equality, on 100 random
    inputs per fixture algebra: down-up-down on opens below D(f), and
    up-down-up on opens of the localized algebra (whose generators may
    involve the inverse variable).
    """
    fixtures = [
        (qq_x(), lambda A: A.var(0)),
        (qq_xy(), lambda A: A.var(0) + A.var(1)),
        (gf5_circle(), lambda A: A.var(0)),
    ]
    rng = random.Random(2026_08_03)
    for A, pick in fixtures:
        f = pick(A)
        loc = make_localization(A, f)
        df = basic_open(A, [f])
        for _ in range(100):
            down = meet(random_open(rng, A, max_gens=2), df)
            up = open_to_localization(loc, down)
            back = open_from_localization(loc, up)
            assert eq(back, down)
        for _ in range(100):
            w = random_open(rng, loc.algebra, max_gens=2)
            down2 = open_from_localization(loc, w)
            up2 = open_to_localization(loc, down2)
            assert eq(up2, w)


def test_c04_sheaf_gluing_splits_and_reassembles_exactly():
    """Split-then-glue is the identity on normal forms; glue-then-restrict
    returns the inputs.  100 random (section, cover) pairs per fixture.
    """
    rng = random.Random(2026_08_04)
    A1 = qq_x()
    A2 = qq_xy()
    fixtures = [
        (A1, CoverData(A1, [A1.var(0), 1 - A1.var(0)])),
        (A2, CoverData(A2, [A2.var(0), A2.var(1), 1 - A2.var(0) - A2.var(1)])),
    ]
    for A, cov in fixtures:
        for _ in range(100):
            a = random_element(rng, A)
            fam = SectionFamily(
                cov,
                [global_section(make_localization(A, p), a) for p in cov.pieces],
            )
            assert incompatibility_witness(fam) is None
            glued = glue(fam)
            assert glued == a  # exact normal form, not merely equivalent
            for s, p in zip(fam.sections, cov.pieces):
                again = global_section(make_localization(A, p), glued)
                assert section_equal(again, s)


def test_c05_global_sections_of_an_affine_scheme_recover_the_algebra():
    """A -> Gamma(Spec A) -> A is the identity on 50 random elements each."""
    rng = random.Random(2026_08_05)
    for A in (qq_triple_point(), gf5_hyperbola()):
        X = mk_affine(A)
        for _ in range(50):
            a = random_element(rng, A)
            sec = chart_section(X, a)
            assert chart_element(sec) == a
        # the identification respects the ring structure
        a = random_element(rng, A)
        b = random_element(rng, A)
        sa, sb = chart_section(X, a), chart_section(X, b)
        assert pointwise(mul, sa, sb).values == chart_section(X, a * b).values
        assert pointwise(add, sa, sb).values == chart_section(X, a + b).values


def test_c06_point_counts_match_the_brute_force_oracle():
    """Exact point counts over small finite fields, oracle first.

    The brute-force oracle is recomputed here and compared against its
    frozen values before the package's own enumeration runs; the locality
    identity X(B x B) = X(B)^2 is checked over the 9-element split algebra.
    """
    t0 = time.monotonic()
    # oracle first: recompute each count by exhaustive search
    assert O.affine_point_count(3, 1, []) == O.FROZEN_POINT_COUNTS[
        ("affine_line", 3)
    ]
    assert O.unit_count(5) == O.FROZEN_POINT_COUNTS[("multiplicative_group", 5)]
    assert O.projective_line_count(2) == O.FROZEN_POINT_COUNTS[
        ("projective_line", 2)
    ]
    assert O.projective_line_count(3) == O.FROZEN_POINT_COUNTS[
        ("projective_line", 3)
    ]
    assert O.punctured_plane_count(3) == O.FROZEN_POINT_COUNTS[
        ("punctured_plane", 3)
    ]

    F3 = PresentedAlgebra(PolyRing(GF(3), []))
    F5 = PresentedAlgebra(PolyRing(GF(5), []))
    a13 = affine_line(GF(3))
    p13 = functorial(projective_line(GF(3)))
    pp3 = functorial(punctured_plane(GF(3))[0])
    assert len(eval_points(a13, F3)) == 3
    assert len(eval_points(multiplicative_group(GF(5)), F5)) == 4
    assert (
        len(eval_points(functorial(projective_line(GF(2))),
                        PresentedAlgebra(PolyRing(GF(2), [])))) == 3
    )
    assert len(eval_points(p13, F3)) == 4
    assert len(eval_points(pp3, F3)) == 8

    D3 = product_of_points(3, 2)
    for G, base_count in ((a13, 3), (p13, 4), (pp3, 8)):
        assert len(eval_points(G, D3)) == base_count**2
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"point counting took {elapsed:.1f}s"


def test_c07_punctured_plane_is_not_affine():
    """Meeting with D(x, y) identifies D(1) and D(x, y), yet they differ.

    This is the lattice-level witness that the plane minus the origin is
    not the spectrum of its own ring of global functions; both facts reduce
    to radical membership.
    """
    A = qq_xy()
    x, y = A.gens()
    d1 = top(A)
    dxy = basic_open(A, [x, y])
    # the map u -> u meet D(x, y) sends both D(1) and D(x, y) to the same
    # element ...
    assert eq(meet(d1, dxy), meet(dxy, dxy))
    # ... but D(1) and D(x, y) themselves are distinct: 1 is not in the
    # radical of (x, y)
    assert not eq(d1, dxy)
    assert not A.radical_member(A.one, [x, y])
    assert A.radical_member(x * y, [x, y])  # sanity: the meet really is below


def test_c08_comparison_theorem_holds_on_the_fixture_schemes():
    """Equivalence of the two scheme presentations, extensionally.

    Points, local-morphism certificates, flat/sharp roundtrips, naturality
    along algebra morphisms, and the realization certificate are bundled by
    comparison_check; it must pass for the affine line, the projective
    line, and the punctured plane over one- and two-point test algebras.
    """
    F2 = PresentedAlgebra(PolyRing(GF(2), []))
    F3 = PresentedAlgebra(PolyRing(GF(3), []))
    D2 = product_of_points(2, 2)
    diag2 = AlgebraMorphism(F2, D2, [])
    pr0 = AlgebraMorphism(D2, F2, [F2.zero])
    pr1 = AlgebraMorphism(D2, F2, [F2.one])
    gf2_fixtures = [
        (mk_affine(PresentedAlgebra(PolyRing(GF(2), ["x"]))), 2),
        (projective_line(GF(2)), 3),
        (punctured_plane(GF(2))[0], 3),
    ]
    for X, n in gf2_fixtures:
        ok, report = comparison_check(X, [F2, D2], morphisms=[diag2, pr0, pr1])
        assert ok, report
        assert report["counts"] == [n, n**2]  # product counts are fixed by locality
        assert report["natural"]
        assert report["realization"] == "ok"
    gf3_fixtures = [
        (mk_affine(PresentedAlgebra(PolyRing(GF(3), ["x"]))), 3),
        (projective_line(GF(3)), 4),
        (punctured_plane(GF(3))[0], 8),
    ]
    for X, n in gf3_fixtures:
        ok, report = comparison_check(X, [F3])
        assert ok, report
        assert report["counts"] == [n]
        assert report["realization"] == "ok"


def test_c09_invertibility_support_is_the_largest_invertible_open():
    """If a restricted section is invertible, the target open sits below
    the section's invertibility support; restricting to the support itself
    is always invertible.  100 sampled triples (f, s, g) with D(g) <= D(f).
    """
    rng = random.Random(2026_08_09)
    invertible_hits = 0

    def invertible(r):
        return r.loc.algebra.try_invert(r.value) is not None

    for A in (qq_x(), qq_xy()):
        for i in range(50):
            f = random_nonzero_element(rng, A)
            h = random_nonzero_element(rng, A)
            g = f * h  # guarantees D(g) <= D(f) in a domain
            loc = make_localization(A, f)
            if i % 3 == 0:
                num = A.one  # force plenty of invertible samples
            else:
                num = random_element(rng, A)
            s = BasicOpenSection(loc, loc.to_loc(num) * loc.inverse ** rng.randrange(3))
            support = invertibility_support_basic(s)
            if invertible(restrict(s, g)):
                invertible_hits += 1
                assert leq(basic_open(A, [g]), support)
            for piece in support.generators:
                assert invertible(restrict(s, piece))
    assert invertible_hits > 0  # the implication was exercised, not vacuous


def test_c10_spec_is_local_and_the_broken_morphism_is_caught():
    """Every induced morphism between fixture spectra commutes with
    invertibility supports on chart-generator samples; morphism data
    violating that is rejected with a textual witness.
    """
    A1 = qq_x()
    A2 = qq_xy()
    T = qq_triple_point()
    H = gf5_hyperbola()
    C = gf5_circle()
    QQ0 = PresentedAlgebra(PolyRing(QQ, []))
    x1 = A1.var(0)
    x2, y2 = A2.gens()
    xh, yh = H.gens()
    xc, yc = C.gens()
    fixture_morphisms = [
        morphism(A1, A1, [x1 * x1]),
        morphism(A1, A2, [x2 * y2]),
        morphism(A2, A1, [x1, x1 * x1]),
        morphism(A1, T, [T.var(0)]),
        morphism(T, QQ0, [QQ0.one]),
        morphism(H, H, [yh, xh]),
        morphism(C, C, [-yc, xc]),
    ]
    for phi in fixture_morphisms:
        pi = spec_morphism(phi)
        assert local_morphism_witness(pi) is None, phi

    # morphism data that collapses every open to the top while killing all
    # sections cannot commute with invertibility supports
    B = qq_x()
    X = mk_affine(B)
    Y = mk_affine(B)

    def broken_open(j, w):
        return top_open(X)

    loc1 = make_localization(B, B.one)
    kill = AlgebraMorphism(B, loc1.algebra, [loc1.algebra.zero])
    broken = SchemeMorphism(X, Y, broken_open, [[(0, B.one, kill)]])
    witness = local_morphism_witness(broken)
    assert witness is not None and "support" in witness


def test_c11_the_kernel_is_float_free():
    """Every number in the package source is an integer literal and the
    float builtin is never used: all arithmetic is exact by construction.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "zariski"
    files = sorted(src.glob("*.py"))
    assert files, "package sources not found"
    for path in files:
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NUMBER:
                digits = tok.string.replace("_", "")
                assert digits.isdigit(), (
                    f"non-integer literal {tok.string!r} in {path.name}"
                )
            if tok.type == tokenize.NAME and tok.string == "float":
                raise AssertionError(f"float builtin used in {path.name}")


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a package module imports is read somewhere in that module
    (``__init__.py`` re-exports, so it is exempt)."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "zariski"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"


def _reads(tree):
    """How often each name is read in a syntax tree: loaded names, loaded
    attributes and imported names."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
    return counts


def test_every_public_name_of_the_package_is_used():
    """Every public top-level name and public method of a package module
    (``cli.py`` aside: its commands are called by click) is reached by the
    product: read in the package outside its own definition and the
    ``__init__.py`` re-export, read by a ```python block of README.md
    (``test_readme.py`` runs them), or read by the benchmark under
    ``perfbench/``.  A read from ``tests/`` does not count, nor does a name
    in README prose."""
    root = pathlib.Path(__file__).resolve().parents[1]
    src = root / "src" / "zariski"
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = collections.Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used += _reads(tree)
    for path in sorted((root / "perfbench").rglob("*.py")):
        used += _reads(ast.parse(path.read_text()))
    readme = (root / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL):
        used += _reads(ast.parse(block))
    unused = []
    for path, tree in trees.items():
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, ast.Assign):
                defs = [t for t in node.targets if isinstance(t, ast.Name)]
            for d in defs:
                name = getattr(d, "name", None) or getattr(d, "id", None)
                if not name or name.startswith("_"):
                    continue
                own = 0 if isinstance(d, ast.Name) else _reads(d)[name]
                if used[name] <= own:
                    unused.append(f"{path.name}:{d.lineno} {name}")
    assert not unused, f"public names the product does not reach: {unused}"


def test_the_power_bound_is_one_constant_not_a_knob():
    """Every search over denominator powers reads ``POWER_CAP``: no function
    of the package declares a ``cap`` parameter and no subcommand offers
    ``--cap``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "zariski"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                assert "cap" not in names, f"{path.name}:{node.lineno} takes cap"
    runner = CliRunner()
    pending = [([], cli_main)]
    while pending:
        path, cmd = pending.pop()
        for name, sub in getattr(cmd, "commands", {}).items():
            pending.append((path + [name], sub))
        r = runner.invoke(cli_main, path + ["--help"])
        assert r.exit_code == 0, (path, r.output)
        assert "--cap" not in r.output, " ".join(path)


KNOWN_OPTIONS = {
    "algebra.PresentedAlgebra.__init__.relations",
    "compare.comparison_check.morphisms",
    "fields.Field.__init__.char",
    "groebner.divide.want_quotients",
    "latscheme.GluingData.__init__.patches",
    "latscheme.GluingData.__init__.validate",
    "parsing.parse_ring.order",
    "polynomials.MonomialOrder.__init__.kind",
    "polynomials.PolyRing.__init__.order",
    "polynomials.PolyRing.with_vars.order",
}


def test_the_package_options_are_the_known_ones():
    """Every defaulted parameter of a public function or method of the
    package (``cli.py`` aside) is listed in ``KNOWN_OPTIONS``.  An option
    doubles the cases to test, so a new one is added to the list on
    purpose, with a second caller that needs a value of its own."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "zariski"

    def public(name):
        return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))

    def options(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and public(node.name):
                yield from options(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and public(node.name):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for arg in named:
                    yield f"{prefix}{node.name}.{arg.arg}"

    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "cli.py":
            found.update(options(ast.parse(path.read_text()).body, f"{path.stem}."))
    assert found == KNOWN_OPTIONS


def test_the_package_has_no_module_level_caches():
    """No module of the package holds a dict.  Memos belong on the object
    they describe (an algebra, a scheme, a morphism) and die with it, so no
    caller's answers outlive it or reach an equal object built later."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "zariski"
    found = set()
    for path in sorted(src.glob("*.py")):
        name = "zariski" if path.stem == "__init__" else f"zariski.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)
            ]
            for t in targets:
                if isinstance(t, ast.Name) and isinstance(getattr(module, t.id, None), dict):
                    found.add(f"{path.stem}.{t.id}")
    assert found == set()
