"""Time the ladder's rungs and write them to ``BENCH_<short-sha>.json``.

    python3 tools/ladder.py [--root CHECKOUT] [--runs K] [--rung NAME ...] [--out PATH]
                            [--against PARENT_ROOT [--pairs N]]

Each rung builds its input outside the clock, then times one call, ``K``
times (5 by default), on a fresh input each time so no memo carries over.
Every run's wall time is read at the reference speed of
``perfbench/zbench/speed.py``, imported as it is: the speed kernel is
sampled right before and right after the run, and the run's time is scaled
by ``REF_NS`` over the median of those samples.  So two files measured
minutes apart on a host whose speed drifts still compare.  The file holds,
per rung, the median and quartiles of the scaled times in ms, the raw
median and the kernel's median.

``--root`` measures the ``src/`` of another checkout, such as a clean clone
of a parent commit, with this checkout's kernel.  The file is named after
that checkout's ``git rev-parse --short HEAD`` and records whether its
``src/`` differed from that commit.

``--against PARENT_ROOT --pairs N`` compares two checkouts in alternating
pairs, as ``tools/bench_pairs.py`` does for the benchmark's workloads.  The
committed files of each (``git archive HEAD``) are unpacked into a
temporary directory, and per rung the two sides run one after the other, N
times, each in a fresh process of the change's own ``tools/ladder.py``,
with the side that goes first flipped from one pair to the next.  A side's
times on a rung are the medians of its N processes.  Both files are
written, the parent's next to the change's, and both gain a ``pairs``
record per rung: the ratio of the medians (change over parent), the pairs
the change won, and the gap of the medians next to the parent's IQR.
Standard library only.
"""

import argparse
import gc
from fractions import Fraction
import itertools
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def power(ring, base, n):
    """``base**n`` in ``ring``, both given as text."""

    def prepare(z):
        f = z.parse_poly(base, z.parse_ring(ring)[0])
        return lambda: f**n

    return prepare


def cyclic5_text(field, extra=""):
    """Cyclic-5 as a quotient ring: the cyclic sums of 1 to 4 consecutive
    variables of x0..x4, x0*x1*x2*x3*x4 - 1, and ``extra`` if given."""
    xs = [f"x{i}" for i in range(5)]
    sums = ["+".join("*".join(xs[(i + j) % 5] for j in range(d)) for i in range(5)) for d in range(1, 5)]
    gens = sums + ["*".join(xs) + " - 1"] + ([extra] if extra else [])
    return f"{field}[{','.join(xs)}]/({', '.join(gens)})"


def katsura5_text(field, extra):
    """Katsura-5 in u0..u5 as a quotient ring: for m = 0..4, the sum of
    u_|l| * u_|m-l| over l = -5..5 (u_k = 0 for k > 5) minus u_m, the form
    u0 + 2*(u1 + ... + u5) - 1, and ``extra``."""
    eqs = [
        " + ".join(f"u{abs(l)}*u{abs(m - l)}" for l in range(-5, 6) if abs(m - l) <= 5) + f" - u{m}"
        for m in range(5)
    ]
    eqs.append("u0 + " + " + ".join(f"2*u{i}" for i in range(1, 6)) + " - 1")
    return f"{field}[{','.join(f'u{i}' for i in range(6))}]/({', '.join(eqs + [extra])})"


def dense_polys(nvars, count, degree, nterms, seed):
    """``count`` random polynomials in x0..x(nvars-1), as texts: each has
    ``nterms`` terms of degree at most ``degree``, one of them of degree
    exactly ``degree``, with coefficients of 1 to 9 in size and either
    sign, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    xs = [f"x{i}" for i in range(nvars)]
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) <= degree]
    gens = []
    for _ in range(count):
        lead = rng.choice([m for m in monos if sum(m) == degree])
        chosen = [lead] + rng.sample([m for m in monos if m != lead], nterms - 1)
        terms = []
        for m in chosen:
            factors = [f"{x}^{e}" if e > 1 else x for x, e in zip(xs, m) if e]
            terms.append("*".join([str(rng.choice([-1, 1]) * rng.randint(1, 9))] + factors))
        gens.append(" + ".join(terms).replace("+ -", "- "))
    return gens


def dense_text(field, nvars, count, degree, nterms, seed):
    """The ``dense_polys`` of these arguments as the relations of a quotient
    ring over ``field``."""
    xs = [f"x{i}" for i in range(nvars)]
    return f"{field}[{','.join(xs)}]/({', '.join(dense_polys(nvars, count, degree, nterms, seed))})"


def product(ring, left, right):
    """``left * right`` in ``ring``, all three given as text; both factors
    are built outside the clock."""

    def prepare(z):
        R = z.parse_ring(ring)[0]
        f, g = (z.parse_poly(t, R) for t in (left, right))
        return lambda: f * g

    return prepare


def basis(text):
    """A Groebner basis, with cofactors, of the relations of the quotient ``text``."""

    def prepare(z):
        R, gens = z.parse_ring(text)
        return lambda: z.GroebnerBasis(R, gens)

    return prepare


def unit_cert(text):
    """``unit_ideal_certificate`` of the relations of the quotient ``text``,
    which generate the unit ideal."""

    def prepare(z):
        R, gens = z.parse_ring(text)
        unit_ideal_certificate = sys.modules["zariski.groebner"].unit_ideal_certificate
        return lambda: unit_ideal_certificate(gens, R)

    return prepare


def atoms(ring):
    """``atomic_factors`` of the quotient ``ring``, a fresh algebra per run."""

    def prepare(z):
        R, rels = z.parse_ring(ring)
        B = z.PresentedAlgebra(R, rels)
        atomic_factors = sys.modules["zariski.funscheme"].atomic_factors
        return lambda: atomic_factors(B)

    return prepare


def points(scheme, algebra):
    """``eval_points`` of the affine scheme of the quotient ``scheme`` over
    the quotient ``algebra``, a fresh scheme per run."""

    def prepare(z):
        X = z.mk_affine(z.PresentedAlgebra(*z.parse_ring(scheme)))
        B = z.PresentedAlgebra(*z.parse_ring(algebra))
        return lambda: z.eval_points(X, B)

    return prepare


def points_glued(scheme, p, algebra):
    """``eval_points`` of the glued scheme over GF(p), ``"punctured_plane"``
    or ``"projective_line"``, a fresh one per run, over the quotient
    ``algebra``."""

    def prepare(z):
        X = z.punctured_plane(z.GF(p))[0] if scheme == "punctured_plane" else z.projective_line(z.GF(p))
        B = z.PresentedAlgebra(*z.parse_ring(algebra))
        return lambda: z.eval_points(X, B)

    return prepare


def points_projective(p, n, algebra):
    """``eval_points`` of P^n over GF(p) (``projective_space``), a fresh one
    per run, over the quotient ``algebra``."""

    def prepare(z):
        X = z.LatticeScheme(*projective_space(z, p, n))
        B = z.PresentedAlgebra(*z.parse_ring(algebra))
        return lambda: z.eval_points(X, B)

    return prepare


def p1_patch(p, n):
    """``make_patch`` of the projective line over GF(p) glued along D(t^n)
    and D(s): t -> 1/s forward, s -> t^(n-1) * (1/t^n) backward, the patch
    of the gluing document with ``"f": "t^n"``.  Fresh charts per run; the
    two localizations and the images are built outside the clock, as the
    loader builds them before it calls ``make_patch``."""

    def prepare(z):
        A0, A1 = (z.PresentedAlgebra(*z.parse_ring(f"GF({p})[{v}]")) for v in "ts")
        f, g = A0.var(0) ** n, A1.var(0)
        loc_f, loc_g = z.make_localization(A0, f), z.make_localization(A1, g)
        backward = loc_f.to_loc(A0.var(0)) ** (n - 1) * loc_f.inverse
        return lambda: z.make_patch([A0, A1], 0, 1, f, g, [loc_g.inverse], [backward])

    return prepare


def projective_space(z, p, n):
    """The charts and patches of P^n over GF(p), n <= 4: chart i has the
    coordinates X_k/X_i (k != i), named by k's letter in "xyzwv", and every
    two charts i < j are glued along D(X_j/X_i) ~ D(X_i/X_j), where
    X_k/X_i = (X_k/X_j) / (X_i/X_j).  Fresh charts on every call."""
    coords = [[k for k in range(n + 1) if k != i] for i in range(n + 1)]
    charts = [z.PresentedAlgebra(z.PolyRing(z.GF(p), ["xyzwv"[k] for k in ks])) for ks in coords]

    def var(i, k):  # X_k/X_i on chart i
        return charts[i].var(coords[i].index(k))

    def images(i, j):  # chart i's variables in chart j, localized at X_i/X_j
        loc = z.make_localization(charts[j], var(j, i))
        return [loc.inverse if k == j else loc.to_loc(var(j, k)) * loc.inverse for k in coords[i]]

    patches = [
        z.make_patch(charts, i, j, var(i, j), var(j, i), images(i, j), images(j, i))
        for i, j in itertools.combinations(range(n + 1), 2)
    ]
    return charts, patches


def validate_projective(p, n):
    """``LatticeScheme`` of P^n over GF(p): the patch, agreement and cocycle
    checks of its charts and patches, built fresh per run."""

    def prepare(z):
        charts, patches = projective_space(z, p, n)
        return lambda: z.LatticeScheme(charts, patches)

    return prepare


def realize_top_projective(p, n):
    """``restrict_scheme`` of the top open of P^n over GF(p), a fresh scheme
    per run: one chart per chart and the realized patches, no inclusion."""

    def prepare(z):
        X = z.LatticeScheme(*projective_space(z, p, n))
        return lambda: z.restrict_scheme(z.top_open(X))

    return prepare


def compare_punctured_plane(p, algebra):
    """``comparison_check`` of the punctured plane over GF(p), a fresh
    scheme per run, over the quotient ``algebra``."""

    def prepare(z):
        X = z.punctured_plane(z.GF(p))[0]
        B = z.PresentedAlgebra(*z.parse_ring(algebra))
        return lambda: z.comparison_check(X, [B])

    return prepare


def compare_warm(p, algebra):
    """``comparison_check`` of the punctured plane over GF(p), over the
    quotient ``algebra``, a fresh algebra per run, on a scheme whose sample
    plan and realization are remembered from a first comparison outside the
    clock: one scheme for every comparison, as in the benchmark's rounds."""

    def prepare(z):
        X = z.punctured_plane(z.GF(p))[0]
        z.comparison_check(X, [z.PresentedAlgebra(*z.parse_ring(algebra))])
        B = z.PresentedAlgebra(*z.parse_ring(algebra))
        return lambda: z.comparison_check(X, [B])

    return prepare


LATTICE_OPENS = ["x", "y", "x*y", "x, y", "x^2", "x + y", "x^2 - y^2", "x - y, x + y", "x*y - 1", "1"]


def lattice_batch(rings):
    """``leq`` and ``eq`` on every ordered pair of ``LATTICE_OPENS``, each a
    basic open given by its generators, over each quotient of ``rings``;
    fresh algebras per run, so no radical query is remembered from the last."""

    def prepare(z):
        opens = []
        for text in rings:
            A = z.PresentedAlgebra(*z.parse_ring(text))
            opens.append([z.basic_open(A, [A.element(z.parse_poly(g, A.ring)) for g in u.split(",")])
                          for u in LATTICE_OPENS])
        return lambda: [(z.leq(u, v), z.eq(u, v)) for us in opens for u in us for v in us]

    return prepare


def glue_split(ring, pieces, value):
    """``CoverData`` of ``pieces`` and ``glue`` of the sections ``value``/1
    over them, in the quotient ``ring``, a fresh algebra per run; the
    sections' localizations are built outside the clock."""

    def prepare(z):
        A = z.PresentedAlgebra(*z.parse_ring(ring))
        ps = [A.element(z.parse_poly(p, A.ring)) for p in pieces]
        a = A.element(z.parse_poly(value, A.ring))
        sections = [z.global_section(z.make_localization(A, p), a) for p in ps]
        return lambda: z.glue(z.SectionFamily(z.CoverData(A, ps), sections))

    return prepare


def cover_texts(count, seed):
    """``count`` three-piece covers of QQ[x,y] as ``lattice_sheaf`` draws
    them, each a list of three texts: f and g linear, vanishing at (0, 0),
    with coefficients of at most 3 in size, and ``1 - h1*f - h2*g`` for
    constants h1, h2 chosen so that it vanishes at (1, 0).  The pieces
    generate the unit ideal and none is a unit.  Drawn from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    covers = []
    for _ in range(count):
        a, c = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
        b, d = rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3])
        h2 = rng.randint(-3, 3)
        h1 = Fraction(1 - c * h2, a)  # f(1, 0) = a, g(1, 0) = c
        f, g = (f"{u}*x {'-' if v < 0 else '+'} {abs(v)}*y" for u, v in ((a, b), (c, d)))
        covers.append([f, g, f"1 - ({h1})*({f}) - ({h2})*({g})"])
    return covers


def covers(ring, texts):
    """``CoverData`` of each piece list of ``texts`` over the quotient
    ``ring``, one fresh algebra per run: a unit certificate and its
    re-evaluation per cover."""

    def prepare(z):
        A = z.PresentedAlgebra(*z.parse_ring(ring))
        pieces = [[A.element(z.parse_poly(t, A.ring)) for t in cover] for cover in texts]
        return lambda: [z.CoverData(A, ps) for ps in pieces]

    return prepare


# name -> (layer, what, prepare)
RUNGS = {
    "pow_linear4_18_qq": ("polynomials", "(-3*x0 + 5*x1 - x2 + 2)^18 over QQ, the benchmark's power",
                          power("QQ[x0,x1,x2]", "-3*x0 + 5*x1 - x2 + 2", 18)),
    "pow_xyz1_40_qq": ("polynomials", "(x+y+z+1)^40 over QQ", power("QQ[x,y,z]", "x+y+z+1", 40)),
    "pow_x1_400_qq": ("polynomials", "(x+1)^400 over QQ", power("QQ[x]", "x+1", 400)),
    "pow_x1_400_gf32003": ("polynomials", "(x+1)^400 over GF(32003)", power("GF(32003)[x]", "x+1", 400)),
    "pow_cubic_150_qq": ("polynomials", "(x^3+2x+1/3)^150 over QQ", power("QQ[x]", "x^3+2*x+1/3", 150)),
    "mul_dense5_qq": ("polynomials", "the product of two dense polynomials of degree 5 in x0..x2 over QQ, 56 "
                      "terms each (dense_polys(3, 2, 5, 56, 5)), the benchmark's product",
                      product("QQ[x0,x1,x2]", *dense_polys(3, 2, 5, 56, 5))),
    "mul_bivariate30_qq": ("polynomials", "(x+y+1)^30 * (x-y+2)^30 over QQ",
                           product("QQ[x,y]", "(x+y+1)^30", "(x-y+2)^30")),
    "square_dense6_qq": ("polynomials", "the square of a dense polynomial of degree 6 in x0..x2 over QQ, 84 terms "
                         "(dense_polys(3, 1, 6, 84, 6))", power("QQ[x0,x1,x2]", dense_polys(3, 1, 6, 84, 6)[0], 2)),
    "cyclic5_qq": ("groebner", "GroebnerBasis of cyclic-5 over QQ", basis(cyclic5_text("QQ"))),
    "cyclic5_gf32003": ("groebner", "GroebnerBasis of cyclic-5 over GF(32003)",
                        basis(cyclic5_text("GF(32003)"))),
    "basis_dense3_qq": ("groebner", "GroebnerBasis of three dense cubics of 8 terms in x0..x2 over QQ, seed 3",
                        basis(dense_text("QQ", 3, 3, 3, 8, 3))),
    "unit_cert_cyclic5_gf32003": ("groebner", "unit_ideal_certificate of cyclic-5 plus 2*x0 + 1/3*x1 - x3 + 5/3 "
                                  "over GF(32003)",
                                  unit_cert(cyclic5_text("GF(32003)", "2*x0 + 1/3*x1 - x3 + 5/3"))),
    "unit_cert_katsura5_qq": ("groebner", "unit_ideal_certificate of katsura-5 plus 2*u0 + 1/3*u1 - u3 + 5/3 over QQ",
                              unit_cert(katsura5_text("QQ", "2*u0 + 1/3*u1 - u3 + 5/3"))),
    "atomic_factors_gf7": ("funscheme", "atomic_factors(GF(7)[x,y]/(x^2-x, y^2-y)), 4 atoms",
                           atoms("GF(7)[x,y]/(x^2-x, y^2-y)")),
    "atomic_factors_split2_gf5": ("funscheme", "atomic_factors(GF(5)[e]/(e^2 + e + 3)), (e - 1)(e - 3): two atoms, "
                                  "the benchmark's split shape", atoms("GF(5)[e]/(e^2 + e + 3)")),
    "points_curve_gf5t3": ("funscheme", "eval_points of y^2 = x^3 + 1 over GF(5)[t]/(t^3), 125 points",
                           points("GF(5)[x,y]/(y^2 - x^3 - 1)", "GF(5)[t]/(t^3)")),
    "points_nonsep_gf5t3": ("funscheme", "eval_points of y^2 + x*y = x^3 + 1 over GF(5)[t]/(t^3), 225 points",
                            points("GF(5)[x,y]/(y^2 + x*y - x^3 - 1)", "GF(5)[t]/(t^3)")),
    "points_curve_gf5t4": ("funscheme", "eval_points of y^2 = x^3 + 1 over GF(5)[t]/(t^4), 625 points",
                           points("GF(5)[x,y]/(y^2 - x^3 - 1)", "GF(5)[t]/(t^4)")),
    "points_curve_gf625": ("funscheme", "eval_points of y^2 = x^3 + 1 over GF(625) = GF(5)[t]/(t^4 - 2), "
                           "575 points", points("GF(5)[x,y]/(y^2 - x^3 - 1)", "GF(5)[t]/(t^4 - 2)")),
    "points_pp_gf5t3": ("funscheme", "eval_points of the punctured plane over GF(5) over GF(5)[t]/(t^3), "
                        "15,000 points", points_glued("punctured_plane", 5, "GF(5)[t]/(t^3)")),
    "points_p1_gf49": ("funscheme", "eval_points of the projective line over GF(7) over GF(49) = "
                       "GF(7)[t]/(t^2 - 3), 50 points", points_glued("projective_line", 7, "GF(7)[t]/(t^2 - 3)")),
    "points_pp_gf49": ("funscheme", "eval_points of the punctured plane over GF(7) over GF(49) = "
                       "GF(7)[t]/(t^2 - 3), 2,400 points", points_glued("punctured_plane", 7, "GF(7)[t]/(t^2 - 3)")),
    "points_p1_gf5t4": ("funscheme", "eval_points of the projective line over GF(5) over GF(5)[t]/(t^4), "
                        "750 points", points_glued("projective_line", 5, "GF(5)[t]/(t^4)")),
    "points_p3_gf9": ("funscheme", "eval_points of P^3 over GF(3) over GF(9) = GF(3)[t]/(t^2 + 1), 820 points",
                      points_projective(3, 3, "GF(3)[t]/(t^2 + 1)")),
    "lattice_leq_qq2": ("lattice", "leq and eq on 100 pairs of basic opens, over QQ[x,y] and over "
                        "GF(5)[x,y]/(x^2 + y^2 - 1)",
                        lattice_batch(["QQ[x,y]", "GF(5)[x,y]/(x^2 + y^2 - 1)"])),
    "sheaf_glue_gf5_circle": ("sheaf", "CoverData of 1 - x, 1 + x, y and glue of x^3*y + 2*x*y^2 + 3 over "
                              "GF(5)[x,y]/(x^2 + y^2 - 1)",
                              glue_split("GF(5)[x,y]/(x^2 + y^2 - 1)", ["1 - x", "1 + x", "y"],
                                         "x^3*y + 2*x*y^2 + 3")),
    "cover_certs_qq2": ("sheaf", "CoverData of 20 seeded three-piece covers of QQ[x,y] (cover_texts(20, 1))",
                        covers("QQ[x,y]", cover_texts(20, 1))),
    "loader_p1_gf3_t250": ("latscheme", "make_patch of the projective line over GF(3) with f = t^250",
                           p1_patch(3, 250)),
    "validate_p3_gf3": ("latscheme", "LatticeScheme of P^3 over GF(3), 4 charts and 6 patches, validated",
                        validate_projective(3, 3)),
    "realize_top_p3_gf3": ("latscheme", "restrict_scheme of the top open of P^3 over GF(3)",
                           realize_top_projective(3, 3)),
    "compare_pp_gf49": ("compare", "comparison_check of the punctured plane over GF(7), compared over "
                        "GF(49) = GF(7)[t]/(t^2 - 3)", compare_punctured_plane(7, "GF(7)[t]/(t^2 - 3)")),
    "compare_pp_gf9": ("compare", "comparison_check of the punctured plane over GF(3), compared over GF(9) = "
                       "GF(3)[t]/(t^2 + 1), 80 points, on one scheme with its plan and realization built: the "
                       "benchmark's known-defect slot", compare_warm(3, "GF(3)[t]/(t^2 + 1)")),
    "compare_pp_gf3_split2": ("compare", "comparison_check of the punctured plane over GF(3), compared over "
                              "GF(3)[t,e]/(t^2, e^2-e), two local factors, 5,184 points",
                              compare_punctured_plane(3, "GF(3)[t,e]/(t^2, e^2-e)")),
}


def load(root):
    """The ``zariski`` package of ``root/src`` and this checkout's speed module."""
    src = os.path.realpath(os.path.join(root, "src"))
    for path in (src, os.path.join(HERE, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import zariski
    import zariski.funscheme  # noqa: F401  (atomic_factors)
    from zbench import speed

    if not os.path.realpath(zariski.__file__).startswith(src + os.sep):
        sys.exit(f"zariski is already imported from {zariski.__file__}, not from {src}")
    return zariski, speed


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(z, speed, prepare, runs):
    """``runs`` timings of one rung: the scaled times, the raw times, both
    in ms, and the kernel samples in ns."""
    scaled, raw, kernel = [], [], []
    for _ in range(runs):
        thunk = prepare(z)
        gc.collect()
        before = speed.sample()
        t0 = time.perf_counter_ns()
        thunk()
        wall = time.perf_counter_ns() - t0
        after = speed.sample()
        kernel += [before, after]
        scaled.append(speed.at_reference(wall, [before, after]) / 1e6)
        raw.append(wall / 1e6)
    return scaled, raw, kernel


def git(root, *args):
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=HERE, help="the checkout whose src/ is measured")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--rung", action="append", choices=sorted(RUNGS),
                    help="one rung; repeat for more (default: every rung)")
    ap.add_argument("--out", help="the file to write (default: BENCH_<short-sha>.json here)")
    ap.add_argument("--against", metavar="PARENT_ROOT", help="compare --root with this checkout in pairs")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per rung with --against (default 10)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs: need at least one run")
    if args.against and args.pairs < 2:
        ap.error("--pairs: need at least two pairs for quartiles")
    return args


def row(name, medians, raws, kernels):
    """A rung's row of the file: the median and quartiles of ``medians``."""
    layer, what, _ = RUNGS[name]
    q1, q2, q3 = quartiles(medians)
    return {"name": name, "layer": layer, "what": what, "median_ms": q2, "q1_ms": q1, "q3_ms": q3,
            "raw_median_ms": statistics.median(raws), "kernel_median_ns": statistics.median(kernels)}


def write(report, out):
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


def against(args):
    """Run --root (the change) and --against (the parent) in alternating
    pairs, each rung N times per side in fresh processes on clean archives;
    write both files with their ``pairs`` records and return the change's."""
    roots = {"change": args.root, "parent": args.against}
    shas = {side: git(root, "rev-parse", "--short", "HEAD") for side, root in roots.items()}
    if None in shas.values():
        sys.exit("--against compares two git checkouts")
    out = args.out or os.path.join(HERE, f"BENCH_{shas['change']}.json")
    parent_out = os.path.join(os.path.dirname(os.path.abspath(out)), f"BENCH_{shas['parent']}.json")
    if os.path.abspath(parent_out) == os.path.abspath(out):
        parent_out = out[: -len(".json")] + ".parent.json"
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: os.path.join(tmp, side) for side in roots}
        for side, root in roots.items():
            os.mkdir(copies[side])
            subprocess.run(f"git -C {shlex.quote(root)} archive HEAD | tar -x -C {shlex.quote(copies[side])}",
                           shell=True, check=True)
        rows, pairs = {"change": [], "parent": []}, []
        for name in args.rung or RUNGS:
            got = {"change": [], "parent": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    sub = os.path.join(tmp, f"{side}.json")
                    subprocess.run([sys.executable, os.path.join(copies["change"], "tools", "ladder.py"),
                                    "--root", copies[side], "--rung", name, "--runs", str(args.runs), "--out", sub],
                                   check=True, stdout=subprocess.DEVNULL)
                    with open(sub) as fh:
                        sub_report = json.load(fh)
                    got[side].append(sub_report["rungs"][0])
            for side, got_rows in got.items():
                rows[side].append(row(name, *([r[k] for r in got_rows] for k in
                                              ("median_ms", "raw_median_ms", "kernel_median_ns"))))
            par, chg = rows["parent"][-1], rows["change"][-1]
            pairs.append({"name": name, "pairs": args.pairs, "ratio": chg["median_ms"] / par["median_ms"],
                          "wins": sum(c["median_ms"] < p["median_ms"] for p, c in zip(got["parent"], got["change"])),
                          "gap_ms": abs(chg["median_ms"] - par["median_ms"]),
                          "parent_iqr_ms": par["q3_ms"] - par["q1_ms"]})
            print(f"{name:26} {par['median_ms']:9.3f} -> {chg['median_ms']:9.3f} ms  x{pairs[-1]['ratio']:.3f},"
                  f" won {pairs[-1]['wins']}/{args.pairs}, gap {pairs[-1]['gap_ms']:.3g}"
                  f" vs parent IQR {pairs[-1]['parent_iqr_ms']:.3g}", flush=True)
    reports = {}
    for side, path in (("parent", parent_out), ("change", out)):
        reports[side] = {"sha": shas[side], "src_differs_from_sha": False, "python": platform.python_version(),
                         "runs": args.runs, "ref_ns": sub_report["ref_ns"], "rungs": rows[side], "pairs": pairs}
        write(reports[side], path)
    return reports["change"]


def main(argv=None):
    args = parse_args(argv)
    if args.against:
        return against(args)
    sha = git(args.root, "rev-parse", "--short", "HEAD")
    if sha is None and args.out is None:
        sys.exit(f"{args.root} is not a git checkout: name the file with --out")
    z, speed = load(args.root)
    rows = []
    for name in args.rung or RUNGS:
        rows.append(row(name, *measure(z, speed, RUNGS[name][2], args.runs)))
        r = rows[-1]
        print(f"{name:26} {r['median_ms']:9.3f} ms [{r['q1_ms']:.3f}-{r['q3_ms']:.3f}]"
              f"  raw {r['raw_median_ms']:.3f} ms", flush=True)
    report = {
        "sha": sha,
        "src_differs_from_sha": sha and bool(git(args.root, "status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "runs": args.runs,
        "ref_ns": speed.REF_NS,
        "rungs": rows,
    }
    write(report, args.out or os.path.join(HERE, f"BENCH_{sha}.json"))
    return report


if __name__ == "__main__":
    main()
