"""A fixed call into every layer, run at the end of each traced run.

Some workloads never reach some layers (``groebner_kernel`` has no
lattice), which would leave those layers' self times at exactly zero.  The
sweep gives every layer a small, measured self time on every workload.
It takes a few milliseconds, runs after the op stream under its own root
span ``bench.sweep``, and is not part of any end-to-end metric.
"""

from __future__ import annotations

import contextlib
import importlib
import io


def run(tracer) -> None:
    z = importlib.import_module("zariski")
    parsing = importlib.import_module("zariski.parsing")
    funscheme = importlib.import_module("zariski.funscheme")
    compare = importlib.import_module("zariski.compare")
    latscheme = importlib.import_module("zariski.latscheme")
    sheaf = importlib.import_module("zariski.sheaf")
    lattice = importlib.import_module("zariski.lattice")
    algebra = importlib.import_module("zariski.algebra")
    cli = importlib.import_module("zariski.cli")
    with tracer.span("bench.sweep"):
        ring, rels = parsing.parse_ring("QQ[x,y]")
        A = z.PresentedAlgebra(ring, rels)
        x = A.element(parsing.parse_poly("x + 1", A.ring))
        lattice.leq(lattice.basic_open(A, [x]), lattice.top(A))
        cover = sheaf.CoverData(A, [x, A.one - x])
        fam = sheaf.SectionFamily(
            cover,
            [sheaf.global_section(algebra.make_localization(A, p), x) for p in cover.pieces],
        )
        sheaf.glue(fam)
        F2 = z.GF(2)
        B = z.PresentedAlgebra(z.PolyRing(F2, []))
        X = latscheme.projective_line(F2)
        funscheme.eval_points(funscheme.functorial(X), B)
        compare.comparison_check(X, [B])
        with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            cli.main(
                ["lattice", "leq", "D(x)", "D(x, y)", "--ring", "QQ[x,y]"],
                standalone_mode=False,
            )
