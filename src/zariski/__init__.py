"""Constructive qcqs-schemes over exact fields.

Two point-free presentations of quasi-compact quasi-separated schemes —
locally ringed distributive lattices built from affine gluing data, and
functors of points over finitely presented algebras — with decision
procedures for lattice order, sheaf gluing, and point enumeration, plus an
extensional comparison between the two sides on desk-scale fixtures.
"""

from .fields import GF, QQ, Field
from .polynomials import MonomialOrder, Poly, PolyRing
from .parsing import parse_field, parse_poly, parse_ring
from .groebner import GroebnerBasis
from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    Localization,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    morphism,
)
from .lattice import (
    ZarElement,
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
from .sheaf import (
    BasicOpenSection,
    CoverData,
    SectionFamily,
    global_section,
    glue,
    incompatibility_witness,
    invertibility_support_basic,
    restrict,
    restriction_map,
    section_equal,
)
from .latscheme import (
    CompactOpen,
    GlobalSection,
    GluingError,
    LatticeScheme,
    SchemeMorphism,
    affine_hull_map,
    embed_basic,
    invertibility_support_scheme,
    make_patch,
    mk_affine,
    projective_line,
    punctured_plane,
    restrict_scheme,
    top_open,
)
from .funscheme import (
    NonReducedAlgebraError,
    SchemePoint,
    check_locality,
    eval_points,
    realization,
)
from .compare import (
    adjunction_flat,
    comparison_check,
    point_morphism,
    realization_certificate,
)

__version__ = "0.1.0"
