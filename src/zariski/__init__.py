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
from .groebner import GroebnerBasis, groebner
from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    Localization,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    make_tensor,
    morphism,
)
from .lattice import (
    SupportMap,
    ZarElement,
    basic_open,
    bottom,
    canonical_support,
    check_support_laws,
    eq,
    induced_hom,
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
    is_invertible,
    restrict,
    restriction_map,
    section,
    section_equal,
)
from .latscheme import (
    CompactOpen,
    GlobalSection,
    GluingData,
    GluingError,
    LatticeScheme,
    SchemeMorphism,
    SectionRing,
    affine_hull_map,
    check_locally_affine,
    embed_basic,
    global_sections,
    identity_morphism,
    invertibility_support_scheme,
    make_patch,
    mk_affine,
    projective_line,
    punctured_plane,
    restrict_scheme,
    spec_morphism,
    top_open,
)
from .funscheme import (
    FunctorialScheme,
    NonReducedAlgebraError,
    SchemePoint,
    affine_line,
    affine_plane,
    check_locality,
    eval_points,
    functorial,
    multiplicative_group,
    realization,
    representable,
    ring_of_functions,
)
from .compare import (
    RealizationData,
    adjunction_flat,
    comparison_check,
    point_morphism,
    realization_certificate,
)

__version__ = "0.1.0"
