"""Spectra, varieties and structural sheaves of finite structured groups."""

from .fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    QuotientGroup,
    Subgroup,
    alternating,
    commutator_subgroup,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    normal_closure,
    normal_subgroups,
    quaternion8,
    quotient,
    subgroup_product,
    symmetric,
)
from .freeprod import InconclusiveError, Word, WordContext, WordError, evaluate, parse_word
from .gobject import GGroup, GMorphism, enumerate_g_morphisms, identity_object
from .spectrum import (
    Ideal,
    Spectrum,
    irreducible_components,
    is_prime,
    radical,
    spectrum,
    vanishing_set,
)
from .variety import (
    FunctionGroup,
    VarietyError,
    VarietySet,
    coordinate_group,
    maximality_probe,
    variety_of,
    zariski_space,
)
from .sheaf import (
    AffineScheme,
    GluedScheme,
    SchemeMorphism,
    SectionGroup,
    SheafError,
    affine_scheme,
    check_sheaf_axioms,
    embed_quotient,
    glue,
    induced_morphism,
    scheme_hom_correspondence,
)

__version__ = "0.1.0"
