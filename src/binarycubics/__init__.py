"""Exact characters, quiver representations and local cohomology tables
for GL2-equivariant D-modules on binary cubic forms.

The character layer (characters, catalog) computes multiplicities of
irreducible GL2-representations in the 14 simple equivariant D-modules
on the space of binary cubics, with exact integer arithmetic throughout.
The quiver layer (quiver, cubics) is a generic engine for quivers with
relations over the rationals -- path bases, hom spaces, decomposition
into indecomposables -- applied to the quiver presenting the equivariant
category.  verify replays every checkable identity; cli exposes it all
on the command line.
"""

from .characters import (
    Character,
    ClosedFormCharacter,
    Weight,
    add,
    box_weights,
    dual,
    fourier,
    fourier_weight,
    from_closed_form,
    is_dominant,
    localize,
    m_diag,
    mult_d,
    nu,
    shift,
    sub,
    truncate,
)
from .catalog import (
    COMPOSITION_SERIES,
    DERIVED,
    ORBITS,
    SIMPLES,
    SUPPORT,
    character_of,
    dual_partner,
    fourier_partner,
    injective_envelope_character,
    local_cohomology,
    verify_identities,
)
from .quiver import (
    Arrow,
    BoundQuiver,
    NonAdmissibleError,
    Quiver,
    RepMorphism,
    Representation,
    cokernel,
    decompose,
    decompose_certified,
    direct_sum,
    hom_basis,
    is_indecomposable,
    is_isomorphic,
    kernel,
    monomial_relations,
    rep_from_dict,
    rep_to_dict,
    semisimple_rank,
)
from .cubics import (
    NAMED_QUIVERS,
    build,
    check_tame_classification,
    check_two_vertex_component,
    embed_alpha,
    embed_beta,
    injective_envelope_of_P,
    rn_family,
)

__version__ = "0.1.0"
