"""Twisted group extensions and twisted equivariant Cech cohomology, exactly.

Finite groups enter as multiplication tables, spaces as finite nerves of
good covers; every classification here is an exhaustive, reproducible
computation.
"""

__version__ = "0.1.0"

from .groups import (
    Automorphism,
    FiniteGroup,
    GroupHom,
    Subgroup,
    automorphisms,
    center,
    conjugacy_classes,
    cyclic_group,
    find_isomorphism,
    inner_automorphisms,
    outer_classes,
    quotient_group,
    validate_group,
)
from .extensions import (
    GammaAction,
    GammaOneCochain,
    Recocycling,
    TwistedData,
    TwistedProductGroup,
    build_twisted_product,
    check_cocycle,
    check_gamma_action,
    coboundary,
    cohomologous_iso,
    extract_twisted_data,
    gamma_hat,
    make_twisted_data,
    recocycle,
    second_cohomology,
    trivial_action,
)
from .actions import (
    GhatSet,
    TwistedGSet,
    from_ghat,
    homogeneous_space,
    is_twisted_equivariant,
    quotient_by_g,
    regular_ghat_set,
    to_ghat,
    transport,
    validate_twisted_action,
)
from .nerves import (
    CoverDescent,
    GammaNerve,
    Nerve,
    build_cover,
    monodromy,
    quotient,
    trivial_gamma_nerve,
    validate_gamma_nerve,
    validate_nerve,
)
from .cech import (
    CechSystem,
    CohomologySet,
    TwistedOneCocycle,
    action_ladder,
    coefficient_ladder,
    d1,
    d2,
    delta_h0,
    delta_h1,
    existence_check,
    gauge,
    h0_twisted,
    h1_reduced,
    h1_twisted,
    is_twisted_cocycle,
    les_verify,
    make_cocycle,
    map_coefficients,
    reductions_to_subgroup,
    sections_of_associated,
    transport_cocycle,
)
from .correspond import (
    GhatCocycleY,
    ascend,
    connected_reduction,
    descend,
    fiber_over_cover,
    grothendieck_fiber,
    normalizer_embedding_check,
    plain_h1,
)
