"""Generalized-cusp model geometry: projective linear algebra over exact or
float scalars, model cusp domains and groups, Hilbert metrics via chord
bisection, bending of marked representations, and cusp-type classification.
"""

from .projlin import (
    DEFAULT_TOL,
    EigenPair,
    ProjMap,
    ProjPoint,
    act,
    compose,
    eigen,
    inverse,
    proj_equiv,
)
from .cusp_models import (
    CuspGroupElement,
    CuspParameter,
    ModelDomain,
    ParaboloidModel,
    cusp_type,
    h_element,
    h_product,
    hyperplane_centralizer_element,
    leaf_coordinate,
    leaf_point,
    parabolic_element,
    zprime_element,
)
from .hilbert import (
    ConvexDomainOracle,
    ball_oracle,
    chord_boundary,
    cross_ratio,
    hilbert_distance,
    hilbert_distances,
    klein_distance,
    model_domain_oracle,
    transformed_oracle,
)
from .bending import (
    BendingMove,
    Decomposition,
    MarkedRep,
    bend,
    iterated_bend,
)
from .cusp_classify import (
    ClassifiedCusp,
    RectangularCuspData,
    bent_cusp_generators,
    conjugate_and_match,
    equivalent_parameters,
    standard_cusp_generators,
    upper_triangular_check,
)

__version__ = "0.1.0"
