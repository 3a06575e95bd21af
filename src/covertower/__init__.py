"""Finite covers of closed oriented surfaces: enumeration, homology
transfer, train-track lifting, the normalized intersection pairing, and
the virtual-automorphism action on the cover tower."""

from .covers import (
    CoverArrow,
    SurfaceCover,
    compose_covers,
    enumerate_covers,
    factors_through,
    fiber_product,
    induced_cover,
    mod2_homology_cover,
    trivial_cover,
)
from .characteristic import (
    characteristic_refinement,
    is_characteristic,
    shipped_automorphisms,
)
from .errors import (
    BadDegree,
    BaseMismatch,
    ComplexMismatch,
    CovertowerError,
    DimensionMismatch,
    GenusMismatch,
    IncompatibleTower,
    InvalidAutomorphism,
    InvalidIdentification,
    KindMismatch,
    NegativeWeight,
    NonIntegerWeights,
    NotTransitive,
    RelatorNotTrivial,
    SearchBudgetExceeded,
    SwitchViolation,
)
from .homology import CoverComplex, surface_complex
from .limits import (
    LimitElement,
    base_class_element,
    cycle_element,
    homology_shadow,
    lift_element,
    limit_equal,
    normalized_pairing,
    pairing_table,
    track_element,
)
from .orbit import OrbitConfig, OrbitResult, orbit_density_experiment
from .traintrack import (
    CarryingMatrix,
    LiftedTrack,
    Switch,
    TrainTrack,
    arrow_step_matrix,
    carrying_compose,
    lift_track,
    three_branch_example,
)
from .vauts import (
    TwoArrowVaut,
    certified_in_caut,
    identity_vaut,
    pairing_preserved,
    restrict_vaut,
    vaut_act,
    vaut_act_track,
    vaut_compose,
    vaut_inverse,
)

__version__ = "0.1.0"
