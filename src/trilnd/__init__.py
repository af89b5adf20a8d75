"""Torus-graded locally nilpotent derivations of trinomial algebras.

The package classifies, constructs, and verifies the graded locally
nilpotent derivations of algebras cut out by chains of trinomial
relations between monomial block powers. Entry points:

* presentation: the algebra descriptions and their normal forms,
* grading: the canonical fine torus grading,
* derivation: derivations, well-definedness, nilpotency, kernels,
* classify: admissible tuples, the constructions, class reports,
* oracle: independent linear-algebra search per degree,
* toric: root systems and closed forms for the quotient surfaces,
* corpus: a fixed presentation sweep for cross-checks,
* cli: the command line.
"""

from .gaussian import GaussianRational, I, InputError, InternalError, InvalidArgument, ONE, ZERO, gq, gq_format, gq_parse, gq_sqrt
from .poly import (
    DegreeOverflow,
    Gen,
    Monomial,
    NotDivisible,
    Poly,
    PolyParseError,
    UnknownGenerator,
    gen_name,
    normal_form,
    partial_derivative,
    poly_format,
    poly_parse,
    svar,
    tvar,
)
from .presentation import (
    AssumptionViolated,
    BadShape,
    DependentColumns,
    DuplicateConstants,
    NonPositiveExponent,
    RescalingReport,
    TrinomialPresentation,
    all_ones_rescaling,
    surface,
    type1,
    type2,
)
from .grading import Grading, NonHomogeneous, derivation_degree, homogeneous_parts, weight_assignment, weight_of
from .derivation import (
    Derivation,
    DerivationFormatError,
    NilpotencyReport,
    NotInKernel,
    WellDefinedReport,
    decompose,
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    kernel_member,
    nilpotency_check,
    refutation_holds,
    replica,
)
from .classify import (
    DEFAULT_LAMBDAS,
    AdmissibleTuple,
    ExactDivisionFailed,
    InadmissibleDescriptor,
    InadmissibleTuple,
    LndClassReport,
    LndDescriptor,
    LndInstance,
    MakarLimanovReport,
    NeedsNormalization,
    NoSuchFreeVariable,
    RigidityReport,
    SemirigidityReport,
    TupleOrbit,
    WrongType,
    admissible_tuples,
    build_lnd,
    build_lnd_type1,
    build_lnd_type2,
    class_report,
    enumerate_lnds,
    expand_orbits,
    free_variable_lnd,
    is_rigid,
    is_semirigid,
    kernel_generators,
    makar_limanov,
    tuple_orbits,
)
from .oracle import (
    BoxTooLarge,
    OracleReport,
    SolutionSpace,
    induced_weight_box,
    oracle_enumerate,
    reduced_monomials,
    solution_space,
)
from .toric import (
    Cone2D,
    RootFamily,
    RootOutOfRange,
    ToricDerivation,
    demazure_roots,
    gamma_cone,
    surface_case,
    surface_lnds,
    toric_derivation,
    weighted_plane_lnds,
)
from .corpus import corpus

__version__ = "0.1.0"
