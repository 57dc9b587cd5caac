"""quadnorm: class groups and unit-norm indices of real quadratic fields.

Exact (integer-only) computation of fundamental units, form class groups,
cyclic period fields, local norm tests at ramified conductors, group-ring
transfer maps, and the verification harnesses that compare these against
the toolkit's built-in reference claims.
"""

from .quadfield import (
    FundamentalUnit,
    QuadInteger,
    QuadraticField,
    ResidueFieldElement,
    SplittingType,
    fundamental_unit,
    make_field,
    reduce_mod_prime,
    splitting_type,
)
from .formclass import (
    BinaryQuadraticForm,
    ClassGroupStructure,
    FormClass,
    PolyaReport,
    class_group,
    minkowski_class_number,
    polya_report,
    prime_form,
    reduction_cycle,
)
from .cyclicext import (
    CyclicExtensionDescriptor,
    PropernessReport,
    TowerCertificate,
    cyclic_descriptor,
    period_polynomial,
    properness_report,
    relative_discriminant,
    tower_certificate,
)
from .normtest import (
    LocalNormVerdict,
    NormIndexReport,
    detect_p_divisibility,
    inert_conductor_index,
    local_norm_test,
    norm_index,
    verify_class_order,
)
from .compose import (
    NOT_FOUND,
    FamilyFPolynomial,
    RelativeCharPoly,
    RelativeElement,
    RelativeExtension,
    composition_check,
)
from .transfer import (
    FiniteGroup,
    GroupRingElement,
    TransferResult,
    augmentation_membership,
    diagram_check,
    restricted_transfer,
    transfer,
)
from .harness import (
    Report,
    RunConfig,
    ScanRecord,
    detection_sweep,
    reproduce_appendix_a,
    scan,
    stats,
    transfer_survey,
    verify_example_79,
)

__version__ = "0.1.0"
