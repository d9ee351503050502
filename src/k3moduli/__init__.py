"""Class-group invariants and fields of moduli of singular K3 surfaces.

Given the transcendental lattice of a singular K3 surface as an even positive
definite Gram matrix, this package computes the class group of its primitive
part, the Galois-conjugate orbit (the genus), the degrees of the field of
K-moduli and the absolute field of moduli, whether the latter is Galois over
Q, and explicit minimal polynomials via class polynomials.
"""

__version__ = "0.1.0"

from .classgroup import (
    ClassGroup,
    GenusPartition,
    cayley,
    class_group,
    genus_of,
    genus_order,
    genus_partition,
    principal_genus,
    structure,
    two_torsion,
)
from .k3 import (
    SMDecomposition,
    TranscLattice,
    cm_field,
    complex_conjugate,
    conjugate_lattice,
    from_gram,
    galois_orbit,
    lattice_from_class,
    shioda_mitani,
)
from .moduli import (
    GaloisModel,
    ModuliReport,
    class_polynomial,
    field_of_K_moduli,
    field_of_Q_moduli,
    galois_model,
    moduli_degree,
    moduli_report,
    mq_is_galois,
)
from .numerics import BigComplex, CMPoint, j_invariant, poly_from_roots, recognize_integer
from .orders import (
    IdealLattice,
    QuadOrder,
    compose_general,
    form_to_ideal,
    ideal_lattice,
    ideal_to_form,
    multiply,
    order_of_disc,
    reduction_map,
)
from .qforms import (
    FormClass,
    QuadForm,
    compose,
    discriminant,
    form_class,
    inverse,
    is_primitive,
    primitive_part,
    principal_class,
    principal_form,
    reduce,
    transform,
)

__all__ = [
    "BigComplex",
    "CMPoint",
    "ClassGroup",
    "FormClass",
    "GaloisModel",
    "GenusPartition",
    "IdealLattice",
    "ModuliReport",
    "QuadForm",
    "QuadOrder",
    "SMDecomposition",
    "TranscLattice",
    "__version__",
    "cayley",
    "class_group",
    "class_polynomial",
    "cm_field",
    "complex_conjugate",
    "compose",
    "compose_general",
    "conjugate_lattice",
    "discriminant",
    "field_of_K_moduli",
    "field_of_Q_moduli",
    "form_class",
    "form_to_ideal",
    "from_gram",
    "galois_model",
    "galois_orbit",
    "genus_of",
    "genus_order",
    "genus_partition",
    "ideal_lattice",
    "ideal_to_form",
    "inverse",
    "is_primitive",
    "j_invariant",
    "lattice_from_class",
    "moduli_degree",
    "moduli_report",
    "mq_is_galois",
    "multiply",
    "order_of_disc",
    "poly_from_roots",
    "primitive_part",
    "principal_class",
    "principal_form",
    "principal_genus",
    "recognize_integer",
    "reduce",
    "reduction_map",
    "shioda_mitani",
    "structure",
    "transform",
    "two_torsion",
]
