"""Class-group invariants and fields of moduli of singular K3 surfaces.

Given the transcendental lattice of a singular K3 surface as an even positive
definite Gram matrix, this package computes the class group of its primitive
part, the Galois-conjugate orbit (the genus), the degrees of the field of
K-moduli and the absolute field of moduli, whether the latter is Galois over
Q, and explicit minimal polynomials via class polynomials.  The imports below
are the only list of public names (there is no __all__).
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
    field_of_Q_moduli,
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

