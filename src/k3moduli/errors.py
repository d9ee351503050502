"""Exception hierarchy shared by all modules."""


class K3ModuliError(Exception):
    """Base class for all library errors."""


class InputError(K3ModuliError):
    """Invalid mathematical input (bad discriminant, non-even lattice, ...)."""


class PrecisionError(K3ModuliError):
    """Numeric recognition could not be certified at any allowed precision."""


class NotPositiveDefinite(InputError):
    pass


class BadDiscriminant(InputError):
    pass


class DiscriminantTooLarge(InputError):
    """|D| beyond classgroup.MAX_ABS_DISC."""


class DiscriminantMismatch(InputError):
    pass


class NotPrimitive(InputError):
    pass


class ClassNotInGroup(InputError):
    pass


class FieldMismatch(InputError):
    pass


class BadConductor(InputError):
    pass


class DegenerateLattice(InputError):
    pass


class NotEven(InputError):
    pass


class NotNearInteger(PrecisionError):
    pass


class PrecisionExhausted(PrecisionError):
    pass


class ResolventDegenerate(PrecisionError):
    pass
