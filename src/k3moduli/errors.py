"""Exception hierarchy shared by all modules: one class per way a caller
reacts.  The CLI exits with code 3 on PrecisionError and 2 on any other
K3ModuliError; moduli retries the two certificate failures at more digits."""


class K3ModuliError(Exception):
    """Base class for all library errors; raised itself for a broken
    invariant or a failed exact check."""


class InputError(K3ModuliError):
    """Invalid input (bad discriminant, non-even lattice, ...), refused
    before any work."""


class PrecisionError(K3ModuliError):
    """Numeric recognition could not be certified at any allowed precision."""


class NotNearInteger(PrecisionError):
    """A value is not certified near an integer at this precision."""


class TracesNotApart(PrecisionError):
    """The coset traces are not certified distinct at this precision."""
