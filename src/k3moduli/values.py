"""Immutable value types: namedtuples that equal only their own class.

A value type is declared as

    class CMPoint(Value, namedtuple("CMPoint", "a b disc")):
        __slots__ = ()

Value comes first, so its comparisons take precedence over the tuple's.  The
namedtuple gives the constructor (keywords and defaults too), the field
reads, the repr CMPoint(a=1, b=0, disc=-4) and _replace; a value still
unpacks, indexes and orders like a tuple.  __slots__ = () keeps instances
free of a __dict__; a class leaves it out only when it needs one, for
cached_property.  dataclasses would serve as well at a cost: it imports
inspect and compiles each class's methods through exec, together most of
the package's import time where no bytecode is cached.
"""


class Value:
    """Equality by class and fields, a hash by fields, and no assignment.

    A plain namedtuple equals any tuple with the same items, so
    CMPoint(1, 0, 1) would equal QuadForm(1, 0, 1) and (1, 0, 1).  Equal
    values have equal fields, so the tuple's hash serves.  An instance
    __dict__ (the caches of cached_property) is never compared.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")
