"""Immutable records and InvariantError: a leaf, importing only operator."""

from operator import attrgetter


class InvariantError(ValueError):
    """An exact identity that a computation relies on came out false.

    Raised in place of ``assert``, which ``python -O`` strips.  It is a
    ValueError, so the command line reports it as an input error.
    """


def _store(record, values):
    """Set each of the record's fields, once, to its value in ``values``.

    A constructor ends with ``_store(self, locals())``, so each field takes
    the value its parameter holds then: a constructor that normalizes a
    value rebinds the parameter first.  Other locals are not stored.  The
    record's own ``__setattr__`` refuses, so this goes round it.
    """
    for name in record._fields:
        object.__setattr__(record, name, values[name])


class Record:
    """An immutable record whose fields are its constructor's parameters.

    Each subclass writes an ``__init__`` that checks its parameters, may
    rebind one to normalize it, and ends with ``_store(self, locals())``,
    which sets each field once from the constructor's locals; the
    parameters, in order, become the class's ``_fields``.  Two records are
    equal when they are of the same class and their fields are equal, and
    equal records hash alike; ``repr`` lists the fields as
    ``Name(field=value, ...)``.  Assigning or deleting an attribute
    afterwards raises AttributeError; ``replace`` makes a changed copy.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*cls._fields)
        # The field values as a tuple, also for a single field.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def replace(self, **changes):
        """A copy with the given fields changed, checked by the constructor."""
        values = dict(zip(self._fields, self._values(self)))
        values.update(changes)
        return self.__class__(**values)
