"""Base class of the package's immutable value types.

A value type is a __slots__ class whose positional fields, in order, are its
__match_args__; Value gives each subclass its slot setters, in that order, as
`_setters`.  An __init__ checks its arguments and ends in one `self._init(...)`
call, which sets each field once through its setter, bypassing __setattr__.
After __init__, assigning or deleting a field raises AttributeError.  Equality
and hash go by the fields, and repr lists them in order: `ColorAction(color=3)`.
"""


class Value:
    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__match_args__)

    def _init(self, *values):
        """Set the fields, in __match_args__ order; ValueError unless there
        is one value per field."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{len(values)} values for {len(setters)} fields")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        """The field values, in constructor order."""
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._fields()

    def asdict(self) -> dict:
        """field name -> value, e.g. for a JSON report."""
        return dict(zip(self.__match_args__, self._fields()))
