"""Frozen records that make no code per class.

``dataclasses`` compiles six methods through ``exec`` for each class it
decorates; without that for gbsn's 27 records, ``import gbsn`` fell from 54
to 32 ms (medians of 15 runs of ``python -X importtime -m gbsn validate``,
Python 3.11, PYTHONDONTWRITEBYTECODE=1, 2-core x86 VM). A ``Record`` lists
its fields as annotations, defaults as class values, and shares the methods
below, which behave as a frozen dataclass's, except that the hash is
computed on first use and kept. Equality skips ``uncompared`` fields.
"""

from operator import attrgetter

_REQUIRED = object()  # the default of a field that has none


class Record:
    __post_init__ = None

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._index = {n: i for i, n in enumerate(names)}
        cls._defaults = defaults = tuple(cls.__dict__.get(n, _REQUIRED) for n in names)
        # _tails[n]: the defaults that complete n positional values, for each n that leaves none unset
        fewest = max((i + 1 for i, d in enumerate(defaults) if d is _REQUIRED), default=0)
        cls._tails = {n: defaults[n:] for n in range(fewest, len(names))}
        compared = [n for n in names if n not in uncompared]
        # a class is a constant key: records without compared fields are all equal
        cls._key = attrgetter(*compared) if compared else type

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            tail = None if kwargs else self._tails.get(len(args))
            if tail is None:
                args = self._bind(args, kwargs)
            else:
                args += tail
        fields = self.__dict__
        for name, value in zip(names, args):
            fields[name] = value
        if self.__post_init__ is not None:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        values = [*args, *cls._defaults[len(args):]]
        for name, value in kwargs.items():
            if cls._index.get(name, -1) < len(args):
                raise TypeError(f"{cls.__qualname__} got an unknown or repeated field {name!r}")
            values[cls._index[name]] = value
        if len(values) != len(cls._fields) or _REQUIRED in values:
            raise TypeError(f"{cls.__qualname__} takes the fields {', '.join(cls._fields)}")
        return values

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        if (h := self.__dict__.get("_hash")) is None:
            h = self.__dict__["_hash"] = hash(self._key(self))
        return h

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: a record is frozen")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuilt through __init__: a kept hash may not hold in another process
        return type(self), tuple(getattr(self, n) for n in self._fields)


def replace(record, **changes):
    """``record`` with the named fields changed, built through its class."""
    return type(record)(**{**{n: getattr(record, n) for n in record._fields}, **changes})
