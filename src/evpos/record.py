"""Immutable value records, set up when each class is defined with no
generated source, so importing evpos compiles no code per record."""

from __future__ import annotations

from operator import attrgetter

# marks a field that no argument gave, so its default applies
_MISSING = object()


def _initializer(names: tuple, defaults: dict, post_init):
    """The `__init__` of a record class with these fields, these defaults
    and this `__post_init__` (None for none). Each field is set by
    object.__setattr__, as a frozen dataclass sets it: a write to
    self.__dict__ would make CPython keep a separate dict, whose attribute
    reads are slower. The positional arguments are set first, in an indexed
    loop (zip() costs more than it saves on a few fields); only a call that
    leaves fields to keywords or defaults enters the second loop."""
    count, store = len(names), object.__setattr__

    def __init__(self, *args, **kwargs):
        i = 0
        try:
            for value in args:
                store(self, names[i], value)
                i += 1
        except IndexError:
            raise TypeError(
                f"{type(self).__name__}() takes {count} arguments but {len(args)} were given"
            ) from None
        if kwargs or i != count:
            for name in names[i:]:
                value = kwargs.pop(name, _MISSING)
                if value is _MISSING:
                    if name not in defaults:
                        raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
                    value = defaults[name]
                    if type(value) is dict:
                        value = value.copy()
                store(self, name, value)
            if kwargs:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected or repeated argument "
                    f"{next(iter(kwargs))!r}"
                )
        if post_init is not None:
            post_init(self)

    return __init__


def _reader(names: tuple):
    """The function that reads a record's fields as a tuple: one attrgetter
    call for two or more (it returns the bare value of a single field)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda record: tuple([getattr(record, name) for name in names])


class Record:
    """An immutable record. Its fields are its class's annotated names, less
    the ClassVars, in order after those of a base record. A value given in
    the class body is the field's default, which the class keeps in
    `_defaults`, not as a class attribute; a dict default is copied for
    each record, so no two records share one. A record is built from
    positional or keyword arguments, then its `__post_init__`, if it has
    one, runs and may set attributes with `object.__setattr__`; a record
    class defines no `__init__`. It compares and hashes as the tuple of its
    fields, and only equals a record of its own class. Its repr is
    `Name(a=1, b=2)`. Assigning or deleting an attribute raises
    AttributeError. The fields live in the instance `__dict__`, beside any
    `cached_property` values."""

    fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        names = tuple(
            name for name, kind in own.get("__annotations__", {}).items()
            if not str(kind).startswith(("ClassVar", "typing.ClassVar"))
        )
        defaults = {name: own[name] for name in names if name in own}
        for name in defaults:
            # a class value of a field's name keeps CPython from
            # specializing the reads of the field on each record
            delattr(cls, name)
        cls.fields += names
        cls._defaults = {**cls._defaults, **defaults}
        cls.__init__ = _initializer(cls.fields, cls._defaults, getattr(cls, "__post_init__", None))
        cls._values = staticmethod(_reader(cls.fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A record of the same class with these fields changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self.fields}, **changes})
