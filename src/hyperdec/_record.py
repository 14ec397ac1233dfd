"""Immutable slotted records, the base of hyperdec's value, node and report
classes.

A record's fields are its ``__slots__``, base classes first.  Each is set
once, in ``__init__``, through its slot descriptor (or
``object.__setattr__``); assigning or deleting a field afterwards raises
AttributeError.  Records of the same class are equal when their listed
fields are, the hash is that of the listed fields' tuple and the repr
shows them as keyword arguments, as the generated methods of a frozen
dataclass do.  Slots named in ``_hidden`` (a node's source span) are
left out of all three; the classes that hide one take it by keyword
only.

The generic ``__init__`` here takes the listed fields positionally or by
keyword, with defaults from ``_defaults``, and then runs ``_validate``.
It costs about a microsecond a record, which is nothing for a record
built once per command line or per digit place, as NumContext and
Position are.  ``_setters`` holds each class's slot setters in field
order, for the positional fast path of ``FuncExpr``, which builds every
expression node.  Four classes write their own ``__init__``, each for a
reason: HyperValue, built once per operation, with its own ``__eq__``
and ``__hash__``; Token, built about twenty times per command line,
where the generic path more than doubles its cost; ``Const``, which
converts its value; and ``FuncExpr``, the fast path above.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _hidden: tuple = ()
    _defaults: dict = {}
    _fields: tuple = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if name not in cls._hidden
        )
        cls.__match_args__ = cls._fields
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} arguments"
                f" but {len(args)} were given"
            )
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected or repeated"
                f" argument {next(iter(kwargs))!r}"
            )
        self._validate()

    def _validate(self) -> None:
        """Refuse bad field values; runs at the end of the generic __init__."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore the slots, which __setattr__ would refuse
        for name, value in state[1].items():
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({shown})"
