"""The frozen-record base of the package's value types.

It gives them what ``@dataclass(frozen=True)`` gave without importing
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and generates
six methods per class: start-up cost that every CLI process would pay.
"""


class Record:
    """Base of a frozen record whose fields are its class annotations.

    The fields' order is the constructor's argument order, and a field
    given a value in the class body takes it as its default.  As with a
    frozen dataclass, a record is built by position or keyword and runs
    ``__post_init__``, if the class has one, after its fields are set; it
    equals only a record of its own class with equal fields, hashes the
    tuple of its fields, prints as ``Name(field=value, ...)`` and refuses
    assignment and deletion with AttributeError.  Instances keep their
    ``__dict__``, so ``__post_init__`` may set fields and private caches
    with ``object.__setattr__``, and pickle and copy work as for any
    object.  Ordering, ``__match_args__`` and the ``dataclasses`` helpers
    are not provided.
    """

    def __init_subclass__(cls):
        own = cls.__dict__
        cls._fields = fields = tuple(own.get("__annotations__", ()))
        # One generated __init__ per class, so arguments bind in C.  It sets
        # each field with object.__setattr__, as a dataclass does: a write
        # through self.__dict__ would build a dict that slows every later
        # attribute read of the instance.
        body = "".join(f"\n set(self, {f!r}, {f})" for f in fields)
        post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):{body}{post}\n pass", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = tuple(own[f] for f in fields if f in own)
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
