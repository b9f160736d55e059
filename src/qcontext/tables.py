"""Plain constants, the integer rule and the value-type base: the built-in
context tables, the sample ceiling, ``check_int`` and ``Frozen``.

The CLI checks ``--model``, ``--context`` and ``--samples`` against these
and builds the ``ks-search --model`` hypergraph from them without building a
family: a usage error never executes ``povm``, and ``ks-search --model``
executes neither ``bloch`` nor ``povm``. ``povm`` builds the two families
from the same rows, and ``hv`` enforces the same ceiling. Every count or
index argument, in the layers and the CLI's bounded flags, goes through
``check_int``; no other module tests for a bool or an exact int.

Every layer's value types derive from ``Frozen``, which builds each of them
from its one field list, ``_fields``, and holds every mapping field one way:
as a read-only view of the value's own copy, hashed as its set of items. So
every value type is immutable and hashable, and none writes its own hash or
pickling. It is kept here because every layer can import this module at no
cost: it imports only ``operator`` and ``types``, which ``argparse``,
``json`` and ``fractions`` load anyway. A frozen dataclass would cost each
process the import of the dataclass module (which imports ``inspect``) and
an ``exec`` of every generated method.
"""

from operator import attrgetter
from types import MappingProxyType

#: Letters per measurement, one row per context, for the 5x8 construction.
CABELLO_CONTEXT_LETTERS = ("ACIJ", "ADGH", "BDFJ", "BEHI", "CEFG")
#: Letters per measurement for the 3x4 construction.
NAKAMURA_CONTEXT_LETTERS = ("AB", "AC", "BC")


def _label_rows(context_letters) -> tuple[tuple[str, ...], ...]:
    # Each letter names an antipodal pair, listed plus first: A -> A+, A-.
    return tuple(
        tuple(f"{letter}{sign}" for letter in row for sign in "+-")
        for row in context_letters
    )


#: Element labels per context of each built-in model, in slot order.
MODEL_CONTEXTS = {
    "nakamura": _label_rows(NAKAMURA_CONTEXT_LETTERS),
    "cabello": _label_rows(CABELLO_CONTEXT_LETTERS),
}

#: Most samples one call may ask for. ``hv._sample`` builds its shard plan
#: whole before any work starts, so the ceiling keeps that plan (and the
#: pool's futures) at 2^15 entries; int64 counts stay far from overflow.
MAX_SAMPLES = 1 << 32


def check_int(name: str, value, low: int = 0, high: float = float("inf")) -> int:
    """``value`` if it is a Python int in [low, high], else a ``ValueError``
    naming the argument: True would run as 1, and the reports store these
    values, where json cannot write a numpy integer."""
    if value.__class__ is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


#: The field types ``Frozen`` stores as a read-only view of its own copy.
_MAPPINGS = (dict, MappingProxyType)


def _hashable(value):
    # A mapping hashes as its set of items, which agrees with ==: dicts
    # compare ignoring insertion order.
    return frozenset(value.items()) if value.__class__ is MappingProxyType else value


def _picklable(value):
    # A mappingproxy cannot be pickled; __init__ wraps the dict again.
    return dict(value) if value.__class__ is MappingProxyType else value


class Frozen:
    """An immutable record of the fields named in ``_fields``, built,
    compared, hashed, shown and pickled by their values in that order, as a
    frozen dataclass is: equal only to an instance of the same class, hashable
    when every field is, and ``AttributeError`` on any assignment or deletion.

    A ``dict`` or ``MappingProxyType`` field is stored as a read-only view of
    a copy, so neither the caller's dict nor the value's own view can change
    the value after construction. It hashes as the frozenset of its items
    and pickles as a dict; it shows as ``mappingproxy({...})``.

    ``_fields`` is the only place a subclass writes its field order, and its
    ``__slots__`` holds every field, so no value has a ``__dict__``.
    ``Frozen.__init__`` takes the fields positionally or by name and stores
    them. A subclass that validates writes an ``__init__`` whose parameters
    are ``_fields`` in order (``__reduce__`` rebuilds positionally), checks
    them, and ends in ``super().__init__`` with every field positional. What
    it derives from the fields while it checks them it keeps in slots of its
    own, set with ``object.__setattr__``; they are not part of the value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = cls._fields
        # The field tuple, read by one C-level getter per class, called as
        # self._values(self); a getter of one name returns the bare value.
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
        # Each field's slot setter, which bypasses __setattr__ as
        # object.__setattr__ does, looked up once per class.
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._bind(values, named)
        for set_field, value in zip(setters, values):
            if isinstance(value, _MAPPINGS):
                value = MappingProxyType(dict(value))
            set_field(self, value)

    def _bind(self, values, named):
        """The field values in order, from a call by name or of the wrong length."""
        fields = self._fields
        bound = dict(zip(fields, values))
        if len(values) > len(fields) or bound.keys() & named or {*bound, *named} != {*fields}:
            raise TypeError(f"{self.__class__.__qualname__}() takes each of {fields} once")
        bound.update(named)
        return [bound[name] for name in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(tuple(map(_hashable, self._values(self))))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through __init__, which re-validates and derives again.
        return self.__class__, tuple(map(_picklable, self._values(self)))
