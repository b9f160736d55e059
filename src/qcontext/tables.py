"""Plain constants and the value-type base: the built-in context tables, the
sample ceiling and ``Frozen``.

The CLI checks ``--model``, ``--context`` and ``--samples`` against these
and builds the ``ks-search --model`` hypergraph from them without building a
family: a usage error never executes ``povm``, and ``ks-search --model``
executes neither ``bloch`` nor ``povm``. ``povm`` builds the two families
from the same rows, and ``hv`` enforces the same ceiling.

Every layer's value types derive from ``Frozen``, kept here because every
layer can import this module at no cost: it imports only ``operator``, which
``argparse``, ``json`` and ``fractions`` load anyway. A frozen dataclass
would cost each process the import of the dataclass module (which imports
``inspect``) and an ``exec`` of every generated method.
"""

from operator import attrgetter

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


class Frozen:
    """An immutable record of the fields named in ``_fields``, compared,
    hashed, shown and pickled by their values in that order, as a frozen
    dataclass is: equal only to an instance of the same class, hashable when
    every field is, and ``AttributeError`` on any assignment or deletion.

    A subclass writes its own ``__init__``, which validates its arguments and
    sets each field with ``object.__setattr__``. It declares ``__slots__``
    unless a ``cached_property`` needs an instance ``__dict__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # The field tuple, read by one C-level getter per class, called as
        # self._values(self); a getter of one name returns the bare value.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through __init__, which re-validates; cached values are dropped.
        return self.__class__, self._values(self)
