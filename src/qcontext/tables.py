"""Plain constants: the built-in context tables and the sample ceiling.

The CLI checks ``--model``, ``--context`` and ``--samples`` against these
and builds the ``ks-search --model`` hypergraph from them without building a
family: a usage error never executes ``povm``, and ``ks-search --model``
executes neither ``bloch`` nor ``povm``. ``povm`` builds the two families
from the same rows, and ``hv`` enforces the same ceiling.
"""

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
