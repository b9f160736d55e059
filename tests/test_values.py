"""Value semantics of the thirteen value types, one built-in instance each.

Every type compares, hashes, shows and pickles by its fields in declaration
order, as a frozen dataclass does: equal to a fresh construction from the
same fields, never to an instance of another class with the same values,
immutable, and hashable exactly when every field is. Each type is built
from its one field list, ``_fields``, and a call that does not bind every
field exactly once raises ``TypeError``.
"""

import inspect
import pickle

import pytest

from qcontext import (
    BlochVector,
    ContextHypergraph,
    HiddenVariable,
    enumerate_assignments,
    extension_audit,
    hexagon_vertices,
    nakamura_family,
    one_to_one_feasibility,
    sequential_dilation,
    simulate_povm,
    verify_dilation,
)

Z = BlochVector(0.0, 0.0, 1.0)


def _hypergraph():
    return ContextHypergraph.from_contexts(nakamura_family().contexts)


def _schemes():
    family = nakamura_family()
    return [sequential_dilation(family, i) for i in range(len(family.contexts))]


#: (factory, field names in declaration order, hashable).
VALUES = {
    "BlochVector": (lambda: hexagon_vertices()["B+"], ("x", "y", "z"), True),
    "PovmElement": (lambda: nakamura_family().elements["A+"], ("label", "weight", "direction"), True),
    "PovmFamily": (nakamura_family, ("name", "elements", "contexts"), True),
    "ContextHypergraph": (_hypergraph, ("elements", "contexts"), True),
    "ParityObstruction": (
        lambda: enumerate_assignments(_hypergraph()).obstruction,
        ("context_count", "incidence_multiplicity"),
        True,
    ),
    "ColorabilityVerdict": (
        lambda: enumerate_assignments(ContextHypergraph.from_contexts([("a", "b"), ("b", "c")])),
        ("colorable", "valid_count", "total_assignments", "witness", "obstruction"),
        False,  # the witness is a dict
    ),
    "HiddenVariable": (lambda: HiddenVariable(1, hexagon_vertices()["C-"]), ("lam", "m"), True),
    "SimulationReport": (
        lambda: simulate_povm(nakamura_family(), 1, Z, 2000, seed=3),
        ("family", "context_index", "state", "samples", "seed", "labels", "counts",
         "frequencies", "born", "z_scores", "boundary_count"),
        True,
    ),
    "DilationScheme": (
        lambda: _schemes()[2],
        ("ancilla_dim", "context_index", "projectors"),
        True,
    ),
    "DilationReport": (
        lambda: verify_dilation(_schemes()[0], nakamura_family(), 0),
        ("context_index", "element_residuals", "orthogonality_residual", "completeness_residual"),
        False,  # the element residuals are a dict
    ),
    "AuditEntry": (
        lambda: extension_audit(nakamura_family(), _schemes())[-1],
        ("label", "context_indices", "equal", "max_difference"),
        True,
    ),
    "CertificateStep": (
        lambda: one_to_one_feasibility(nakamura_family()).steps[-1],
        ("index", "rule", "premises", "conclusion"),
        True,
    ),
    "ContradictionCertificate": (
        lambda: one_to_one_feasibility(nakamura_family()),
        ("family", "element", "steps"),
        True,
    ),
}


@pytest.fixture(params=sorted(VALUES))
def case(request):
    factory, fields, hashable = VALUES[request.param]
    value = factory()
    assert type(value).__name__ == request.param
    return value, fields, hashable


def _values(value, fields):
    return [getattr(value, name) for name in fields]


def test_equal_to_a_fresh_construction(case):
    value, fields, _ = case
    cls = type(value)
    assert value == cls(*_values(value, fields))
    assert value == cls(**dict(zip(fields, _values(value, fields))))
    assert not value != cls(*_values(value, fields))


def test_unequal_to_another_class_with_the_same_fields(case):
    value, fields, _ = case
    lookalike = type("Lookalike", (type(value),), {})(*_values(value, fields))
    assert value != lookalike and lookalike != value
    assert value != tuple(_values(value, fields))


def test_hash_follows_the_fields(case):
    value, fields, hashable = case
    fresh = type(value)(*_values(value, fields))
    if hashable:
        assert hash(value) == hash(fresh)
        assert len({value, fresh}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_fields_cannot_be_assigned_or_deleted(case):
    value, fields, _ = case
    before = repr(value)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert repr(value) == before


def test_repr_lists_the_fields_in_order(case):
    value, fields, _ = case
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_pickle_round_trip(case):
    value, _, _ = case
    loaded = pickle.loads(pickle.dumps(value))
    assert type(loaded) is type(value)
    assert loaded == value
    assert repr(loaded) == repr(value)


def test_construction_binds_every_field_once(case):
    value, fields, _ = case
    cls, values = type(value), _values(value, fields)
    calls = {
        "missing field": lambda: cls(*values[:-1]),
        "extra positional value": lambda: cls(*values, None),
        "unknown keyword": lambda: cls(*values, extra=None),
        "repeated field": lambda: cls(*values, **{fields[0]: values[0]}),
        "missing keyword": lambda: cls(**dict(zip(fields[1:], values[1:]))),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError):
            call()
            pytest.fail(name)


#: The types that validate their fields and so keep their own __init__.
VALIDATING = {
    "BlochVector", "PovmElement", "PovmFamily", "ContextHypergraph", "DilationScheme",
    "HiddenVariable",
}


def test_own_init_takes_the_fields_in_order(case):
    # __reduce__ rebuilds positionally, so the parameters must be _fields.
    value, fields, _ = case
    cls = type(value)
    assert ("__init__" in vars(cls)) == (cls.__name__ in VALIDATING)
    if cls.__name__ in VALIDATING:
        assert list(inspect.signature(cls).parameters) == list(fields)


def test_slots_hold_the_fields(case):
    value, fields, _ = case
    cls = type(value)
    assert "__slots__" in vars(cls)
    assert set(fields) <= set(cls.__slots__)
    assert hasattr(value, "__dict__") == (cls.__name__ == "PovmElement")


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: hexagon_vertices()["A+"], "BlochVector(x=0.0, y=0.0, z=1.0)"),
        (
            lambda: nakamura_family().elements["A+"],
            "PovmElement(label='A+', weight=Fraction(1, 2), "
            "direction=BlochVector(x=0.0, y=0.0, z=1.0))",
        ),
        (
            lambda: enumerate_assignments(_hypergraph()).obstruction,
            "ParityObstruction(context_count=3, incidence_multiplicity=2)",
        ),
        (
            lambda: enumerate_assignments(_hypergraph()),
            "ColorabilityVerdict(colorable=False, valid_count=0, total_assignments=64, "
            "witness=None, obstruction=ParityObstruction(context_count=3, "
            "incidence_multiplicity=2))",
        ),
        (
            lambda: HiddenVariable(0, hexagon_vertices()["A-"]),
            "HiddenVariable(lam=0, m=BlochVector(x=0.0, y=0.0, z=-1.0))",
        ),
        (
            lambda: extension_audit(nakamura_family(), _schemes())[0],
            "AuditEntry(label='A+', context_indices=(0, 1), equal=True, max_difference=0.0)",
        ),
        (
            lambda: one_to_one_feasibility(nakamura_family()).steps[0],
            "CertificateStep(index=1, rule='orthogonality-from-shared-context', "
            "premises=('context:1',), conclusion='members of context 1 are mutually "
            "orthogonal: P[A+], P[A-], P[B+], P[B-], F1')",
        ),
    ],
    ids=["BlochVector", "PovmElement", "ParityObstruction", "ColorabilityVerdict",
         "HiddenVariable", "AuditEntry", "CertificateStep"],
)
def test_pinned_repr(build, expected):
    assert repr(build()) == expected
