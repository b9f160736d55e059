"""Value semantics of the thirteen value types, one built-in instance each.

Every type compares, hashes, shows and pickles by its fields in declaration
order, as a frozen dataclass does: equal to a fresh construction from the
same fields, never to an instance of another class with the same values,
immutable and hashable. A mapping field is a read-only view of the value's
own copy. Each type is built from its one field list, ``_fields``, and a
call that does not bind every field exactly once raises ``TypeError``.
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


#: (factory, field names in declaration order).
VALUES = {
    "BlochVector": (lambda: hexagon_vertices()["B+"], ("x", "y", "z")),
    "PovmElement": (lambda: nakamura_family().elements["A+"], ("label", "weight", "direction")),
    "PovmFamily": (nakamura_family, ("name", "elements", "contexts")),
    "ContextHypergraph": (_hypergraph, ("elements", "contexts")),
    "ParityObstruction": (
        lambda: enumerate_assignments(_hypergraph()).obstruction,
        ("context_count", "incidence_multiplicity"),
    ),
    "ColorabilityVerdict": (
        lambda: enumerate_assignments(ContextHypergraph.from_contexts([("a", "b"), ("b", "c")])),
        ("colorable", "valid_count", "total_assignments", "witness", "obstruction"),
    ),
    "HiddenVariable": (lambda: HiddenVariable(1, hexagon_vertices()["C-"]), ("lam", "m")),
    "SimulationReport": (
        lambda: simulate_povm(nakamura_family(), 1, Z, 2000, seed=3),
        ("family", "context_index", "state", "samples", "seed", "labels", "counts",
         "frequencies", "born", "z_scores", "boundary_count"),
    ),
    "DilationScheme": (
        lambda: _schemes()[2],
        ("ancilla_dim", "context_index", "projectors"),
    ),
    "DilationReport": (
        lambda: verify_dilation(_schemes()[0], nakamura_family(), 0),
        ("context_index", "element_residuals", "orthogonality_residual", "completeness_residual"),
    ),
    "AuditEntry": (
        lambda: extension_audit(nakamura_family(), _schemes())[-1],
        ("label", "context_indices", "equal", "max_difference"),
    ),
    "CertificateStep": (
        lambda: one_to_one_feasibility(nakamura_family()).steps[-1],
        ("index", "rule", "premises", "conclusion"),
    ),
    "ContradictionCertificate": (
        lambda: one_to_one_feasibility(nakamura_family()),
        ("family", "element", "steps"),
    ),
}


@pytest.fixture(params=sorted(VALUES))
def case(request):
    factory, fields = VALUES[request.param]
    value = factory()
    assert type(value).__name__ == request.param
    return value, fields


def _values(value, fields):
    return [getattr(value, name) for name in fields]


def test_equal_to_a_fresh_construction(case):
    value, fields = case
    cls = type(value)
    assert value == cls(*_values(value, fields))
    assert value == cls(**dict(zip(fields, _values(value, fields))))
    assert not value != cls(*_values(value, fields))


def test_unequal_to_another_class_with_the_same_fields(case):
    value, fields = case
    lookalike = type("Lookalike", (type(value),), {})(*_values(value, fields))
    assert value != lookalike and lookalike != value
    assert value != tuple(_values(value, fields))


def test_hash_follows_the_fields(case):
    value, fields = case
    fresh = type(value)(*_values(value, fields))
    assert hash(value) == hash(fresh)
    assert len({value, fresh}) == 1


def test_fields_cannot_be_assigned_or_deleted(case):
    value, fields = case
    before = repr(value)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert repr(value) == before


def test_repr_lists_the_fields_in_order(case):
    value, fields = case
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_pickle_round_trip(case):
    value, _ = case
    loaded = pickle.loads(pickle.dumps(value))
    assert type(loaded) is type(value)
    assert loaded == value
    assert repr(loaded) == repr(value)


def test_construction_binds_every_field_once(case):
    value, fields = case
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
    value, fields = case
    cls = type(value)
    assert ("__init__" in vars(cls)) == (cls.__name__ in VALIDATING)
    if cls.__name__ in VALIDATING:
        assert list(inspect.signature(cls).parameters) == list(fields)


def test_slots_hold_the_fields(case):
    value, fields = case
    cls = type(value)
    assert "__slots__" in vars(cls)
    assert set(fields) <= set(cls.__slots__)
    # Derived data, such as an element's entries, is kept in slots too.
    assert not hasattr(value, "__dict__")


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


@pytest.mark.parametrize(
    "name,field",
    [("PovmFamily", "elements"), ("ColorabilityVerdict", "witness"),
     ("DilationReport", "element_residuals")],
    ids=["PovmFamily.elements", "ColorabilityVerdict.witness", "DilationReport.element_residuals"],
)
def test_mapping_field_is_read_only(name, field):
    # A changed mapping would move the hash and every later to_dict(), and
    # leave a family's recorded incidence stale.
    factory, fields = VALUES[name]
    built = factory()
    source = dict(getattr(built, field))
    value = type(built)(**{**dict(zip(fields, _values(built, fields))), field: source})
    mapping, key = getattr(value, field), next(iter(source))
    with pytest.raises(TypeError):
        mapping[key] = 7
    with pytest.raises(AttributeError):
        mapping.pop(key)
    source.clear()
    assert value == built and dict(mapping) == dict(getattr(built, field))
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded == value
    assert hash(loaded) == hash(value) == hash(built)


@pytest.mark.parametrize(
    "contexts,witness", [([("a", "b"), ("b", "c")], {"a": 0, "b": 1, "c": 0}), ([], {})],
    ids=["two-contexts", "no-elements"],
)
def test_verdict_to_dict_copies_the_witness(contexts, witness):
    verdict = enumerate_assignments(ContextHypergraph.from_contexts(contexts))
    verdict.to_dict()["witness"]["a"] = 7
    assert verdict.witness == witness
    assert verdict.to_dict()["witness"] == witness
