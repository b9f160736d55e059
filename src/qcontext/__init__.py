"""Workbench for single-qubit POVM contextuality.

Builds the two antipodal measurement families, decides noncontextual
colorability of their element-context structure, constructs and audits
Naimark dilations (including the one-to-one extension impossibility), and
simulates the noncontextual hidden-variable model of the dilated
measurements.

The public names are bound on first use (PEP 562), so ``import qcontext``
alone loads no layer. Reading any one of them imports all five layers and
binds every name in ``__all__``, as eager imports would: a tracer that wraps
the layers' functions finds every layer loaded and every name bound.

Only ``hv`` imports numpy, and only inside its sampling functions, so no
layer loads it at import. A qubit operator is its four complex entries and a
dilation's extended projector |k><k| (x) V is its (slot, V) pair: building
and checking the families, the Born rule, deciding colorability, building
and auditing the dilations and deriving the one-to-one certificate run
without numpy. Of the CLI's commands, only ``simulate`` loads it.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "AuditEntry",
    "BlochVector",
    "ColorabilityVerdict",
    "ConstraintGraph",
    "ContextHypergraph",
    "ContradictionCertificate",
    "DilationReport",
    "DilationScheme",
    "HiddenVariable",
    "ParityObstruction",
    "PovmElement",
    "PovmFamily",
    "SimulationReport",
    "VertexSet",
    "bell_marginal_estimate",
    "born_probabilities",
    "born_probability",
    "cabello_family",
    "check_completeness",
    "count_consistent_slot_assignments",
    "dodecahedron_vertices",
    "enumerate_assignments",
    "extension_audit",
    "hexagon_vertices",
    "inscribed_cubes",
    "nakamura_family",
    "noncontextual_value_map",
    "one_to_one_feasibility",
    "parity_obstruction",
    "parse_hypergraph",
    "sequential_dilation",
    "simulate_povm",
    "validate_certificate",
    "verify_dilation",
]

#: The layer modules, all loaded by the first read of a public name.
_LAYERS = ("bloch", "dilation", "hv", "ks", "povm")


def __getattr__(name):
    if name not in __all__ and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layers = [importlib.import_module(f"{__name__}.{layer}") for layer in _LAYERS]
    namespace = globals()
    for public in __all__:
        namespace[public] = next(
            getattr(layer, public) for layer in layers if hasattr(layer, public)
        )
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
