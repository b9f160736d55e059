"""Workbench for single-qubit POVM contextuality.

Builds the two antipodal measurement families, decides noncontextual
colorability of their element-context structure, constructs and audits
Naimark dilations (including the one-to-one extension impossibility), and
simulates the noncontextual hidden-variable model of the dilated
measurements.

The public names are bound on first use (PEP 562), so ``import qcontext``
alone loads no layer. The first read of a public name registers all five
layers in ``sys.modules`` through ``importlib.util.LazyLoader``, then executes
only the layer that defines the name (with what that layer imports) and binds
all of that layer's names here. The other layers run on the first read of one
of their attributes: a tracer that walks ``vars()`` of each registered layer
executes it then, and finds its functions where it looks for them. So
``qcontext.cabello_family()`` runs ``tables``, ``bloch`` and ``povm`` only.

Only ``hv`` imports numpy, and only inside its sampling functions, so no
layer loads it at import. A qubit operator is its four complex entries and a
dilation's extended projector |k><k| (x) V is its (slot, V) pair: building
and checking the families, the Born rule, deciding colorability, building
and auditing the dilations and deriving the one-to-one certificate run
without numpy. Of the CLI's commands, only ``simulate`` loads it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Each layer module and the public names it defines; ``__all__`` is their union.
_LAYER_NAMES = {
    "bloch": ("ATOL", "BlochVector", "dodecahedron_vertices", "hexagon_vertices"),
    "povm": ("PovmElement", "PovmFamily", "born_probabilities", "born_probability",
             "cabello_family", "check_completeness", "nakamura_family"),
    "ks": ("ColorabilityVerdict", "ContextHypergraph", "ParityObstruction",
           "enumerate_assignments", "parity_obstruction", "parse_hypergraph"),
    "dilation": ("AuditEntry", "ConstraintGraph", "ContradictionCertificate",
                 "DilationReport", "DilationScheme", "count_consistent_slot_assignments",
                 "extension_audit", "one_to_one_feasibility", "sequential_dilation",
                 "validate_certificate", "verify_dilation"),
    "hv": ("HiddenVariable", "SimulationReport", "bell_marginal_estimate",
           "noncontextual_value_map", "simulate_povm"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}
__all__ = sorted(_LAYER_OF)


def _register_layers():
    """Bind every layer here; one not imported yet goes into ``sys.modules``
    unexecuted, to run on the first read of one of its attributes."""
    namespace = globals()
    for layer in _LAYER_NAMES:
        qualified = f"{__name__}.{layer}"
        module = sys.modules.get(qualified)
        if module is None:
            spec = importlib.util.find_spec(qualified)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[qualified] = module
            spec.loader.exec_module(module)
        namespace[layer] = module


def __getattr__(name):
    layer = _LAYER_OF.get(name, name)
    if layer not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _register_layers()
    namespace = globals()
    if name in _LAYER_OF:
        module = namespace[layer]
        namespace.update((public, getattr(module, public)) for public in _LAYER_NAMES[layer])
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__, *_LAYER_NAMES})
