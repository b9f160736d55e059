"""Workbench for single-qubit POVM contextuality.

Builds the two antipodal measurement families, decides noncontextual
colorability of their element-context structure, constructs and audits
Naimark dilations (including the one-to-one extension impossibility), and
simulates the noncontextual hidden-variable model of the dilated
measurements.
"""

from .bloch import (
    ATOL,
    BlochVector,
    VertexSet,
    dodecahedron_vertices,
    hexagon_vertices,
    inscribed_cubes,
    projector_from_bloch,
)
from .dilation import (
    AuditEntry,
    ConstraintGraph,
    ContradictionCertificate,
    DilationReport,
    DilationScheme,
    count_consistent_slot_assignments,
    extension_audit,
    one_to_one_feasibility,
    partial_trace_over_ancilla,
    povm_contribution,
    sequential_dilation,
    shuffle_identity_check,
    validate_certificate,
    verify_dilation,
)
from .hv import (
    HiddenVariable,
    SimulationReport,
    bell_marginal_estimate,
    bell_outcome,
    noncontextual_value_map,
    sample_hidden_variable,
    simulate_povm,
)
from .ks import (
    ColorabilityVerdict,
    ContextHypergraph,
    ParityObstruction,
    enumerate_assignments,
    parity_obstruction,
    parse_hypergraph,
)
from .povm import (
    PovmElement,
    PovmFamily,
    born_probabilities,
    born_probability,
    cabello_family,
    check_completeness,
    nakamura_family,
)

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
    "bell_outcome",
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
    "partial_trace_over_ancilla",
    "povm_contribution",
    "projector_from_bloch",
    "sample_hidden_variable",
    "sequential_dilation",
    "shuffle_identity_check",
    "simulate_povm",
    "validate_certificate",
    "verify_dilation",
]
