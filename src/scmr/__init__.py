"""Surface-code mapping and routing toolkit.

Compiles CNOT+T circuits onto grid architectures with reserved magic-state
vertices: exact solutions through a SAT encoding, fast approximate ones
through structural/random mapping plus greedy shortest-first routing, with
benchmark generators and a ground-truth validator.
"""
from .architecture import (
    Architecture,
    ArchitectureError,
    architecture_from_json,
    architecture_to_json,
    bordered_architecture,
    center_column_architecture,
    custom_architecture,
    grid_distance,
    regular_locations,
    right_column_architecture,
)
from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    ParseError,
    T_VERTEX,
    circuit_from_gates,
    cnot,
    depth,
    interaction_chain_set,
    interaction_graph,
    parse_circuit,
    serialize_circuit,
    tgate,
    topological_layering,
)
from .mapping import (
    MappingError,
    QubitMap,
    best_of_n,
    map_from_json,
    map_to_json,
    qubit_map,
    random_map,
    struct_map,
)
from .routing import (
    GateRoute,
    Path,
    RoutingError,
    Rule,
    UnroutableGateError,
    Violation,
    free_mask,
    greedy_route,
    route_from_json,
    route_to_json,
    shortest_first,
    shortest_legal_path,
    validate,
)
from .sat import (
    CapExhausted,
    OptimalResult,
    SolverTimeout,
    decode,
    encode,
    solve,
    solve_optimal,
)

__version__ = "0.1.0"
