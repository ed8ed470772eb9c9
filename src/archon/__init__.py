"""archon: a compiler and runtime for a small architecture notation.

Systems are described as typed component instances wired to typed
connectors; archon checks the wiring (type matching, arity, style
conformance), renders the graph, and realizes the description as running
OS processes connected by pipes, an event broker, RPC channels, and a
cross-site relay.
"""

from .checker import (
    BUILTIN_STYLES,
    ExternalIO,
    ResolveResult,
    StyleRule,
    check_all,
    check_completeness,
    check_style,
    check_types,
    classify_topology,
    resolve,
)
from .broker import BrokerClient, EventBroker
from .diagnostics import ArchonError, Diagnostic, Severity, Span
from .export import GraphDoc, GraphEdge, GraphNode, graphdoc, load_graphdoc, to_dot, to_json
from .frames import Frame, decode, encode, read_frame, write_frame
from .model import (
    Architecture,
    PortSpec,
    RoleSpec,
    TypeTable,
    attach,
    builtin_type_table,
    compatible,
    define_component_type,
    define_connector_type,
    define_port_type,
    detach,
    validate_arity,
)
from .parser import ParseError, parse, parse_library
from .formatter import format_system
from .plan import BuildPlan, Channel, Stage, plan, serialize_plan
from .relay import (
    Relay,
    RelayConnection,
    RelayLink,
    RelayStream,
    Route,
    Site,
    make_site,
    register_service,
)
from .relay import resolve as resolve_route
from .rpc import RpcClient, RpcServer
from .runner import RunReport, run
from .topology import TopologyReport, classify_digraph

__all__ = [
    "ArchonError",
    "Architecture",
    "BUILTIN_STYLES",
    "BrokerClient",
    "BuildPlan",
    "Channel",
    "Diagnostic",
    "EventBroker",
    "ExternalIO",
    "Frame",
    "GraphDoc",
    "GraphEdge",
    "GraphNode",
    "ParseError",
    "PortSpec",
    "Relay",
    "RelayConnection",
    "RelayLink",
    "RelayStream",
    "ResolveResult",
    "RoleSpec",
    "Route",
    "RpcClient",
    "RpcServer",
    "RunReport",
    "Severity",
    "Site",
    "Span",
    "Stage",
    "StyleRule",
    "TopologyReport",
    "TypeTable",
    "attach",
    "builtin_type_table",
    "check_all",
    "check_completeness",
    "check_style",
    "check_types",
    "classify_digraph",
    "classify_topology",
    "compatible",
    "decode",
    "define_component_type",
    "define_connector_type",
    "define_port_type",
    "detach",
    "encode",
    "format_system",
    "graphdoc",
    "load_graphdoc",
    "make_site",
    "parse",
    "parse_library",
    "plan",
    "read_frame",
    "register_service",
    "resolve",
    "resolve_route",
    "run",
    "serialize_plan",
    "to_dot",
    "to_json",
    "write_frame",
]

__version__ = "0.1.0"
