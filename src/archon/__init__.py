"""archon: a compiler and runtime for a small architecture notation.

Systems are described as typed component instances wired to typed
connectors; archon checks the wiring (type matching, arity, style
conformance), renders the graph, and realizes the description as running
OS processes connected by pipes, an event broker, RPC channels, and a
cross-site relay.

The package exports the functions and classes a caller drives a system
with; every other name is imported from its own module (``archon.model``,
``archon.checker`` and so on).
"""

from .checker import (
    check_all,
    check_completeness,
    check_style,
    check_types,
    classify_topology,
    resolve,
)
from .broker import BrokerClient, EventBroker
from .diagnostics import ArchonError
from .export import to_dot
from .frames import decode, encode
from .model import attach, builtin_type_table
from .parser import parse
from .formatter import format_system
from .plan import plan, serialize_plan
from .relay import Relay, RelayConnection, RelayLink, make_site, register_service
from .relay import resolve as resolve_route
from .rpc import RpcClient, RpcServer
from .runner import run
from .topology import classify_digraph

__all__ = [
    "ArchonError",
    "BrokerClient",
    "EventBroker",
    "Relay",
    "RelayConnection",
    "RelayLink",
    "RpcClient",
    "RpcServer",
    "attach",
    "builtin_type_table",
    "check_all",
    "check_completeness",
    "check_style",
    "check_types",
    "classify_digraph",
    "classify_topology",
    "decode",
    "encode",
    "format_system",
    "make_site",
    "parse",
    "plan",
    "register_service",
    "resolve",
    "resolve_route",
    "run",
    "serialize_plan",
    "to_dot",
]

__version__ = "0.1.0"
