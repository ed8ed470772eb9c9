"""archon: a compiler and runtime for a small architecture notation.

Systems are described as typed component instances wired to typed
connectors; archon checks the wiring (type matching, arity, style
conformance), renders the graph, and realizes the description as running
OS processes connected by pipes, an event broker, RPC channels, and a
cross-site relay.

The package exports the functions and classes a caller drives a system
with; every other name is imported from its own module (``archon.model``,
``archon.checker`` and so on).  ``import archon`` loads only the front end
(parser, checker, model, topology).  The lowering (plan), the runtime
(runner, broker, RPC, relay, frames) and the two renderers (export,
formatter) are loaded the first time one of their names is read from the
package.
"""

import sys
from types import ModuleType

from .checker import (
    check_all,
    check_completeness,
    check_style,
    check_types,
    classify_topology,
    resolve,
)
from .diagnostics import ArchonError
from .model import attach, builtin_type_table
from .parser import parse
from .topology import classify_digraph

# home module -> the names loaded from it when one is first read
_LAZY = {
    "broker": ("BrokerClient", "EventBroker"),
    "export": ("to_dot",),
    "formatter": ("format_system",),
    "frames": ("decode", "encode"),
    "plan": ("plan", "serialize_plan"),
    "relay": ("Relay", "RelayConnection", "RelayLink", "make_site", "register_service", "resolve_route"),
    "rpc": ("RpcClient", "RpcServer"),
    "runner": ("run",),
}
_HOME = {name: home for home, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_HOME[name]}", __name__)
    value = getattr(module, "resolve" if name == "resolve_route" else name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule it loads to the package;
        # the export ``plan`` stays the function, not the module ``archon.plan``.
        if not (name == "plan" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

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
