"""Graph-to-config round trip and declarative patches, for the tests.

A built graph turns back into the ``TopologyConfig`` that builds it, so
a test can re-validate it or patch its roles and child sets and rebuild.
Nothing the simulator runs reconfigures a graph: every run uses the one
graph its scenario's config compiled.
"""

from __future__ import annotations

from nfcsim.errors import RoleConflict
from nfcsim.graph import (
    NfcGraph,
    TopologyConfig,
    ValidationReport,
    build_graph,
    validate_config,
)


def to_config(g: NfcGraph) -> TopologyConfig:
    children = {
        g.names[v]: [g.names[c] for c in kids]
        for v, kids in enumerate(g.in_neighbors)
        if kids
    }
    roles = {name: g.roles[i] for i, name in enumerate(g.names)}
    return TopologyConfig(roles=roles, children=children, mode=g.mode)


def validate_graph(g: NfcGraph | TopologyConfig) -> ValidationReport:
    config = to_config(g) if isinstance(g, NfcGraph) else g
    return validate_config(config)


def set_topology(g: NfcGraph, patch: TopologyConfig) -> NfcGraph:
    """Apply a declarative patch, returning a new validated graph.

    Nodes in the patch are added (or must re-declare their existing
    role); child sets in the patch replace the node's existing child
    set. The original graph is never mutated.
    """
    roles = dict(to_config(g).roles)
    for name, role in patch.roles.items():
        if name in roles and roles[name] is not role:
            raise RoleConflict(f"patch re-declares {name!r} as {role.value}, was {roles[name].value}")
        roles[name] = role
    children = {k: list(v) for k, v in to_config(g).children.items()}
    for name, kids in patch.children.items():
        children[name] = list(kids)
    merged = TopologyConfig(roles=roles, children=children, mode=patch.mode)
    return build_graph(merged)
