"""Computation-graph model: construction, validation, level plan, min-cut.

A graph is a DAG of source, atomic, and destination nodes. Arcs point
from children toward the destination side ("upward"), so a node's
in-neighborhood is its child set. Graphs are immutable values after
construction; reconfiguration returns new values.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from nfcsim.errors import (
    CycleDetected,
    DanglingReference,
    NotATree,
    RoleConflict,
    TreeViolation,
)


class NodeRole(enum.Enum):
    SOURCE = "source"
    ATOMIC = "atomic"
    DESTINATION = "destination"


@dataclass(frozen=True)
class TopologyConfig:
    """Declarative topology: node roles plus each node's child set.

    ``children[v]`` lists the nodes whose arcs enter v (the
    in-neighborhood). Mode "tree" demands a rooted in-tree with leaf
    sources and a single destination; "dag" only demands acyclicity.
    """

    roles: Mapping[str, NodeRole]
    children: Mapping[str, Sequence[str]] = field(default_factory=dict)
    mode: str = "tree"

    def arcs(self) -> list[tuple[str, str]]:
        out = []
        for node, kids in self.children.items():
            for child in kids:
                out.append((child, node))
        return out


@dataclass(frozen=True)
class Violation:
    code: str  # CycleDetected | RoleConflict | DanglingReference | TreeViolation
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.code}: {v.message}" for v in self.violations)


_ERROR_TYPES = {
    "CycleDetected": CycleDetected,
    "RoleConflict": RoleConflict,
    "DanglingReference": DanglingReference,
    "TreeViolation": TreeViolation,
}


class LevelGroup(NamedTuple):
    """Atomic nodes of one height and one arity, evaluated together."""

    nodes: np.ndarray  # (k,) node ids
    children: np.ndarray  # (k, arity) child ids, in in_neighbors order
    slots: np.ndarray  # (k, arity) in-arc positions among all atomic in-arcs, topologically


@dataclass(frozen=True)
class NfcGraph:
    """Validated immutable computation graph with derived neighborhoods."""

    names: tuple[str, ...]
    roles: tuple[NodeRole, ...]
    arcs: tuple[tuple[int, int], ...]
    in_neighbors: tuple[tuple[int, ...], ...]
    out_neighbors: tuple[tuple[int, ...], ...]
    topo_order: tuple[int, ...]
    mode: str

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @cached_property
    def sources(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is NodeRole.SOURCE)

    @cached_property
    def atomics(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is NodeRole.ATOMIC)

    @cached_property
    def destinations(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is NodeRole.DESTINATION)

    @cached_property
    def level_plan(self) -> tuple[LevelGroup, ...]:
        """The tree compiled once: atomic nodes grouped by (height, arity),
        lowest first, so a group reads only sources and earlier groups."""
        if self.mode != "tree":
            raise NotATree("a level plan needs a tree-mode graph")
        height = [0] * self.n_nodes  # 0 for sources
        groups: dict[tuple[int, int], list[tuple]] = {}  # members: (node, children, slots)
        slot = 0
        for v in self.topo_order:
            kids = self.in_neighbors[v]
            if self.roles[v] is NodeRole.ATOMIC:
                height[v] = 1 + max(height[c] for c in kids)
                member = (v, kids, range(slot, slot + len(kids)))
                groups.setdefault((height[v], len(kids)), []).append(member)
                slot += len(kids)
        return tuple(LevelGroup(*map(np.array, zip(*groups[key]))) for key in sorted(groups))

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def node_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise DanglingReference(f"unknown node {name!r}") from None

    def to_config(self) -> TopologyConfig:
        children = {
            self.names[v]: [self.names[c] for c in kids]
            for v, kids in enumerate(self.in_neighbors)
            if kids
        }
        roles = {name: self.roles[i] for i, name in enumerate(self.names)}
        return TopologyConfig(roles=roles, children=children, mode=self.mode)


def _toposort(n: int, arcs: Iterable[tuple[int, int]]) -> list[int] | None:
    """Kahn's algorithm; deterministic by node index. None if cyclic."""
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        indeg[v] += 1
        out[u].append(v)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    queue = deque(ready)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == n else None


def validate_config(config: TopologyConfig) -> ValidationReport:
    """Collect every invariant violation; empty report iff buildable."""
    problems: list[Violation] = []
    if config.mode not in ("tree", "dag"):
        problems.append(Violation("RoleConflict", f"unknown mode {config.mode!r}"))
        return ValidationReport(tuple(problems))
    names = list(config.roles.keys())
    index = {name: i for i, name in enumerate(names)}
    for node, kids in config.children.items():
        if node not in index:
            problems.append(
                Violation("DanglingReference", f"child set declared for unknown node {node!r}")
            )
        for child in kids:
            if child not in index:
                problems.append(
                    Violation("DanglingReference", f"node {node!r} references unknown child {child!r}")
                )
    if problems:
        return ValidationReport(tuple(problems))

    arcs = [(index[c], index[v]) for c, v in config.arcs()]
    roles = [config.roles[name] for name in names]
    out_deg = [0] * len(names)
    in_deg = [0] * len(names)
    for u, v in arcs:
        out_deg[u] += 1
        in_deg[v] += 1

    for i, role in enumerate(roles):
        if role is NodeRole.DESTINATION and out_deg[i] > 0:
            problems.append(
                Violation("RoleConflict", f"destination {names[i]!r} has outgoing arcs")
            )
    if _toposort(len(names), arcs) is None:
        problems.append(Violation("CycleDetected", "arc set contains a directed cycle"))

    if config.mode == "tree":
        dests = [i for i, r in enumerate(roles) if r is NodeRole.DESTINATION]
        if len(dests) != 1:
            problems.append(
                Violation("TreeViolation", f"tree mode requires exactly one destination, got {len(dests)}")
            )
        for i, role in enumerate(roles):
            if role is not NodeRole.DESTINATION and out_deg[i] != 1:
                problems.append(
                    Violation(
                        "TreeViolation",
                        f"non-destination {names[i]!r} must have out-degree 1, got {out_deg[i]}",
                    )
                )
            if role is NodeRole.SOURCE and in_deg[i] != 0:
                problems.append(
                    Violation("TreeViolation", f"source {names[i]!r} must be a leaf but has incoming arcs")
                )
            if role is NodeRole.ATOMIC and in_deg[i] == 0:
                problems.append(
                    Violation("TreeViolation", f"atomic {names[i]!r} has no children in tree mode")
                )
    return ValidationReport(tuple(problems))


def build_graph(config: TopologyConfig) -> NfcGraph:
    """Validate and construct; raises the first violation's error type."""
    report = validate_config(config)
    if not report.ok:
        first = report.violations[0]
        raise _ERROR_TYPES[first.code](str(report))
    names = tuple(config.roles.keys())
    index = {name: i for i, name in enumerate(names)}
    arcs = tuple((index[c], index[v]) for c, v in config.arcs())
    n = len(names)
    in_n: list[list[int]] = [[] for _ in range(n)]
    out_n: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        in_n[v].append(u)
        out_n[u].append(v)
    order = _toposort(n, arcs)
    assert order is not None
    return NfcGraph(
        names=names,
        roles=tuple(config.roles[name] for name in names),
        arcs=arcs,
        in_neighbors=tuple(tuple(k) for k in in_n),
        out_neighbors=tuple(tuple(k) for k in out_n),
        topo_order=tuple(order),
        mode=config.mode,
    )


def validate_graph(g: NfcGraph | TopologyConfig) -> ValidationReport:
    config = g.to_config() if isinstance(g, NfcGraph) else g
    return validate_config(config)


def set_topology(g: NfcGraph, patch: TopologyConfig) -> NfcGraph:
    """Apply a declarative patch, returning a new validated graph.

    Nodes in the patch are added (or must re-declare their existing
    role); child sets in the patch replace the node's existing child
    set. The original graph is never mutated.
    """
    roles = dict(g.to_config().roles)
    for name, role in patch.roles.items():
        if name in roles and roles[name] is not role:
            raise RoleConflict(f"patch re-declares {name!r} as {role.value}, was {roles[name].value}")
        roles[name] = role
    children = {k: list(v) for k, v in g.to_config().children.items()}
    for name, kids in patch.children.items():
        children[name] = list(kids)
    merged = TopologyConfig(roles=roles, children=children, mode=patch.mode)
    return build_graph(merged)


def _max_flow(n_nodes: int, arcs: Iterable[tuple[int, int, int]], source: int, sink: int) -> int:
    """Edmonds-Karp on integer capacities."""
    capacity: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    biggest = 0
    for u, v, cap in arcs:
        if (u, v) not in capacity:
            capacity[(u, v)] = 0
            capacity.setdefault((v, u), 0)
            adj[u].append(v)
            adj[v].append(u)
        capacity[(u, v)] += cap
        biggest = max(biggest, capacity[(u, v)])

    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and capacity.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = biggest
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, capacity[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def _check_destination(g: NfcGraph, dest: int) -> None:
    if g.roles[dest] is not NodeRole.DESTINATION:
        raise RoleConflict(f"{g.names[dest]!r} is not a destination")


def min_cut(g: NfcGraph, dest: int) -> int:
    """Minimum cut separating all sources from dest, unit arc capacities.

    Computed as max flow from a synthetic super-source joined to every
    source by infinite-capacity arcs (Edmonds-Karp). Returns 0 when no
    source reaches dest.
    """
    _check_destination(g, dest)
    super_source = g.n_nodes
    infinite = len(g.arcs) + 1
    arcs = [(u, v, 1) for u, v in g.arcs]
    arcs += [(super_source, s, infinite) for s in g.sources]
    return _max_flow(g.n_nodes + 1, arcs, super_source, dest)


def message_min_cut(g: NfcGraph, dest: int) -> int:
    """Max number of per-generation source symbols deliverable to dest.

    Same construction as ``min_cut`` but the synthetic arc into each
    source has capacity one (each source originates one symbol per
    generation), so a source with no path to dest contributes nothing
    instead of inflating the cut.
    """
    _check_destination(g, dest)
    super_source = g.n_nodes
    arcs = [(u, v, 1) for u, v in g.arcs]
    arcs += [(super_source, s, 1) for s in g.sources]
    return _max_flow(g.n_nodes + 1, arcs, super_source, dest)


# -- topology generators -------------------------------------------------

def star_topology(n_sources: int) -> TopologyConfig:
    """n sources feeding one atomic relay feeding one destination."""
    roles: dict[str, NodeRole] = {f"s{i}": NodeRole.SOURCE for i in range(n_sources)}
    roles["a0"] = NodeRole.ATOMIC
    roles["d0"] = NodeRole.DESTINATION
    children = {"a0": [f"s{i}" for i in range(n_sources)], "d0": ["a0"]}
    return TopologyConfig(roles=roles, children=children, mode="tree")


def balanced_tree_topology(n_sources: int, branching: int = 2) -> TopologyConfig:
    """Full balanced in-tree; n_sources must be a power of branching."""
    if branching < 2:
        raise ValueError("branching must be >= 2")
    depth = 0
    width = n_sources
    while width > 1:
        if width % branching:
            raise ValueError(f"{n_sources} sources is not a power of branching {branching}")
        width //= branching
        depth += 1
    roles: dict[str, NodeRole] = {}
    children: dict[str, list[str]] = {}
    level_names = [f"s{i}" for i in range(n_sources)]
    for name in level_names:
        roles[name] = NodeRole.SOURCE
    for level in range(1, depth + 1):
        width = n_sources // branching**level
        next_names = []
        for i in range(width):
            name = f"d0" if level == depth else f"a{level}_{i}"
            roles[name] = NodeRole.DESTINATION if level == depth else NodeRole.ATOMIC
            children[name] = level_names[i * branching : (i + 1) * branching]
            next_names.append(name)
        level_names = next_names
    return TopologyConfig(roles=roles, children=children, mode="tree")


def chain_topology(n_relays: int) -> TopologyConfig:
    """Single source through n relays to one destination."""
    roles: dict[str, NodeRole] = {"s0": NodeRole.SOURCE}
    children: dict[str, list[str]] = {}
    prev = "s0"
    for i in range(n_relays):
        name = f"a{i}"
        roles[name] = NodeRole.ATOMIC
        children[name] = [prev]
        prev = name
    roles["d0"] = NodeRole.DESTINATION
    children["d0"] = [prev]
    return TopologyConfig(roles=roles, children=children, mode="tree")


def random_tree_topology(
    rng: np.random.Generator, n_sources: int, max_depth: int = 4
) -> TopologyConfig:
    """Random rooted in-tree with the sources as leaves.

    Internal level widths shrink randomly toward the single root; every
    atomic node gets at least one child (children are dealt round-robin
    first, then re-attached at random).
    """
    depth = int(rng.integers(2, max_depth + 1))
    widths = [n_sources]
    for _ in range(depth - 1):
        upper = max(1, widths[-1] // 2)
        widths.append(int(rng.integers(1, upper + 1)))
    widths.append(1)  # destination

    roles: dict[str, NodeRole] = {f"s{i}": NodeRole.SOURCE for i in range(n_sources)}
    children: dict[str, list[str]] = {}
    level_names = [f"s{i}" for i in range(n_sources)]
    for level, width in enumerate(widths[1:], start=1):
        is_root = level == len(widths) - 1
        names = ["d0"] if is_root else [f"a{level}_{i}" for i in range(width)]
        for name in names:
            roles[name] = NodeRole.DESTINATION if is_root else NodeRole.ATOMIC
            children[name] = []
        for i, child in enumerate(level_names):
            if i < len(names):
                parent = names[i]  # guarantee every parent one child
            else:
                parent = names[int(rng.integers(0, len(names)))]
            children[parent].append(child)
        level_names = names
    return TopologyConfig(roles=roles, children=children, mode="tree")
