"""Computation-graph model: construction, validation, level plan, min-cut.

A graph is a DAG of source, atomic, and destination nodes. Arcs point
from children toward the destination side ("upward"), so a node's
in-neighborhood is its child set. Each topology is compiled once: a
config validates on first use and keeps its report, so the parse, every
run on it, a compare's forwarding twin and ``capacity`` share one
``NfcGraph``, and with it one level plan. A config is a value: mutating
its ``roles`` or ``children`` after a build is unsupported; a changed
topology is a new config, built anew.
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
    NfcSimError,
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

    @cached_property
    def report(self) -> ValidationReport:
        """``validate_config(self)``, computed on first use and kept."""
        return validate_config(self)


@dataclass(frozen=True)
class Violation:
    error: type[NfcSimError]  # CycleDetected | RoleConflict | DanglingReference | TreeViolation
    message: str

    @property
    def code(self) -> str:
        return self.error.__name__


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    graph: NfcGraph | None = None  # built when there are no violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.code}: {v.message}" for v in self.violations)


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
        """The graph compiled once: atomic nodes grouped by (height, arity),
        lowest first, so a group reads only sources and earlier groups. A
        childless atomic node (dag mode only) has height 1 and arity 0."""
        height = [0] * self.n_nodes  # 0 for sources
        groups: dict[tuple[int, int], list[tuple]] = {}  # members: (node, children, slots)
        slot = 0
        for v in self.topo_order:
            kids = self.in_neighbors[v]
            if self.roles[v] is NodeRole.ATOMIC:
                height[v] = 1 + max((height[c] for c in kids), default=0)
                member = (v, kids, range(slot, slot + len(kids)))
                groups.setdefault((height[v], len(kids)), []).append(member)
                slot += len(kids)
        return tuple(
            LevelGroup(*(np.array(column, dtype=np.intp) for column in zip(*groups[key])))
            for key in sorted(groups)
        )

    @cached_property
    def arcs_by_name(self) -> tuple[tuple[int, int], ...]:
        """The distinct arcs, ordered by (source name, destination name)."""
        return tuple(sorted(set(self.arcs), key=lambda arc: (self.names[arc[0]], self.names[arc[1]])))

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


def _toposort(in_n: Sequence[Sequence[int]], out_n: Sequence[Sequence[int]]) -> list[int] | None:
    """Kahn's algorithm; deterministic by node index. None if cyclic."""
    indeg = [len(kids) for kids in in_n]
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in out_n[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == len(in_n) else None


def validate_config(config: TopologyConfig) -> ValidationReport:
    """Collect every invariant violation; an empty report carries the built graph."""
    problems: list[Violation] = []
    if config.mode not in ("tree", "dag"):
        problems.append(Violation(RoleConflict, f"unknown mode {config.mode!r}"))
        return ValidationReport(tuple(problems))
    names = tuple(config.roles)
    index = {name: i for i, name in enumerate(names)}
    for node, kids in config.children.items():
        if node not in index:
            problems.append(
                Violation(DanglingReference, f"child set declared for unknown node {node!r}")
            )
        for child in kids:
            if child not in index:
                problems.append(
                    Violation(DanglingReference, f"node {node!r} references unknown child {child!r}")
                )
    if problems:
        return ValidationReport(tuple(problems))

    arcs = tuple((index[child], index[node]) for node, kids in config.children.items() for child in kids)
    roles = tuple(config.roles.values())
    in_n: list[list[int]] = [[] for _ in names]
    out_n: list[list[int]] = [[] for _ in names]
    for u, v in arcs:
        in_n[v].append(u)
        out_n[u].append(v)

    for i, role in enumerate(roles):
        if role is NodeRole.DESTINATION and out_n[i]:
            problems.append(
                Violation(RoleConflict, f"destination {names[i]!r} has outgoing arcs")
            )
    order = _toposort(in_n, out_n)
    if order is None:
        problems.append(Violation(CycleDetected, "arc set contains a directed cycle"))

    if config.mode == "tree":
        dests = roles.count(NodeRole.DESTINATION)
        if dests != 1:
            problems.append(
                Violation(TreeViolation, f"tree mode requires exactly one destination, got {dests}")
            )
        for i, role in enumerate(roles):
            if role is not NodeRole.DESTINATION and len(out_n[i]) != 1:
                problems.append(
                    Violation(
                        TreeViolation,
                        f"non-destination {names[i]!r} must have out-degree 1, got {len(out_n[i])}",
                    )
                )
            if role is NodeRole.SOURCE and in_n[i]:
                problems.append(
                    Violation(TreeViolation, f"source {names[i]!r} must be a leaf but has incoming arcs")
                )
            if role is NodeRole.ATOMIC and not in_n[i]:
                problems.append(
                    Violation(TreeViolation, f"atomic {names[i]!r} has no children in tree mode")
                )
    if problems:
        return ValidationReport(tuple(problems))
    return ValidationReport((), NfcGraph(names, roles, arcs, tuple(map(tuple, in_n)),
                                         tuple(map(tuple, out_n)), tuple(order), config.mode))


def build_graph(config: TopologyConfig) -> NfcGraph:
    """The config's one graph; raises the first violation's error type."""
    report = config.report
    if not report.ok:
        raise report.violations[0].error(str(report))
    return report.graph


def _max_flow(n_nodes: int, arcs: Iterable[tuple[int, int]], source: int, sink: int) -> int:
    """Edmonds-Karp over unit-capacity arcs; each repeat of an arc adds one unit."""
    capacity: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in arcs:
        if (u, v) not in capacity:
            capacity[(u, v)] = 0
            capacity.setdefault((v, u), 0)
            adj[u].append(v)
            adj[v].append(u)
        capacity[(u, v)] += 1

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
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(capacity[arc] for arc in path)
        for u, v in path:
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] += bottleneck
        flow += bottleneck


def message_min_cut(g: NfcGraph, dest: int) -> int:
    """Max number of per-generation source symbols deliverable to dest.

    Max flow over unit-capacity arcs (Edmonds-Karp) from a synthetic
    super-source joined to every source by one unit arc: each source
    originates one symbol per generation, so a source with no path to
    dest contributes nothing. Returns 0 when no source reaches dest.
    """
    if g.roles[dest] is not NodeRole.DESTINATION:
        raise RoleConflict(f"{g.names[dest]!r} is not a destination")
    super_source = g.n_nodes
    arcs = list(g.arcs) + [(super_source, s) for s in g.sources]
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
    """Full balanced in-tree; n_sources must be a power of branching, at least 2."""
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if n_sources < 2:
        raise ValueError(f"a balanced tree needs at least 2 sources, got {n_sources}")
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
    if n_relays < 0:
        raise ValueError("n_relays must be >= 0")
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
