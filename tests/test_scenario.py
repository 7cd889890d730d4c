"""Scenario parsing and manifests: a manifest parses back to the same run.

Documents are drawn with a non-default value in every field of every
section dataclass (the eta value only under a constant schedule, the one
that reads it), each section on an application that reads it, with and
without a capacity section, on a star, a balanced tree, a chain or an
explicit tree whose node names span the accepted alphabet. Parsing a
document, rendering its manifest and parsing that manifest must give the
same resolved echo, ``Scenario`` and ``CapacityRequest``, and the second
manifest must be byte-identical to the first. A generated topology's
manifest echoes its generator, and ``resolved`` still holds the expanded
tree. The manifest must also be the bytes that PyYAML's pure-Python
emitter writes, so a host without libyaml writes the same manifests.
"""

import csv
import io
from dataclasses import fields

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import nfcsim
from nfcsim.engine import Scenario
from nfcsim.learning.neural import MIN_MARGIN_ACCEPTANCE, margin_acceptance
from nfcsim.scenario import (
    _SCALARS,
    _SECTIONS,
    MAX_NAME_LENGTH,
    parse_scenario_text,
    render_csv,
    render_manifest,
)
from nfcsim.solvability import TARGET_PRESETS

SEEDS = st.integers(0, 2**32 - 1)
REALS = st.floats(-1e6, 1e6, allow_nan=False)
PROBABILITIES = st.floats(0.0, 1.0).filter(bool)
LENGTHS = st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(lambda v: v != [1])
PRINTABLE_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
# Spellings YAML reads as something else unless quoted.
YAML_SPECIAL = [
    "null", "~", "true", "no", "y", "1", "0x1f", "1e3", ".inf", ".nan", "<<", "-", "- a", "---",
    "...", "#c", "a #c", "'", '"', "' '", ":", "a: b", "? x", "&a", "*a", "!t", "|", ">", "%",
    "@", "`", "[", "]", "{", "}", ",", "=", " ", " a", "a ", "  x  ",
]
NODE_NAMES = st.one_of(
    st.text(PRINTABLE_ASCII, min_size=1, max_size=MAX_NAME_LENGTH), st.sampled_from(YAML_SPECIAL)
)


@st.composite
def explicit_trees(draw, n_sources: int) -> dict:
    """A tree-mode topology: sources, then atomics, then the destination.
    Atomic i takes source i as a child; every other source and atomic
    hangs under a random later non-source node."""
    n_atomics = draw(st.integers(0, n_sources))
    names = draw(st.lists(NODE_NAMES, min_size=n_sources + n_atomics + 1,
                          max_size=n_sources + n_atomics + 1, unique=True))
    sources, atomics, destination = names[:n_sources], names[n_sources:-1], names[-1]
    children: dict[str, list[str]] = {parent: [] for parent in [*atomics, destination]}
    for i, name in enumerate(sources):
        parent = atomics[i] if i < n_atomics else draw(st.sampled_from([*atomics, destination]))
        children[parent].append(name)
    for i, name in enumerate(atomics):
        children[draw(st.sampled_from([*atomics[i + 1:], destination]))].append(name)
    roles = {**dict.fromkeys(sources, "source"), **dict.fromkeys(atomics, "atomic"),
             destination: "destination"}
    return {"mode": "tree", "nodes": roles, "children": children}


# The keys each generator fills in when a document leaves them out.
GENERATOR_DEFAULTS = {"star": {}, "balanced_tree": {"branching": 2}, "chain": {"relays": 1}}


@st.composite
def topologies(draw) -> tuple[dict, int]:
    """A topology section, drawn from every generator or written out, and its source count."""
    kind = draw(st.sampled_from([*GENERATOR_DEFAULTS, "explicit"]))
    if kind == "balanced_tree":
        branching, depth = draw(st.integers(2, 4)), draw(st.integers(1, 2))
        keys = {"branching": branching} if branching != 2 or draw(st.booleans()) else {}
        return {"generator": kind, "sources": branching**depth, **keys}, branching**depth
    if kind == "chain":
        keys = draw(st.one_of(st.just({}), st.fixed_dictionaries({"relays": st.integers(0, 4)})))
        return {"generator": kind, **keys}, 1
    n_sources = draw(st.integers(2, 6))
    if kind == "star":
        return {"generator": kind, "sources": n_sources}, n_sources
    return draw(explicit_trees(n_sources)), n_sources


@st.composite
def scenario_documents(draw) -> dict:
    topology, n_sources = draw(topologies())
    seed = draw(SEEDS)
    application = draw(st.sampled_from(["neural", "consensus", None]))
    doc: dict = {
        "schema_version": 1,
        "seed": seed,
        "topology": topology,
    }
    if application is not None:
        doc["application"] = application
    if draw(st.booleans()):
        doc["output"] = draw(st.text(PRINTABLE_ASCII, max_size=200))
    failures = {
        "node_dropout_p": draw(PROBABILITIES),
        "seed": draw(SEEDS.filter(lambda s: s != seed)),
    }
    if application == "neural":
        failures["message_loss_p"] = draw(PROBABILITIES)
        # The harmonic schedule reads no value, so only a constant one sets it.
        value = draw(REALS.filter(lambda v: v != 0.5))
        doc["eta"] = draw(st.sampled_from([{"kind": "harmonic"}, {"kind": "constant", "value": value}]))
        margin = draw(
            st.floats(-1.0, n_sources / 2).filter(
                lambda m: m != 0.5 and margin_acceptance(n_sources, m) >= MIN_MARGIN_ACCEPTANCE
            )
        )
        doc["neural"] = {
            "samples": draw(st.integers(1, 1000).filter(lambda v: v != 32)),
            "epochs": draw(st.integers(1, 1000).filter(lambda v: v != 10)),
            "margin": margin,
        }
    if application == "consensus":
        doc["generations"] = draw(st.integers(1, 1000))
        doc["data"] = {
            "mean": draw(REALS.filter(bool)),
            "std": draw(st.floats(0.0, 1e6).filter(lambda v: v != 1.0)),
        }
    if application is not None:
        doc["failures"] = failures
    if application is None or draw(st.booleans()):
        linear = draw(st.booleans())  # the linear search runs over GF(2) only
        doc["capacity"] = {
            "target": draw(st.sampled_from(sorted(TARGET_PRESETS))),
            "alphabet": 2 if linear else draw(st.integers(3, 16)),
            "k_values": draw(LENGTHS),
            "l_values": draw(LENGTHS),
            "cap": draw(st.integers(1, 10**9).filter(lambda v: v != 10_000_000)),
            "function_class": "linear" if linear else "all",
        }
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=scenario_documents())
def test_manifest_round_trip(doc):
    first = parse_scenario_text(yaml.safe_dump(doc, sort_keys=False))
    assert first.ok, first.diagnostics
    manifest = render_manifest(first)
    echoed = yaml.safe_load(manifest)
    topology = first.generator_echo or first.resolved["topology"]  # the manifest's, not resolved's
    pure_python = yaml.dump({**first.resolved, "topology": topology, "tool_version": nfcsim.__version__},
                            Dumper=yaml.SafeDumper, sort_keys=False)
    assert manifest == pure_python
    for section in ("failures", "data", "eta", "neural", "capacity"):
        for key, value in doc.get(section, {}).items():
            assert echoed[section][key] == value, (section, key)
    assert echoed["output"] == doc.get("output", "results")
    if "nodes" in doc["topology"]:
        assert echoed["topology"] == {**doc["topology"], "generator": "explicit"}
    else:  # a generated topology is echoed as its generator, defaults filled in
        generator = doc["topology"]["generator"]
        assert echoed["topology"] == {**GENERATOR_DEFAULTS[generator], **doc["topology"]}
        assert next(iter(echoed["topology"])) == "generator"

    second = parse_scenario_text(manifest)
    assert second.ok, second.diagnostics
    assert second.resolved == first.resolved
    assert second.scenario == first.scenario
    assert second.capacity == first.capacity
    assert (first.scenario is None) == ("application" not in doc)
    assert (first.capacity is None) == ("capacity" not in doc)
    assert render_manifest(second) == manifest


@pytest.mark.parametrize("topology", [
    "{generator: star, sources: 2}",
    "{generator: balanced_tree, sources: 9, branching: 3}",
    "{generator: balanced_tree, sources: 8}",
    "{generator: chain}",
    "{generator: chain, relays: 0}",
])
def test_resolved_holds_the_expanded_tree_of_a_generated_topology(topology):
    """``resolved["topology"]`` is the built tree, not the generator's echo.

    The bench's ``solvability_sweep`` set-up (``bench/workloads.py``)
    rebuilds its star from ``resolved["topology"]``'s ``nodes``,
    ``children`` and ``mode``; only the manifest echoes the generator.
    """
    loaded = parse_scenario_text(f"schema_version: 1\napplication: consensus\ntopology: {topology}\n")
    assert loaded.ok, loaded.diagnostics
    g, echo = loaded.graph, loaded.resolved["topology"]
    assert echo["mode"] == g.mode == "tree"
    assert list(echo["nodes"].items()) == [(name, role.value) for name, role in zip(g.names, g.roles)]
    children = {g.names[v]: [g.names[c] for c in kids] for v, kids in enumerate(g.in_neighbors) if kids}
    assert list(echo["children"].items()) == list(children.items())
    assert yaml.safe_load(render_manifest(loaded))["topology"] == loaded.generator_echo


def test_the_parser_reads_every_scenario_field():
    # A Scenario field outside these would always keep its default when parsed.
    read = _SCALARS.keys() | _SECTIONS.keys() | {"field"}
    assert {f.name for f in fields(Scenario)} - {"topology", "assignment"} <= read


CELLS = st.one_of(st.integers(), st.floats(), st.text(), st.sampled_from([",", '"', "a\nb", "", " "]))


@settings(max_examples=100, deadline=None)
@given(columns=st.lists(st.text(min_size=1), min_size=1, max_size=4, unique=True), data=st.data())
def test_render_csv_writes_what_dict_writer_does(columns, data):
    rows = data.draw(st.lists(st.fixed_dictionaries({c: CELLS for c in columns}), max_size=5))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert render_csv(tuple(columns), rows) == buffer.getvalue()


@pytest.mark.parametrize("columns", [("a",), ("a", "b")])
def test_render_csv_refuses_a_row_that_lacks_a_column(columns):
    with pytest.raises(KeyError):
        render_csv(columns, [dict.fromkeys(columns, 1), {**dict.fromkeys(columns[:-1], 1), "c": 2}])


@pytest.mark.parametrize("columns", [("a",), ("a", "b")])
def test_render_csv_refuses_a_row_with_a_key_beyond_the_columns(columns):
    with pytest.raises(ValueError, match="'c'"):
        render_csv(columns, [dict.fromkeys(columns, 1), {**dict.fromkeys(columns, 1), "c": 2}])
