"""Scenario parsing and manifests: a manifest parses back to the same run.

Documents are drawn with a non-default value in every field of every
section dataclass (the eta value only under a constant schedule, the one
that reads it), each section on an application that reads it, with and
without a capacity section, on a star or on an explicit tree whose node
names span the accepted alphabet. Parsing a document, rendering its
manifest and parsing that manifest must give the same resolved echo,
``Scenario`` and ``CapacityRequest``, and the second manifest must be
byte-identical to the first. The manifest must also be the bytes that
PyYAML's pure-Python emitter writes, so a host without libyaml writes
the same manifests.
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


@st.composite
def scenario_documents(draw) -> dict:
    n_sources = draw(st.integers(2, 6))
    seed = draw(SEEDS)
    application = draw(st.sampled_from(["neural", "consensus", None]))
    doc: dict = {
        "schema_version": 1,
        "seed": seed,
        "topology": draw(st.one_of(
            st.just({"generator": "star", "sources": n_sources}), explicit_trees(n_sources)
        )),
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
    pure_python = yaml.dump({**first.resolved, "tool_version": nfcsim.__version__},
                            Dumper=yaml.SafeDumper, sort_keys=False)
    assert manifest == pure_python
    echoed = yaml.safe_load(manifest)
    for section in ("failures", "data", "eta", "neural", "capacity"):
        for key, value in doc.get(section, {}).items():
            assert echoed[section][key] == value, (section, key)
    assert echoed["output"] == doc.get("output", "results")
    if "nodes" in doc["topology"]:
        assert echoed["topology"] == {**doc["topology"], "generator": "explicit"}

    second = parse_scenario_text(manifest)
    assert second.ok, second.diagnostics
    assert second.resolved == first.resolved
    assert second.scenario == first.scenario
    assert second.capacity == first.capacity
    assert (first.scenario is None) == ("application" not in doc)
    assert (first.capacity is None) == ("capacity" not in doc)
    assert render_manifest(second) == manifest


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
