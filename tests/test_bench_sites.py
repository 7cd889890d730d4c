"""Every name the bench tracer wraps still exists where its callers look it up.

``bench/tracing.py`` wraps nfcsim's functions from outside, at the module
globals and class attributes listed in its ``SITES``. A change under
``src/`` that drops or renames one of them would otherwise surface only
when the bench enters its tracer, as a ``KeyError``. A name that still
exists but is no longer what the product calls would read 0 instead, so
the evaluator's probe is also run under the tracer. The file is loaded
from its path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from nfcsim import engine
from nfcsim.graph import star_topology

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SITES = [(name, *site) for name, sites in tracing.SITES.items() for site in sites]


@pytest.mark.parametrize("name, module_name, path", SITES)
def test_traced_site_resolves_to_a_callable(name, module_name, path):
    owner, attr = tracing._resolve(module_name, path)
    assert attr in owner.__dict__, f"{name}: {module_name}.{path} is not defined there"
    assert callable(owner.__dict__[attr]), f"{name}: {module_name}.{path} is not callable"


def run_consensus_scenario():
    engine.run_scenario(engine.Scenario(topology=star_topology(3), application="consensus", generations=5))


@pytest.mark.parametrize("run", [run_consensus_scenario])
def test_the_evaluator_probes_read_the_consensus_evaluator(run):
    """The probe on ``ConfiguredNetwork.evaluate`` counts the evaluator that
    consensus runs; a rename would leave it reading 0."""
    with tracing.Tracer() as tracer:
        run()
    assert tracer.stats["afc.ConfiguredNetwork.evaluate"][0] > 0
    assert tracer.stats["afc.eval_dafc"][0] > 0
