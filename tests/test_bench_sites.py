"""Every name the bench tracer wraps still exists where its callers look it up.

``bench/tracing.py`` wraps nfcsim's functions from outside, at the module
globals and class attributes listed in its ``SITES``. A change under
``src/`` that drops or renames one of them would otherwise surface only
when the bench enters its tracer, as a ``KeyError``. The file is loaded
from its path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

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
