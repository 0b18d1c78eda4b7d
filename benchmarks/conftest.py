"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures at a
laptop-scale default; pass ``--repro-scale=paper`` to approach the paper's
problem sizes (slow: the paper used native Z3 on a Xeon, this repo runs a
pure-Python DPLL(T)).
"""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(config, items):
    # This hook sees every item of the session (e.g. `pytest tests
    # benchmarks`); only mark the ones that live in this directory.
    for item in items:
        if _HERE in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.benchmark)


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="laptop",
        choices=("laptop", "paper"),
        help="experiment scale: 'laptop' (default, minutes) or 'paper'",
    )


@pytest.fixture(scope="session")
def scale(request):
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def is_paper_scale(scale):
    return scale == "paper"
