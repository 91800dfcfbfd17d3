import warnings

import pytest

import cicsim.computation
from cicsim.scenarios import builtin
from cicsim.simulator import run_scenario

# When a @given test fails, Hypothesis imports its patch writer, which
# imports libcst, which raises a DeprecationWarning from mypy_extensions;
# under ``filterwarnings = error`` that warning aborts the whole session
# with an internal error.  Importing it here, with that one warning
# category silenced, lets the failure report as a plain test failure and
# leaves every other warning an error.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture(scope="session")
def fixture_run():
    """Memoized (fixture name, protocol) -> AnnotatedTrace."""
    cache = {}

    def get(name, protocol):
        key = (name, protocol)
        if key not in cache:
            scen, _ = builtin(name)
            cache[key] = run_scenario(scen, protocol)
        return cache[key]

    return get


@pytest.fixture
def events_made(monkeypatch):
    """The arguments of every ``Event`` built while the test runs."""
    made = []
    real = cicsim.computation.Event

    def counting_event(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cicsim.computation, "Event", counting_event)
    return made
