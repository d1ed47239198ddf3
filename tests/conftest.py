import inspect
import sys

import pytest


@pytest.fixture
def shallow_stack():
    """Allow only 100 frames above the current depth while the test runs,
    so a search that recurses once per input element raises RecursionError
    on inputs of a few hundred elements."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    yield
    sys.setrecursionlimit(limit)
