import sys
from pathlib import Path

import pytest

try:
    import kplane  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Make a TruncationWarning in a test under this directory an error.

    A test that expects one says so with pytest.warns or a filterwarnings
    mark; the error filter is prepended, so any such mark takes precedence.
    """
    error = pytest.mark.filterwarnings("error::kplane.errors.TruncationWarning")
    for item in items:
        if item.path.is_relative_to(_HERE):
            item.add_marker(error, append=False)
