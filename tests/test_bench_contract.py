"""The benchmark under perfbench/ wraps named functions and methods of the
package; a refactor that drops or moves one breaks every traced run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.trace import TARGETS  # noqa: E402


def test_traced_names_exist_on_their_owners():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"
