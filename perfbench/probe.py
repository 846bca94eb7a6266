"""Set-up probe: import the workload's entry points and open a fresh store.

``python3 perfbench/probe.py <store dir>/ [--service]`` does, in a fresh
interpreter, the set-up a user pays before the first submit; the
benchmark times it from outside.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from repro import api  # noqa: E402,F401
from repro.harness.cache import open_cache  # noqa: E402

if "--service" in sys.argv[2:]:
    import repro.service  # noqa: F401

open_cache(sys.argv[1])
