"""Tier-1 runs as if networkx were absent: oplex depends on numpy alone.

A None entry in sys.modules makes any import of networkx raise ImportError.
"""

import sys

sys.modules["networkx"] = None
