"""Opinion dynamics on two-layer multiplex networks.

Library + CLI lab for the merged (blended weights) and switching (periodic
schedule) coordination models: transition matrices, stationary
distributions, SLEM bounds, perturbation stability, and a config-driven
experiment harness.

Each public name has one import path, its defining module (for instance
`from oplex.switching import analyze`); importing the package itself
imports none of them.
"""

__version__ = "0.1.0"
