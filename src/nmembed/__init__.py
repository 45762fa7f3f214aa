"""Markovian-embedding simulator for non-Markovian open quantum systems.

Builds embedding models (direct, cascade, general M-bath), integrates the
joint monitored dynamics and the equivalent coupled block equations, and
verifies their agreement with independent oracles.

The API lives in the submodules (``nmembed.model``, ``nmembed.generators``,
``nmembed.integrators``, ``nmembed.verify``, ``nmembed.cli``); import names
from them.
"""

# The one package-level name: the benchmark's tracer test checks that it
# wraps a re-export too, through ``nmembed.gksl_rhs``.
from .generators import gksl_rhs  # noqa: F401

__version__ = "0.1.0"
