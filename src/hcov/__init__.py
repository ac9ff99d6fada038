"""Harmonic group actions on finite multigraphs.

Construction and verification of harmonic actions and branched covers of
trees, maximal actions of (2,3)-generated groups, and the combinatorial
genus of the oriented surface attached to a 3-regular graph.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
