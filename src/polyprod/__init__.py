"""Exact homology and graded-series invariants of polyhedral products.

The package computes integral homology of the product and smash models of
Z(K;(X,A)) over arbitrary cellular pair models, evaluates the additive
decomposition formulas (subset splitting, full-subcomplex formula, per-face
join decomposition, skeleton sphere wedges), and carries the face-ring and
characteristic-matrix invariants on the algebraic side.  Everything is
integer-exact: no floating point, no probabilistic rank.  Each name is
imported from its module, e.g. `from polyprod.products import stable_splitting`.
"""

__version__ = "0.1.0"
