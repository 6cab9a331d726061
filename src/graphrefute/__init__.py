"""Counterexample search for graph-theory conjectures.

The package scores graphs against ten conjectured inequalities (a positive
score witnesses a violation), explores tree or connected-graph space with an
adaptive Monte Carlo search, verifies candidates with exact arithmetic and
certified eigenvalue bounds, and packages the proven infinite families.
"""

__version__ = "0.1.0"
