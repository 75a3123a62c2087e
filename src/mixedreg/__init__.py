"""Optimal control of semilinear elliptic equations with mixed
control-state constraints: P1 finite elements on smooth domains,
first-order optimality solvers, and fractional boundary-norm
diagnostics backing the regularity experiments.
"""

__version__ = "0.1.0"
