"""Space-time P1 finite elements for stochastic p-Laplace systems.

The package discretizes vector-valued p-Laplace evolution systems with
multiplicative or additive noise: piecewise linear elements in space,
implicit Euler steps on deterministic or random time grids, each step
solved as a convex minimization.  A Monte-Carlo harness measures the
space-time error between nested discretizations of the same Brownian
path and estimates the convergence rate with a finite-reference bias
correction.
"""

__version__ = "0.1.0"
