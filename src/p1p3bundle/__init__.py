"""Exact verification toolkit for a rank-2 bundle on P1 x P3.

Subpackages: poly (exact sparse polynomials, univariate gcd, exact rank),
chow (intersection rings), chern (characteristic classes and
Riemann-Roch), cohom (cohomology tables and exact-sequence solving),
stability (slope stability), heisenberg (finite symmetry groups),
pencil (pencils of quadrics), geometry (problem-specific solvers),
claims (the verifiable-claim registry), cli (command line).
"""

__version__ = "0.1.0"
