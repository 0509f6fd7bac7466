"""Exact chamber geometry for weighted point configurations.

Modules cover the chamber complex of the second hypersimplex and its
admissible polytopes, stability of weighted configurations and the weight
domain, boundary strata censuses for the standard compactified moduli of
pointed rational curves, strata-driven power series inversion, and beneath
them exact rationals with integer row reduction and an exact rational LP.
"""

__version__ = "0.1.0"
