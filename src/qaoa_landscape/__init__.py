"""Depth-1 QAOA landscapes from solution-space structure.

The package evaluates success-probability landscapes of depth-1 QAOA
circuits whose cost operator projects onto a target set, approximates the
ensemble-expected landscape from Hamming-distance statistics alone, and
compares a non-iterative pipeline (optimise once per problem, sample every
instance at the shared angles) against per-instance optimisation.

Each name is imported from the module that defines it, for example
`qaoa_landscape.landscape.f1`.
"""
