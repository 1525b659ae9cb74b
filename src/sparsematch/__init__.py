"""Local sparsification for stochastic bipartite matching.

Arriving requests prune their compatibility sets to a budget of k edges using
only the demand distribution; a central coordinator then matches the sparse
subgraph.  The package provides the guided fixed-size sampler and baseline
strategies, exact and Monte Carlo fractional solutions of the expected
instance, closed-form preservation guarantees, synthetic adversarial
benchmark families, a taxi-trip pipeline, and a seeded experiment harness.

The modules are the API (``sparsematch.harness``, ``sparsematch.varopt``,
...); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
