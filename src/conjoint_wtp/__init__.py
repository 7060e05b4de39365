"""Choice-based conjoint analysis toolkit.

Simulates heterogeneous consumer choice surveys, fits a hierarchical
Bayesian logit with a built-in gradient-based NUTS sampler, turns posterior
draws into dollar willingness-to-pay distributions, and computes a
bundle's revenue curve and its revenue-maximizing price by quadrature.
"""

__version__ = "0.1.0"
