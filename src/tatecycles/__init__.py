"""tatecycles: exact Tate-class dimensions for abelian varieties over finite
fields, effective non-split-prime bounds, and CM elliptic-curve surveys.
Each name is imported from its module, such as ``tatecycles.tate``."""

__version__ = "0.1.0"
