"""Numerical laboratory for ball truncations of group algebras.

The package enumerates word-metric balls in polynomial-growth groups,
represents group algebra elements and their ball compressions, computes the
exact ball-overlap averaging kernel, estimates Lipschitz seminorms and state
distances, and sweeps truncation radii to chart how fast the truncated state
spaces approach the full one.
"""

# Each layer's ``__all__`` is its public surface, and the package re-exports all five.
from .cayley import *  # noqa: F401, F403
from .groupalg import *  # noqa: F401, F403
from .truncation import *  # noqa: F401, F403
from .qmetric import *  # noqa: F401, F403
from .harness import *  # noqa: F401, F403

__version__ = "0.1.0"
