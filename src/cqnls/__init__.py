"""Dnoidal standing waves of the cubic-quintic NLS equation on periodic domains.

Library layout:

- ``elliptic``: complete elliptic integrals and Jacobi functions (AGM based).
- ``fourier``: periodic spectral differentiation and quadrature.
- ``waves``: admissibility bounds, root algebra, period map, wave construction.
- ``curve``: the fixed-period wave family, exact rates, identities, d''(omega).
- ``hill``: linearization spectra, parity counts, even solves, theta.
- ``evolve``: split-step time integration and orbital-stability experiments.
- ``cli``: command-line front end (``cqnls`` entry point).

The package re-exports the public names (``__all__``) of every module
except ``cli``.
"""

from . import curve, elliptic, errors, evolve, fourier, hill, waves
from .curve import *
from .elliptic import *
from .errors import *
from .evolve import *
from .fourier import *
from .hill import *
from .waves import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *elliptic.__all__,
    *errors.__all__,
    *fourier.__all__,
    *waves.__all__,
    *curve.__all__,
    *hill.__all__,
    *evolve.__all__,
]
