"""cohk: reproducing-kernel coherent spaces.

A coherent space is a set of labels z together with a positive-definite
kernel K(z, z'); everything else (lengths, angles, quantum states,
dynamics, spectra) is computed from kernel values alone.  The package is
organized as:

- :mod:`cohk.core` kernel evaluation, Gram matrices, metric axioms
- :mod:`cohk.catalog` the eight built-in spaces and the FD derivation oracle
- :mod:`cohk.quantum` finite superpositions of coherent states
- :mod:`cohk.fock` oscillator group, second quantization, Weyl operators
- :mod:`cohk.dynamics` coherent flows, ODE propagation, Poisson brackets
- :mod:`cohk.spectral` autocorrelation series, spectra, resolvents
- :mod:`cohk.cli` the ``cohk`` command-line runner

The package re-exports every public name of the six library modules, as
each module's own ``__all__`` lists them.
"""

from . import core, catalog, quantum, fock, dynamics, spectral
from .core import *
from .catalog import *
from .quantum import *
from .fock import *
from .dynamics import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [name for module in (core, catalog, quantum, fock, dynamics, spectral)
           for name in module.__all__] + ["__version__"]
