"""Graph similarity via spectral moment matrices.

Represents each graph by the Hankel moment matrix of its adjacency spectrum
in the uniform vector state, and measures graph distance as a distance
between these positive semidefinite matrices. Includes exact spectral-measure
oracles, competing baseline methods, and clustering/classification harnesses.

Each module's ``__all__`` declares its public names; the package re-exports
them all.
"""

__version__ = "0.1.0"

from .baselines import *
from .experiments import *
from .graphs import *
from .hankel import *
from .learn import *
from .measures import *
from .metrics import *
from .moments import *
