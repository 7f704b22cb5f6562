"""Integral Gassmann triples and their downstream invariants.

Finite permutation groups with exact arithmetic throughout: Gassmann
pair detection and unimodular-intertwiner search, splitting-type
equivalences (arithmetic, Kronecker, weak Kronecker, ultra-coarse),
lattice transport for abelian local models, odd K-groups of rings of
integers, and degree-one homology transfer diagrams.

Each module's `__all__` is its public API, and the package republishes
them all; `catalog`'s names stay under `gassmann.catalog`.
"""

from .errors import *
from .permgroup import *
from .lattice import *
from .triples import *
from .splitting import *
from .abelext import *
from .kgroups import *
from .homology import *
from . import catalog

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
