"""Lagrangians of uniform hypergraphs and the combinatorics around them.

The package computes Lagrangians (maxima of edge-product polynomials
over the probability simplex), builds and analyzes colex graphs and
left-compressed families, and ships desk-scale verifiers for a family
of extremal claims connecting clique numbers to Lagrangian values.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package exports the union of those lists. The function
``lagrangian`` shadows its submodule as an attribute, so that module's
list is read under a private name, deleted once the package's list is
built.
"""

from ._version import VERSION as __version__
from .core import *
from .lagrangian import *
from .lagrangian import __all__ as _lagrangian_all
from .structure import *
from .theorems import *

__all__ = ["__version__", *core.__all__, *_lagrangian_all, *structure.__all__, *theorems.__all__]
del _lagrangian_all
