"""Probabilistic cognitive-network inference.

Knowledge is a heterogeneous graph of concepts and bidirectional relations.
Scenes are fitted by omnidirectional matching and growth driven by probability
propagation and collapse; queries match templates completely; unexplained data
grows new tree networks.

The public API is ``__all__``: each module states its own share in its
``__all__``, and the package re-exports exactly those names.
"""
from . import core, growth, kbio, learning, lifecycle, matching, probability, query, trace
from .core import *
from .growth import *
from .kbio import *
from .learning import *
from .lifecycle import *
from .matching import *
from .probability import *
from .query import *
from .trace import *

__all__ = [
    name
    for module in (trace, core, probability, matching, growth, kbio, lifecycle, query, learning)
    for name in module.__all__
]

__version__ = "0.1.0"
