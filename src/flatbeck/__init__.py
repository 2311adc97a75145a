"""Exact rational geometry toolkit: flats, partition costs, discrete measures,
stability certificates, thin-graph verification and discrete Beck dichotomies.

All set memberships, ranks, minors, masses, distances and boxes are
computed over Q (on integers or ``fractions.Fraction``); floating point
appears only in exponent fits and reported ratios, masses and constants.
"""

from fractions import Fraction

from .flats import AffineFlat
from .flatcollect import FlatCollection
from .measures import DiscreteMeasure
from .stability import StableFrame
from .thin import ThinGraph
from .beck import PointConfig

__version__ = "0.1.0"

__all__ = [
    "AffineFlat",
    "DiscreteMeasure",
    "FlatCollection",
    "Fraction",
    "PointConfig",
    "StableFrame",
    "ThinGraph",
    "__version__",
]
