"""Probabilistic omnidirectional millimeter-wave path loss modeling.

The package covers the pipeline from 3-D building databases through
ray-traced LOS probability, close-in and floating-intercept path loss models,
their probability-weighted hybrid, and link outage analysis.
"""

from . import geometry, los_probability, pathloss
from .geometry import *
from .los_probability import *
from .pathloss import *

__version__ = "0.1.0"

__all__ = []
__all__ += geometry.__all__
__all__ += los_probability.__all__
__all__ += pathloss.__all__
