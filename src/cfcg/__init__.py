"""Caputo fractional conjugate-gradient optimization."""

from . import engine, fraccalc, problems, tikhonov
from .engine import *
from .fraccalc import *
from .problems import *
from .tikhonov import *

__version__ = "0.1.0"

__all__ = [*engine.__all__, *fraccalc.__all__, *problems.__all__,
           *tikhonov.__all__]
