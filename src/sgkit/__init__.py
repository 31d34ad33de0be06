"""Two-outcome spin-1/2 filter toolkit: instrument model, simulation, recovery.

Names are imported from the submodules; ``import sgkit`` loads none of them.
"""

__version__ = "0.1.0"
