"""Structure-aware per-pixel filter denoising toolkit, pure numpy.

Import names from the modules: ``structkpn.tensor``, ``structkpn.kpn``,
``structkpn.training`` and the rest. Importing the package loads none of them.
"""

__version__ = "0.1.0"
