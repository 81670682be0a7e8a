"""Conference-key protocols on a single qudit: simulation and analysis.

Subpackages by role: ``qmath`` (the multi-party ↔ single-qudit index map
and its error types), ``inequality`` (Mermin/CHSH statistics),
``protocol`` (round engine, sifting, keys), ``adversary`` (eavesdropper
configuration, leakage, localization), ``noise`` (channel models and key
rates), ``cli`` (command-line front end).
"""

__version__ = "0.1.0"
