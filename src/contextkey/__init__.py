"""Conference-key protocols on a single qudit: simulation and verification.

Subpackages by role: ``qmath`` (exact linear algebra and measurement),
``mapping`` (multi-party ↔ single-qudit isomorphism), ``inequality``
(Mermin/CHSH statistics), ``protocol`` (round engine, sifting, keys),
``adversary`` (eavesdropper configuration, leakage, localization), ``noise``
(channel models and key rates), ``cli`` (command-line front end).
"""

__version__ = "0.1.0"
