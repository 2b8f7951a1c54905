"""Identity-based strong designated verifier blind signatures over a Type-1
(symmetric) Tate pairing on the supersingular curve y^2 = x^3 + x.

A signer blindly signs a message through a three-move interactive protocol;
the resulting signature convinces exactly one designated verifier, who could
have simulated it and therefore cannot transfer the conviction to anyone
else.  The package ships the scheme, the protocol machinery, analysis tools
(reduction bounds, a performance model, the blindness witness extractor) and
a CLI driving the whole lifecycle.
"""

__version__ = "0.1.0"
