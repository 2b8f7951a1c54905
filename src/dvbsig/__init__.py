"""Identity-based strong designated verifier blind signatures over a Type-1
(symmetric) Tate pairing on the supersingular curve y^2 = x^3 + x.

A signer blindly signs a message through a three-move interactive protocol;
the resulting signature convinces exactly one designated verifier, who could
have simulated it and therefore cannot transfer the conviction to anyone
else.  The package ships the scheme, the protocol machinery, analysis tools
(reduction bounds, a performance model, the blindness witness extractor) and
a CLI driving the whole lifecycle.
"""

from .curve import CurveParams, G1Point, GTElement, generate_params, params_for_subgroup_order
from .rng import SeededRng, SystemRng
from .scheme import (
    KeyPair,
    MasterSecret,
    Signature,
    SystemParams,
    keygen,
    setup,
    simulate,
    verify,
    verify_with_identity,
)
from .session import (
    SessionOutcome,
    Transcript,
    TranscriptStore,
    run_local_session,
)

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "G1Point",
    "GTElement",
    "KeyPair",
    "MasterSecret",
    "SeededRng",
    "SessionOutcome",
    "Signature",
    "SystemParams",
    "SystemRng",
    "Transcript",
    "TranscriptStore",
    "generate_params",
    "keygen",
    "params_for_subgroup_order",
    "run_local_session",
    "setup",
    "simulate",
    "verify",
    "verify_with_identity",
    "__version__",
]
