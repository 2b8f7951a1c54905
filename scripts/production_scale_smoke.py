#!/usr/bin/env python3
"""Production-scale smoke run: build the 160-bit-Solinas / 512-bit parameter
set, issue keys, run one blind-signing session and verify it, timing every
stage.  Everything is seeded, so two runs print identical group elements.
"""

import time

from dvbsig import scheme
from dvbsig.curve import params_for_subgroup_order
from dvbsig.rng import SeededRng
from dvbsig.session import run_local_session

SOLINAS_Q = 2**159 + 2**17 + 1


def main() -> None:
    stages: list[tuple[str, float]] = []

    def stage(label):
        stages.append((label, time.perf_counter()))

    stage("start")
    params = params_for_subgroup_order(SOLINAS_Q, b"smoke-seed", p_bits=512)
    stage("parameter search")
    print(f"q = {params.q}  ({params.q.bit_length()} bits)")
    print(f"p = {params.p}  ({params.p.bit_length()} bits)")
    print(f"cofactor = {params.cofactor}")
    assert (params.p + 1) % (12 * params.q) == 0

    rng = SeededRng("smoke-run")
    system, msk = scheme.setup(params, rng)
    signer = scheme.keygen(system, msk, b"smoke-signer")
    verifier = scheme.keygen(system, msk, b"smoke-verifier")
    stage("setup + keygen")

    outcome = run_local_session(
        system, signer, b"smoke-test asset statement", verifier.public, rng
    )
    stage("signing session")

    valid = scheme.verify(
        system,
        verifier.secret,
        signer.public,
        b"smoke-test asset statement",
        outcome.signature,
    )
    stage("verification")
    print(f"signature valid: {valid}")
    assert valid

    for (label, at), (_, prev) in zip(stages[1:], stages):
        print(f"{label:>18}: {(at - prev) * 1000:8.1f} ms")


if __name__ == "__main__":
    main()
