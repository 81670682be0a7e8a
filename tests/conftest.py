import math
import time

import numpy as np
import pytest

import dense
from contextkey import noise, protocol

# Wall-clock build time of the shared simulation fixtures, keyed by name;
# the acceptance suite asserts its runtime budget against these.
RUN_TIMES: dict[str, float] = {}


def ghz_state(num_parties: int) -> dense.StateVector:
    """(|0…0⟩ + i|1…1⟩)/√2 in the single-qudit indexing."""
    amps = np.zeros(2**num_parties, dtype=np.complex128)
    amps[0] = 1 / math.sqrt(2)
    amps[-1] = 1j / math.sqrt(2)
    return dense.StateVector(amps)


def singlet_state() -> dense.StateVector:
    """(|1⟩ − |2⟩)/√2, the mapped two-qubit singlet."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1 / math.sqrt(2)
    amps[2] = -1 / math.sqrt(2)
    return dense.StateVector(amps)


def pair_mutual_information(pairs) -> float:
    """Plug-in mutual information (bits) of (bit, bit) samples."""
    joint = np.zeros((2, 2))
    for x, y in pairs:
        joint[x, y] += 1
    return noise.binary_mutual_information(joint / joint.sum())


def seam_rounds(dim: int) -> int:
    """Rounds that fill one default block of a D-dimensional run and spill into the next."""
    return protocol.block_rounds(dim) + 50


def _timed_run(name: str, config: protocol.ProtocolConfig) -> protocol.Transcript:
    start = time.perf_counter()
    transcript = protocol.run_protocol(config)
    RUN_TIMES[name] = time.perf_counter() - start
    return transcript


@pytest.fixture(scope="session")
def mermin3_run():
    return _timed_run("mermin3_run", protocol.ProtocolConfig("mermin", 3, 100_000, seed=101))


@pytest.fixture(scope="session")
def chsh3_run():
    return _timed_run("chsh3_run", protocol.ProtocolConfig("chsh", 3, 100_000, seed=202))


@pytest.fixture(scope="session")
def mermin3_agreement_run():
    # 280k rounds put the expected key-round count above 10^4.
    return _timed_run(
        "mermin3_agreement_run", protocol.ProtocolConfig("mermin", 3, 280_000, seed=303)
    )


@pytest.fixture(scope="session")
def chsh3_agreement_run():
    return _timed_run(
        "chsh3_agreement_run", protocol.ProtocolConfig("chsh", 3, 140_000, seed=404)
    )
