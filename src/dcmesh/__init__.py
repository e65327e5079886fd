"""Verifiable dining-cryptographers engine.

Commitment-bound DC-net rounds, zero-knowledge retransmission proofs,
optimal tree collision resolution with disruptor detection, and a
deterministic multi-party simulator with replayable transcripts.
"""

from .groups import GroupParams, commit, derive_params
from .sim import Scenario, run_scenario, verify_transcript
from .splitter import ResolutionTree
from .transcript import Transcript

__all__ = [
    "GroupParams",
    "ResolutionTree",
    "Scenario",
    "Transcript",
    "commit",
    "derive_params",
    "run_scenario",
    "verify_transcript",
]
