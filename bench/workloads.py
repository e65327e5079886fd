"""The four benchmark workloads.

Each workload is a pure function of (seed, index) to a dcmesh
Scenario, so the same seed always gives the same inputs.  Payloads are
uniform over the full ``payload_bits=8`` range with duplicates allowed;
nothing is re-drawn to avoid a known defect, so the slot-carry and
equal-payload defects show up as failed scenarios when they occur.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PAYLOAD_RANGE = 256  # payload_bits = 8

# Strategies that need a sender payload; the others are scripted for a
# silent participant.
SENDER_STRATEGIES = ("wrong_branch", "double_branch", "mutate_message", "bad_slot_count")


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    kernel: str         # reference kernel matching the instruction mix
    pool: int           # distinct scenarios; --trace 0 times whole passes over them
    trace_pass: int     # scenarios in the untraced and traced passes of --trace 1
    setup_reps: int     # set-ups per run; setup_s is their median
    why: str
    loads: str

    def scenario(self, sim, seed: int, index: int):
        rng = random.Random(f"{self.name}|{seed}|{index}")
        return _SHAPES[self.name](sim, rng, index)


def _wide_honest(sim, rng, index):
    n = 32
    senders = sorted(rng.sample(range(n), 8))
    return sim.Scenario(
        n=n,
        senders=tuple((pid, rng.randrange(PAYLOAD_RANGE)) for pid in senders),
        seed=rng.getrandbits(64),
        max_retries=32,
    )


def _narrow_poll(sim, rng, index):
    values = [rng.randrange(PAYLOAD_RANGE) for _ in range(4)] * 2
    rng.shuffle(values)
    return sim.Scenario(n=8, senders=tuple(enumerate(values)), seed=rng.getrandbits(64))


def _disrupted(sim, rng, index):
    n = 12
    strategy = sim.STRATEGIES[index % len(sim.STRATEGIES)]
    *honest, adversary = rng.sample(range(n), 7)
    senders = [(pid, rng.randrange(PAYLOAD_RANGE)) for pid in honest]
    if strategy in SENDER_STRATEGIES:
        senders.append((adversary, rng.randrange(PAYLOAD_RANGE)))
    return sim.Scenario(
        n=n,
        senders=tuple(sorted(senders)),
        adversaries=((adversary, strategy),),
        seed=rng.getrandbits(64),
    )


def _production_small(sim, rng, index):
    return sim.Scenario(
        n=3,
        senders=tuple((pid, rng.randrange(PAYLOAD_RANGE)) for pid in range(3)),
        seed=rng.getrandbits(64),
        group="production",
        max_retries=2,
    )


_SHAPES = {
    "wide_honest": _wide_honest,
    "narrow_poll": _narrow_poll,
    "disrupted": _disrupted,
    "production_small": _production_small,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_honest", "test_medium", "interp", pool=24, trace_pass=2, setup_reps=9,
            why="test_medium n=32, 8 senders: key setup grows as n^2*budget",
            loads="keysetup, merkle",
        ),
        Workload(
            "narrow_poll", "test_medium", "interp", pool=64, trace_pass=32, setup_reps=9,
            why="test_medium n=8, every value held by two senders: re-splits",
            loads="zkp, splitter, transcript",
        ),
        Workload(
            "disrupted", "test_medium", "interp", pool=48, trace_pass=16, setup_reps=9,
            why="test_medium n=12, one scripted adversary cycling all strategies",
            loads="dcnet, splitter, sim",
        ),
        Workload(
            "production_small", "production", "modexp", pool=2, trace_pass=1, setup_reps=3,
            why="2048-bit production group, n=3, all send",
            loads="groups, zkp",
        ),
    )
}
