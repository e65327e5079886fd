"""Outcome gate and deterministic cost counts for one scenario.

Honest senders must have been served: on honest workloads no VERDICT
and the RESOLVED payloads equal the payloads sent; with a scripted
adversary no honest participant is flagged and every honest payload is
delivered.  A scenario that fails this gate is a failed scenario, but
its output is not incorrect: a transcript that records an honest
sender's ban is still a true, replayable record of a protocol defect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

EXCLUDED_FROM_CAUGHT = "refuse_signature"  # opting out of key setup is legal


@dataclass
class Counts:
    """Sums over scenarios, all read from the transcripts."""

    scenarios: int = 0
    sessions: int = 0
    transmitted: int = 0
    delivered: int = 0
    honest_delivered: int = 0
    budget_slots: int = 0
    proofs_checked: int = 0
    proofs_failed: int = 0
    transcript_bytes: int = 0
    disruptors: int = 0
    caught: int = 0

    def __iadd__(self, other: "Counts") -> "Counts":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def ratios(self) -> dict:
        def share(num, den):
            return num / den if den else 0.0

        return {
            "rounds_per_msg": share(self.transmitted, self.delivered),
            "transcript_kb_per_msg": share(self.transcript_bytes / 1024, self.delivered),
            "caught_share": share(self.caught, self.disruptors),
            "keysetup.slots_used_ratio": share(self.transmitted, self.budget_slots),
            "zkp.proofs_ok_ratio": share(
                self.proofs_checked - self.proofs_failed, self.proofs_checked
            ),
            "sim.sessions_per_scenario": share(self.sessions, self.scenarios),
        }


def check_outcome(scenario, parsed, transcript_bytes: int) -> tuple[list[str], Counts]:
    """Complaints about how honest senders were served (empty when the
    gate passes), and the run's counts."""
    problems = []

    records = parsed.records
    verdicts = [r for r in records if r["type"] == "VERDICT"]
    resolved = Counter(r["payload"] for r in records if r["type"] == "RESOLVED")
    adversaries = dict(scenario.adversaries)
    honest_payloads = Counter(
        payload for pid, payload in scenario.senders if pid not in adversaries
    )
    if not adversaries:
        if verdicts:
            problems.append(f"honest run has verdicts {[(v['part'], v['reason']) for v in verdicts]}")
        if resolved != honest_payloads:
            problems.append(f"delivered {sorted(resolved.elements())} != sent "
                            f"{sorted(p for _, p in scenario.senders)}")
    else:
        flagged = {v["part"] for v in verdicts} - set(adversaries)
        if flagged:
            problems.append(f"honest participants flagged: {sorted(flagged)}")
        missing = honest_payloads - resolved
        if missing:
            problems.append(f"honest payloads not delivered: {sorted(missing.elements())}")

    summary = records[-1]
    caught = {v["part"] for v in verdicts}
    scripted = [pid for pid, strategy in scenario.adversaries if strategy != EXCLUDED_FROM_CAUGHT]
    counts = Counts(
        scenarios=1,
        sessions=summary["sessions"],
        transmitted=summary["transmitted"],
        delivered=summary["delivered"],
        honest_delivered=sum((honest_payloads & resolved).values()),
        budget_slots=sum(r["budget"] for r in records if r["type"] == "SESSION"),
        proofs_checked=summary["proofs_checked"],
        proofs_failed=summary["proofs_failed"],
        transcript_bytes=transcript_bytes,
        disruptors=len(scripted),
        caught=sum(pid in caught for pid in scripted),
    )
    return problems, counts
