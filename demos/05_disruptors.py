"""Every disruption strategy against its detection path.

Each scenario plants one scripted adversary; the simulator bans whoever
gets flagged and the surviving senders retry, so honest messages always
arrive.  Refusing to share keys at setup is the one non-offence: that
participant simply runs without pads on those edges.
"""

from dcmesh import sim

SCENARIOS = {
    "honest baseline": sim.Scenario(
        n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17), (4, 38)), seed=3
    ),
    "bad_pad (breaks the commitment product)": sim.Scenario(
        n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17), (4, 38)),
        adversaries=((3, "bad_pad"),), seed=3,
    ),
    "mutate_message (retransmits a shifted message)": sim.Scenario(
        n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
        adversaries=((0, "mutate_message"),), seed=3,
    ),
    "double_branch (re-injects into the other branch)": sim.Scenario(
        n=4, senders=((0, 5), (1, 10), (2, 30), (3, 40)),
        adversaries=((0, "double_branch"),), seed=3,
    ),
    "late_injection (new message mid-tree)": sim.Scenario(
        n=4, senders=((0, 9), (1, 50), (2, 120)),
        adversaries=((3, "late_injection"),), seed=3,
    ),
    "refuse_proof (withholds proofs)": sim.Scenario(
        n=3, senders=((0, 9), (1, 50)), adversaries=((2, "refuse_proof"),), seed=3,
    ),
    "wrong_branch (splits against the rule)": sim.Scenario(
        n=2, senders=((0, 10), (1, 40)), adversaries=((1, "wrong_branch"),), seed=3,
    ),
    "bad_slot_count (claims two messages)": sim.Scenario(
        n=3, senders=((0, 10), (1, 20), (2, 7)),
        adversaries=((2, "bad_slot_count"),), seed=3,
    ),
    "refuse_signature (opts out of key setup)": sim.Scenario(
        n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17), (4, 38)),
        adversaries=((2, "refuse_signature"),), seed=3,
    ),
}

for title, scenario in SCENARIOS.items():
    transcript = sim.run_scenario(scenario)
    summary = transcript.records[-1]
    verdicts = [
        f"P{r['part']}: {r['reason']} at {r['where']}"
        for r in transcript.records
        if r["type"] == "VERDICT"
    ]
    clean = sim.verify_transcript(transcript).clean
    print(f"{title}")
    print(f"  delivered {summary['delivered']} messages over "
          f"{summary['sessions']} session(s); replay clean: {clean}")
    for v in verdicts:
        print(f"  verdict -> {v}")
    if not verdicts:
        print("  no verdicts")
    print()
