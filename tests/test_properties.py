"""Properties over every configuration the validator accepts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dcmesh import sim
from dcmesh.transcript import Transcript


@st.composite
def accepted_scenarios(draw):
    """Any scenario the validator accepts with n <= 10, 8-bit payloads
    (duplicates likely) and at most one adversary."""
    n = draw(st.integers(1, 10))
    senders = {}
    for pid in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        payload = st.integers(0, 255)
        if senders:
            payload = payload | st.sampled_from(sorted(senders.values()))
        senders[pid] = draw(payload)
    adversaries = ()
    if draw(st.booleans()):
        pid, strategy = draw(st.integers(0, n - 1)), draw(st.sampled_from(sim.STRATEGIES))
        if strategy in sim._SENDER_STRATEGIES and pid not in senders:
            senders[pid] = draw(st.integers(0, 255))
        adversaries = ((pid, strategy),)
    scenario = sim.Scenario(
        n=n,
        senders=tuple(sorted(senders.items())),
        adversaries=adversaries,
        seed=draw(st.integers(0, (1 << 64) - 1)),
        max_retries=draw(st.sampled_from((1, 2, 4, 32))),
    )
    scenario.validate()
    return scenario


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(accepted_scenarios())
def test_every_accepted_configuration_runs_to_a_recorded_end(scenario):
    # honest verdicts are a known defect of the slot encoding; only an
    # escaped exception or an unclean replay fails here
    transcript = sim.run_scenario(scenario)
    report = sim.verify_transcript(Transcript.from_text(transcript.to_text()))
    assert report.clean, report.divergences[:3]
