"""Transcripts are self-contained evidence: replay, then tamper with one.

A transcript carries everything an outside verifier needs to recompute
the sums, validity bits, tree transitions and proof verdicts.  Change
any single record and the replay reports exactly where it diverges.
"""

from dcmesh import sim
from dcmesh.errors import MalformedRecord
from dcmesh.transcript import Transcript

scenario = sim.Scenario(
    n=4,
    senders=((0, 36), (1, 11), (2, 28), (3, 17)),
    adversaries=((3, "bad_pad"),),
    seed=21,
)
transcript = sim.run_scenario(scenario)
text = transcript.to_text()
print(f"transcript: {len(text.splitlines())} records, "
      f"{len(text)} bytes, scenario digest bound in the header")

report = sim.verify_transcript(transcript)
print(f"independent replay clean: {report.clean}")

print("\ntampering: shift one broadcast total (O_total=...) in place")
lines = text.splitlines()
target = next(i for i, ln in enumerate(lines) if " O_total=" in ln)
tokens = lines[target].split(" ")
tokens = [
    f"O_total={int(tok.split('=')[1]) + 1}" if tok.startswith("O_total=") else tok
    for tok in tokens
]
lines[target] = " ".join(tokens)
try:
    report = sim.verify_transcript(Transcript.from_text("\n".join(lines) + "\n"))
    for index, message in report.divergences[:4]:
        print(f"  divergence at record {index}: {message}")
except MalformedRecord as exc:
    print(f"  rejected as malformed: {exc}")

print("\ntampering: silently drop the verdict")
lines = [ln for ln in text.splitlines() if not ln.startswith("VERDICT")]
report = sim.verify_transcript(Transcript.from_text("\n".join(lines) + "\n"))
for index, message in report.divergences[:2]:
    print(f"  divergence at record {index}: {message}")
