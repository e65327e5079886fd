"""Edited copies of one transcript, each verified as a forger hands it in.

Each row of ``ROWS`` edits the transcript of the ``bad_pad`` scenario below
(n = 4, seed 2; participant 3's bad pad is caught in session 1, and
session 2 delivers the three messages without it).  The edit works on
the text, or on the records, and then reseals the digests it names, as a
forger who edits records would.  The row gives the exit code of
``dcmesh verify`` of the edited copy, and a pattern that its output,
stdout then stderr, must hold: a regex searched line by line, where ``^``
and ``$`` bound a line and ``\\A`` marks the first one.

Tier-1 runs every row in-process, through ``dcmesh.cli.main``.  Run as a
script, this file runs every row against the installed ``dcmesh``
console script, found on PATH, prints one line per row, and exits
non-zero naming every row that fails:

    python tests/test_edited_transcripts.py

A new verifier rule adds a row here.
"""

import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from dcmesh import keysetup, zkp
from dcmesh.cli import main
from dcmesh.groups import derive_params
from dcmesh.transcript import FORMAT_VERSION, Transcript, records_digest

SCENARIO = (
    "dcmesh-scenario v1\nn = 4\nseed = 2\n"
    "sender = 0 36\nsender = 1 11\nsender = 2 28\nadversary = 3 bad_pad\n"
)


def resealed(header, body, *digests):
    """The text of a transcript of ``header`` and ``body``, with each
    digest that ``digests`` names recomputed over the records as they
    stand: ``"HEADEREND"`` over the header before it, and ``"bind"``, the
    SUMMARY's, over the body before it."""
    assert set(digests) <= {"HEADEREND", "bind"}, digests
    if "HEADEREND" in digests:
        header = [*header[:-1], {**header[-1], "digest": records_digest(header[:-1])}]
    if "bind" in digests:
        body = [*body[:-1], {**body[-1], "bind": records_digest(body[:-1])}]
    return Transcript(header, body).to_text()


def on_records(change, *digests):
    """The edit that calls ``change`` on a text's records, the header's
    then the body's in one list, which it edits by replacing records, and
    then reseals ``digests``."""

    def edit(text):
        transcript = Transcript.from_text(text)
        records = transcript.header + transcript.records
        change(records)
        cut = len(transcript.header)
        return resealed(records[:cut], records[cut:], *digests)

    return edit


def first(rtype, field, value, *digests, where=lambda rec: True):
    """The edit that sets ``field`` of the first ``rtype`` record that
    ``where`` holds for to ``value(old value, GROUP record)``, and then
    reseals ``digests``."""

    def change(records):
        group = next(rec for rec in records if rec["type"] == "GROUP")
        i = next(i for i, rec in enumerate(records) if rec["type"] == rtype and where(rec))
        new = value(records[i][field], group)
        assert new != records[i][field], (rtype, field)
        records[i] = {**records[i], field: new}

    return on_records(change, *digests)


def _has_proof(rec):
    return rec["proof"] != zkp.NO_PROOF


def _has_letter(rec):
    return rec["proof"] != rec["proof"].upper()


def _swap_proof(records):
    """The first CIPHER proof that is not NO_PROOF, replaced by the next
    CIPHER's proof, of the same round."""
    i = next(i for i, rec in enumerate(records) if rec["type"] == "CIPHER" and _has_proof(rec))
    j = next(j for j in range(i + 1, len(records)) if records[j]["type"] == "CIPHER")
    assert all(rec["type"] != "SESSION" for rec in records[i:j])   # one session
    assert records[j]["round"] == records[i]["round"]
    assert records[j]["proof"] != records[i]["proof"]
    records[i] = {**records[i], "proof": records[j]["proof"]}


def swap_ciphers(records):
    """Round 1's first two CIPHER records, swapped."""
    i = next(i for i, rec in enumerate(records) if rec["type"] == "CIPHER")
    assert records[i]["round"] == records[i + 1]["round"] == 1
    records[i], records[i + 1] = records[i + 1], records[i]


def _nine_bits(bits, group):
    assert bits == 8
    return 9


def _blank_line(text):
    """The text with a blank line after its HEADEREND line."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("HEADEREND "))
    return "\n".join([*lines[: at + 1], "", *lines[at + 1 :]])


def _v11(text):
    """The text relabelled v11, with each SESSION line given back the keys
    field that v11 spelled."""
    relabelled = re.sub(f"^DCMESH version={FORMAT_VERSION} ", "DCMESH version=v11 ", text)
    assert relabelled != text
    return re.sub(r"^(SESSION .*)$", r"\1 keys=" + "0" * 64, relabelled, flags=re.M)


def _part_3_epoch_0(rec):
    return (rec["part"], rec["epoch"]) == (3, 0)


def sign_under_negated_key(params, stmt, x):
    """A signature, a one-branch proof, that ``zkp.verify_or`` accepts for
    ``stmt``, whose key is p - h^x, made with x.  h^z * (p - y)^-e is h^k
    times (-1)^(q - e), so the signer tries the announcements h^k and
    p - h^k, nonce after nonce, until one's challenge has the sign that
    verify accepts."""
    for nonce in range(1, params.q):
        power = params.h_table.power(nonce)
        for announcement in (power, params.p - power):
            e = zkp.fs_challenge(params, stmt, [announcement])
            proof = ((e, (nonce + e * x) % params.q),)
            if zkp.verify_or(params, [stmt], [proof]) == [True]:
                return proof
    raise AssertionError("no nonce signs under p - y")


def _params(group):
    """The group a GROUP record names."""
    return derive_params(group["name"], bytes.fromhex(group["tag"]))


def _negated_key_resigned(records):
    """Participant 3's PUBKEY y replaced by p - y, which lies in [1, p)
    but outside the group, and its epoch-0 root signed under p - y with
    the log of y: participant 3 knows it, and a test group is small
    enough to search for it."""
    params = _params(next(rec for rec in records if rec["type"] == "GROUP"))
    assert "OPTOUT" not in {rec["type"] for rec in records}
    i = next(i for i, rec in enumerate(records) if rec["type"] == "PUBKEY" and rec["part"] == 3)
    j = next(j for j, rec in enumerate(records)
             if rec["type"] == "ENDORSE" and _part_3_epoch_0(rec))
    y, power, x = records[i]["y"], 1, 0
    while power != y:
        power, x = power * params.h % params.p, x + 1
    key = params.p - y
    stmt = keysetup.endorse_statement(params, key, bytes.fromhex(records[j]["root"]), 3, 0, ())
    proof = sign_under_negated_key(params, stmt, x)
    records[i] = {**records[i], "y": key}
    records[j] = {**records[j], "proof": zkp.proof_to_text(params, proof)}


def _bumped_response(text, group):
    """An ENDORSE proof text whose response is one more, mod q, respelled."""
    params = _params(group)
    ((e, s),) = zkp.proof_from_text(params, text)
    return zkp.proof_to_text(params, ((e, (s + 1) % params.q),))


_upper = lambda text, group: text.upper()
_zero = lambda value, group: 0
_zeros = lambda text, group: "0" * len(text)
# the line that names the first divergence; every divergence line comes first
_FIRST_DIVERGENCE = r"\Adivergence at record.*"
_BAD_SIGNATURE = "reason=bad_signature where=epoch:0"


class Row(NamedTuple):
    name: str
    edit: Callable[[str], str]   # the transcript's text -> the edited text
    status: int                  # the exit code of dcmesh verify
    pattern: str = ""            # a regex that its output holds


ROWS = [
    # unresealed, the edited AGGREGATE and the SUMMARY bind both diverge
    Row("tampered", first("AGGREGATE", "valid", _zero, where=lambda rec: rec["valid"] == 1), 2),
    # a transcript has one text: a blank line is malformed
    Row("blank_line", _blank_line, 1),
    # the judge spells every proof it records: another spelling diverges at its own record
    Row("upper_proof", first("CIPHER", "proof", _upper, "bind", where=_has_proof), 2,
        _FIRST_DIVERGENCE + ": recorded CIPHER "),
    # the judge spells every path it records: another spelling diverges at its own record
    Row("upper_path", first("PUBLISH", "path", _upper, "bind"), 2,
        _FIRST_DIVERGENCE + ": recorded PUBLISH "),
    # every proof binds the header digest, over the DCMESH, GROUP and CONFIG lines
    Row("config_reseal", first("CONFIG", "payload_bits", _nine_bits, "HEADEREND"), 2),
    # another format version is malformed at its DCMESH line, before any line it spells otherwise
    Row("v11", _v11, 1,
        f"^malformed transcript: record 0: not a format {FORMAT_VERSION} transcript$"),
    # the judge checks epoch 0's signatures, in the run and on verify alike
    Row("bad_sig", first("ENDORSE", "proof", _bumped_response, "bind"), 2, _BAD_SIGNATURE),
    # the judge spells every signature and root it records: another
    # spelling diverges at its own record
    Row("upper_sig", first("ENDORSE", "proof", _upper, "bind", where=_has_letter), 2,
        _FIRST_DIVERGENCE + ": recorded ENDORSE "),
    Row("root_not_hex", first("ENDORSE", "root", lambda root, group: "zz" + root[2:], "bind"), 2,
        _FIRST_DIVERGENCE + ": recorded ENDORSE "),
    # a key outside the group verifies no signature: the judge rejects it, and it is not malformed
    Row("zero_key", first("PUBKEY", "y", _zero, "bind"), 2, _BAD_SIGNATURE),
    # p - y is in [1, p) but outside the group: the same verdict as a zero key
    Row("negated_key", first("PUBKEY", "y", lambda y, group: group["p"] - y, "bind"), 2,
        _BAD_SIGNATURE),
    # the same key with a signature that verifies under it: only the judge's key rule rejects it
    Row("negated_key_resigned", on_records(_negated_key_resigned, "bind"), 2,
        "part=3 " + _BAD_SIGNATURE),
    # the judge writes slot values mod q, so an unreduced one is not what it recomputes
    Row("unreduced", first("CIPHER", "O_count", lambda v, group: v + group["q"], "bind"), 2,
        "O_count"),
    # a commitment outside the group is a missing broadcast, in the run and on verify alike
    Row("outside", first("CIPHER", "c", lambda c, group: group["p"] - c, "bind"), 2,
        "reason=non_cooperation"),
    # verify checks the proof each text spells against its own participant's statement
    Row("swapped_proof", on_records(_swap_proof, "bind"), 2, "reason=invalid_proof where=round:2"),
    # the judge asks for participant 0's CIPHER and finds participant 1's: verify stops there
    Row("swapped_ciphers", on_records(swap_ciphers, "bind"), 2,
        r"\Adivergence at record 14: recorded CIPHER round=1 part=1 .* "
        r"!= expected CIPHER round=1 part=0$"),
    # unresealed, a signature or root that no longer verifies gets its signer a new verdict
    *(Row(name, first("ENDORSE", field, value, where=_part_3_epoch_0), 2,
          "part=3 " + _BAD_SIGNATURE)
      for name, field, value in (("withheld_sig", "proof", lambda text, group: zkp.NO_PROOF),
                                 ("zeroed_sig", "proof", _zeros),
                                 ("zeroed_root", "root", _zeros))),
]


def check(row, text, verify, path):
    """Write ``row``'s edit of ``text`` at ``path``, and verify it with
    ``verify(path) -> (exit code, output)``: the exit code, whether the
    output holds the row's pattern, and the output."""
    path.write_text(row.edit(text))
    status, output = verify(path)
    return status, re.search(row.pattern, output, re.M) is not None, output


@pytest.fixture(scope="module")
def bad_pad_text(tmp_path_factory):
    """The bad_pad scenario's transcript, as ``dcmesh run`` writes it."""
    tmp = tmp_path_factory.mktemp("bad_pad")
    scenario, out = tmp / "bad_pad.scenario", tmp / "bad_pad.transcript"
    scenario.write_text(SCENARIO)
    assert main(["run", str(scenario), "--out", str(out)]) == 2
    return out.read_text()


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_an_edited_transcript_verifies_as_its_row_says(row, bad_pad_text, tmp_path, capsys):
    def verify(path):
        capsys.readouterr()
        status = main(["verify", str(path)])
        out = capsys.readouterr()
        return status, out.out + out.err

    status, matched, output = check(row, bad_pad_text, verify, tmp_path / "edited.transcript")
    assert (status, matched) == (row.status, True), output


def _installed(*args):
    """The installed ``dcmesh`` run with ``args``: its exit code, and its
    stdout then its stderr."""
    done = subprocess.run(["dcmesh", *args], capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def _failing_rows_installed():
    """Every row run against the installed ``dcmesh``, one line printed
    per row; the names of the rows that fail."""
    failing = []
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp, "bad_pad.scenario"), Path(tmp, "bad_pad.transcript")
        scenario.write_text(SCENARIO)
        status, output = _installed("run", str(scenario), "--out", str(out))
        if status != 2:
            sys.exit(f"dcmesh run of the bad_pad scenario exited {status}, not 2:\n{output}")
        text = out.read_text()
        for row in ROWS:
            try:
                status, matched, output = check(
                    row, text, lambda path: _installed("verify", str(path)),
                    Path(tmp, f"{row.name}.transcript"),
                )
            except Exception:   # an edit that no longer applies fails its row
                status, matched, output = None, False, traceback.format_exc()
            print(f"{row.name}: exit {status} (expected {row.status}), "
                  f"pattern /{row.pattern}/ {'matched' if matched else 'NOT matched'}")
            if (status, matched) != (row.status, True):
                failing.append(row.name)
                print(output, end="")
    return failing


if __name__ == "__main__":
    failing = _failing_rows_installed()
    sys.exit(f"rows failing against the installed dcmesh: {', '.join(failing)}" if failing else 0)
