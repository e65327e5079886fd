"""Canonical, replayable transcript records.

A transcript is newline-delimited ASCII: a header (format version,
group, configuration and a digest binding them) followed by the
sessions and a closing SUMMARY.  Each session opens with a SESSION
record and its key records: every participant's signing key (PUBKEY),
the pairs opted out for the whole session (OPTOUT) and every
participant's signed root for epoch 0 (ENDORSE), whose signature also
covers the signer's opted-out peers.  A later epoch's ENDORSE records,
one per participant, sit in the session where the epoch was endorsed,
before the first round that spends it.  A slot value is a pair: each
CIPHER carries O_count and O_total, each AGGREGATE C_count and C_total.
A CIPHER or DEMAND proof is the lowercase hex of its (challenge,
response) scalars, one pair per branch, or ``-`` where none is sent.
At an equal-payload node (NODE status=equal) the DEMAND records carry
the equal-payload check, and the RESOLVED records that follow are one
per delivered copy.  Everything an independent verifier needs is
either in the records or recomputable from them; secrets never appear
except for pair commitments revealed during an investigation (PUBLISH,
each with its edge's other ones for the epoch), which are safe to
publish: Pedersen commitments are perfectly hiding.

Each record has one line, written once and read once, and every line
ends with a newline: a blank line, or a last line without its newline,
is malformed, so a transcript has one text.  A value has one
spelling: integers canonical decimal, byte strings lowercase hex, other
strings verbatim with no space.  So a line re-serialises to itself, and
the digests that bind the transcript (HEADEREND over the header before
it, SESSION ``keys`` over the session's key records, SUMMARY ``bind``
over the body before it) are taken over the lines a transcript holds:
the runner's as written, the verifier's as read.
"""

from __future__ import annotations

import hashlib
import re

from .errors import MalformedRecord

# record type -> ordered field names; values are serialized as key=value
_SCHEMA = {
    "DCMESH": ("version", "hash"),
    "GROUP": ("name", "p", "q", "generators", "tag"),
    "CONFIG": ("n", "payload_bits", "scenario"),
    "PUBKEY": ("session", "part", "y"),
    "OPTOUT": ("session", "lo", "hi"),
    "ENDORSE": ("session", "epoch", "part", "root", "sig_e", "sig_s"),
    "HEADEREND": ("digest",),
    "SESSION": ("idx", "active", "budget", "keys"),
    "ROUND": ("session", "id", "slot"),
    "CIPHER": ("session", "round", "part", "O_count", "O_total", "c", "proof"),
    "AGGREGATE": ("session", "round", "C_count", "C_total", "valid"),
    "NODE": ("session", "id", "kind", "count", "total", "status", "threshold"),
    "RESOLVED": ("session", "node", "payload"),
    "PUBLISH": ("session", "slot", "part", "peer", "c", "path"),
    "INVESTIGATION": ("session", "round", "cheaters"),
    "DEMAND": ("session", "node", "part", "ok", "proof"),
    "VERDICT": ("session", "part", "reason", "where"),
    "BAN": ("session", "part"),
    "SUMMARY": (
        "sessions",
        "delivered",
        "transmitted",
        "proofs_checked",
        "proofs_failed",
        "verdicts",
        "bind",
    ),
}

_INT_FIELDS = {
    "p",
    "q",
    "n",
    "payload_bits",
    "part",
    "y",
    "lo",
    "hi",
    "idx",
    "budget",
    "session",
    "epoch",
    "id",
    "slot",
    "round",
    "O_count",
    "O_total",
    "c",
    "C_count",
    "C_total",
    "valid",
    "count",
    "total",
    "node",
    "payload",
    "peer",
    "sig_e",
    "sig_s",
    "ok",
    "sessions",
    "delivered",
    "transmitted",
    "proofs_checked",
    "proofs_failed",
    "verdicts",
}


def record(rtype: str, **fields):
    """A record dict, built as given: its field set is not checked on
    each call, but once, in a test that writes every record type."""
    return {"type": rtype, **fields}


def record_to_line(rec: dict) -> str:
    rtype = rec["type"]
    parts = [rtype]
    for name in _SCHEMA[rtype]:
        parts.append(f"{name}={rec[name]}")
    return " ".join(parts)


# the one spelling of an integer: str(int), with no sign on zero, no
# leading zero, no + or _ and ASCII digits only
_INT = "0|-?[1-9][0-9]*"
_CANONICAL_INT = re.compile(_INT).fullmatch

# record type -> (fullmatch of its one line spelling, its integer fields);
# re caches each compiled pattern, so a re-import compiles none again
_PATTERNS = {
    rtype: (
        re.compile(
            rtype
            + "".join(f" {n}=(?P<{n}>{_INT if n in _INT_FIELDS else '[^ ]*'})" for n in names)
        ).fullmatch,
        [n for n in names if n in _INT_FIELDS],
    )
    for rtype, names in _SCHEMA.items()
}


def line_to_record(line: str, index: int) -> dict:
    """The record a line spells, read with its type's pattern in one
    match; MalformedRecord, naming the cause, for any other line."""
    rtype = line.partition(" ")[0]
    if rtype in _PATTERNS:
        match, ints = _PATTERNS[rtype]
        found = match(line)
        if found is not None:
            out = found.groupdict()
            out["type"] = rtype
            try:
                for name in ints:
                    out[name] = int(out[name])
                return out
            except ValueError:   # more digits than int() converts
                pass
    raise MalformedRecord(index, _fault(line))


def _fault(line: str) -> str:
    """Why a line is not the one spelling of a record."""
    if not line:
        return "a blank line"
    tokens = line.split(" ")
    names = _SCHEMA.get(tokens[0])
    if names is None:
        return f"unknown record type {tokens[0]!r}"
    if len(tokens) != len(names) + 1:
        return f"{tokens[0]} expects {len(names)} fields"
    for name, token in zip(names, tokens[1:]):
        key, eq, value = token.partition("=")
        if not eq:
            return f"field {token!r} is not key=value"
        if key != name:
            return f"expected field {name}, got {key}"
        if name in _INT_FIELDS and not _CANONICAL_INT(value):
            return f"field {name} is not a canonical decimal integer"
    return "an integer field has more digits than int() converts"


class Transcript:
    """A transcript's records, each with its canonical line: the line it
    was read from, or else the line it is first written as, so no record
    is serialised twice.  Its text is those lines, each ended by a
    newline, with no blank line.  A record put in place of another gets
    its own line; a record changed in place keeps its old line, so change
    a record by replacing it, never in place."""

    def __init__(self, header=None, records=None):
        # records up to HEADEREND, then session records + SUMMARY; replace a
        # record to change it: one changed in place keeps its old line
        self.header = [] if header is None else header
        self.records = [] if records is None else records
        # id(record) -> (record, line); holding the record keeps its id its own
        self._lines = {}

    def line(self, rec: dict) -> str:
        """The record's canonical line, serialised at most once."""
        kept = self._lines.get(id(rec))
        if kept is None:
            kept = self._lines[id(rec)] = rec, record_to_line(rec)
        return kept[1]

    def digest(self, records) -> str:
        """What ``records_digest`` gives, taken over the lines this transcript keeps."""
        return _digest(map(self.line, records))

    def to_text(self) -> str:
        return "\n".join(map(self.line, self.header + self.records)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        """The transcript a text spells: one record per line, every line
        ended by a newline, so a blank line or a missing last newline is
        malformed, at its own index, and a transcript has one text."""
        lines = text.split("\n")
        if lines.pop():
            raise MalformedRecord(len(lines), "the last line has no newline")
        if not lines:
            raise MalformedRecord(0, "empty transcript")
        records = [line_to_record(ln, i) for i, ln in enumerate(lines)]
        if records[0]["type"] != "DCMESH":
            raise MalformedRecord(0, "transcript must start with a DCMESH line")
        end = next((i for i, rec in enumerate(records) if rec["type"] == "HEADEREND"), None)
        if end is None:
            raise MalformedRecord(len(records) - 1, "missing HEADEREND record")
        transcript = cls(header=records[: end + 1], records=records[end + 1 :])
        transcript._lines = dict(zip(map(id, records), zip(records, lines)))
        return transcript


def _digest(lines) -> str:
    """sha256 over the lines, each ended by a newline."""
    return hashlib.sha256("\n".join([*lines, ""]).encode()).hexdigest()


def records_digest(records) -> str:
    """Digest binding the canonical lines of a header, a session's key records or a body."""
    return _digest(map(record_to_line, records))
