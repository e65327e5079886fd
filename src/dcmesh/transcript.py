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
A CIPHER or DEMAND proof is the hex of its (challenge, response)
scalars, one pair per branch, or ``-`` where none is sent.
At an equal-payload node (NODE status=equal) the DEMAND records carry
the equal-payload check, and the RESOLVED records that follow are one
per delivered copy.  Everything an independent verifier needs is
either in the records or recomputable from them; secrets never appear
except for pair commitments revealed during an investigation (PUBLISH,
each with its edge's other ones for the epoch), which are safe to
publish: Pedersen commitments are perfectly hiding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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


_FIELD_SETS = {rtype: frozenset(names) for rtype, names in _SCHEMA.items()}


def record(rtype: str, **fields):
    """Build a record dict, checking the type's field set."""
    names = _FIELD_SETS[rtype]
    if fields.keys() != names:
        missing = names - set(fields)
        extra = set(fields) - names
        raise ValueError(f"{rtype}: missing={sorted(missing)} extra={sorted(extra)}")
    out = {"type": rtype}
    out.update(fields)
    return out


def record_to_line(rec: dict) -> str:
    rtype = rec["type"]
    parts = [rtype]
    for name in _SCHEMA[rtype]:
        parts.append(f"{name}={rec[name]}")
    return " ".join(parts)


def line_to_record(line: str, index: int) -> dict:
    tokens = line.split(" ")
    rtype = tokens[0]
    if rtype not in _SCHEMA:
        raise MalformedRecord(index, f"unknown record type {rtype!r}")
    names = _SCHEMA[rtype]
    if len(tokens) != len(names) + 1:
        raise MalformedRecord(index, f"{rtype} expects {len(names)} fields")
    out = {"type": rtype}
    for name, token in zip(names, tokens[1:]):
        if "=" not in token:
            raise MalformedRecord(index, f"field {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key != name:
            raise MalformedRecord(index, f"expected field {name}, got {key}")
        if name in _INT_FIELDS:
            try:
                number = int(value)
            except ValueError:
                raise MalformedRecord(index, f"field {name} must be an integer") from None
            # one spelling per value: every digest is taken over re-serialised records
            if str(number) != value:
                raise MalformedRecord(index, f"field {name} is not canonical decimal")
            value = number
        out[name] = value
    return out


@dataclass
class Transcript:
    header: list = field(default_factory=list)   # records up to HEADEREND
    records: list = field(default_factory=list)  # session records + SUMMARY

    def to_text(self) -> str:
        return "\n".join(record_to_line(r) for r in self.header + self.records) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        lines = [ln for ln in text.split("\n") if ln]
        if not lines:
            raise MalformedRecord(0, "empty transcript")
        records = [line_to_record(ln, i) for i, ln in enumerate(lines)]
        if records[0]["type"] != "DCMESH":
            raise MalformedRecord(0, "transcript must start with a DCMESH line")
        header, body = [], []
        seen_end = False
        for rec in records:
            if not seen_end:
                header.append(rec)
                if rec["type"] == "HEADEREND":
                    seen_end = True
            else:
                body.append(rec)
        if not seen_end:
            raise MalformedRecord(len(records) - 1, "missing HEADEREND record")
        return cls(header=header, records=body)


def records_digest(records) -> str:
    """Digest binding the canonical lines of a header, a session's key records or a body."""
    h = hashlib.sha256()
    for rec in records:
        h.update(record_to_line(rec).encode())
        h.update(b"\n")
    return h.hexdigest()
