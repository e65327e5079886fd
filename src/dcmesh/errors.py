"""Exception types shared across the package."""


class DcMeshError(Exception):
    """Base class for all protocol errors."""


class WitnessMismatch(DcMeshError):
    """Prover witness does not satisfy the statement; refusing to emit a proof."""


class MissingParticipant(DcMeshError):
    """A round is missing a ciphertext from an expected participant."""


class DuplicateParticipant(DcMeshError):
    """A round contains two ciphertexts from the same participant."""


class PayloadOverflow(DcMeshError):
    """Payload does not fit in the configured slot width."""


class NotACollision(DcMeshError):
    """Slot arithmetic requested on a slot holding fewer than two messages."""


class ProtocolOrderViolation(DcMeshError):
    """A ciphertext arrived for a round that is not next on the schedule."""


class ConfigInvalid(DcMeshError):
    """Scenario configuration violates its invariants."""


class MalformedRecord(DcMeshError):
    """A transcript line cannot be parsed."""

    def __init__(self, index, message):
        super().__init__(f"record {index}: {message}")
        self.index = index
