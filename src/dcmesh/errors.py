"""Exception types shared across the package."""


class DcMeshError(Exception):
    """Base class for all protocol errors."""


class WitnessMismatch(DcMeshError):
    """Prover witness does not satisfy the statement; refusing to emit a proof."""


class PayloadOverflow(DcMeshError):
    """Payload does not fit in the configured slot width."""


class NotACollision(DcMeshError):
    """Slot arithmetic requested on a slot holding fewer than two messages."""


class ProtocolOrderViolation(DcMeshError):
    """A recorded input is not the one the session judge asks for next.

    Only the verifier's replay raises it, after reporting the
    divergence; the judge stops there."""


class ConfigInvalid(DcMeshError):
    """Scenario configuration violates its invariants."""


class MalformedRecord(DcMeshError):
    """A transcript line cannot be parsed."""

    def __init__(self, index, message):
        super().__init__(f"record {index}: {message}")
        self.index = index
