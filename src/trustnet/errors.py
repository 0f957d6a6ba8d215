"""Exception taxonomy shared across the package.

Every error raised by the public API derives from TrustNetError so callers
can catch one base. The CLI maps these onto exit code 2 (input and schema
problems).
"""


class TrustNetError(Exception):
    """Base class for all package errors."""


# --- overlay wire format ---


class CodecError(TrustNetError):
    """Base for address and packet codec failures."""


class MalformedAddressError(CodecError):
    """Address text does not parse or its components disagree."""


class OversizePayloadError(CodecError):
    """Payload exceeds the single-datagram ceiling."""


class BadMagicError(CodecError):
    """Datagram does not start with the protocol magic bytes."""


class BadVersionError(CodecError):
    """Datagram carries an unsupported protocol version."""


class TruncatedPacketError(CodecError):
    """Datagram is shorter than the fixed header."""


# --- secure channel ---


class ChannelError(TrustNetError):
    """Base for sealed-channel failures."""


class LowOrderPointError(ChannelError):
    """Key exchange produced an all-zero shared secret."""


class CounterExhaustedError(ChannelError):
    """Send counter reached the 64-bit ceiling; session must be replaced."""


class AuthFailureError(ChannelError):
    """AEAD tag verification failed; the message was tampered or corrupt."""


class ReplayDetectedError(ChannelError):
    """Nonce counter was already accepted or fell behind the window."""


class HandshakeError(TrustNetError):
    """Base for trust-handshake failures."""


class ResponderDeclinedError(HandshakeError):
    """Responder's trust policy rejected the request."""


class SignatureInvalidError(HandshakeError):
    """Transcript signature did not verify against the registered key."""


# --- registry ---


class DuplicateKeyError(TrustNetError):
    """Public key or hostname is already registered."""


class HostnameNotFoundError(TrustNetError):
    """Hostname has no binding."""


class UnknownNodeError(TrustNetError):
    """Address is not registered."""


# --- snapshots and analytics ---


class SchemaViolationError(TrustNetError):
    """A JSON document (snapshot, control body, event-log line) is malformed.

    It does not parse, is missing a field, or holds a value of the wrong type.
    """


class DanglingEdgeError(SchemaViolationError):
    """Trust edge references an address absent from the node list."""


class DegenerateGraphError(TrustNetError):
    """Metric is undefined on a graph this small."""


class InsufficientTailError(TrustNetError):
    """Fewer than the minimum tail observations above k_min."""


class BadBoundariesError(TrustNetError):
    """Bin boundaries are not strictly increasing."""


# --- configuration and infrastructure ---


class ConfigInvalidError(TrustNetError):
    """Configuration value out of range or inconsistent."""


class UnknownPresetError(ConfigInvalidError):
    """No preset registered under that name."""


class UnknownParameterError(ConfigInvalidError):
    """Sweep or override referenced a field that does not exist."""


class BeaconUnavailableError(TrustNetError):
    """Relay required but no beacon is registered."""
