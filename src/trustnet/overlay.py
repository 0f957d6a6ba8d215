"""48-bit virtual addressing and the overlay datagram codec.

An overlay address combines a 16-bit network id with a 32-bit node id and is
location independent. The canonical text form is ``D:NNNN.HHHH.LLLL`` where
``D`` is the network id in decimal and the three dot-separated groups are
16-bit hex values: the network id again, then the high and low halves of the
node id. The decimal prefix and the first hex group must agree. A
VirtualAddress is an immutable ``(network_id, node_id)`` tuple: it compares,
orders and hashes as that tuple, and so equals a plain
``(network_id, node_id)``. A PacketHeader is built the same way, as an
immutable ``(src, dst, src_port, dst_port, flags)`` tuple. Both constructors
check their ranges, and so do ``_make`` and ``_replace``; the byte decoders
build values without the checks, since their ``struct`` formats already bound
every field.

Datagrams carry a fixed 20-byte header followed by the payload:

    magic(2) version(1) flags(1) src(6) dst(6) src_port(2) dst_port(2)

All multi-byte fields are big-endian. The payload length is not carried on
the wire; UDP preserves datagram boundaries, so the payload is every byte
after the header. The payload ceiling of 65,487 bytes is the 65,535-byte UDP
limit minus transport headers and this 20-byte header.

A payload on the trust-handshake port starts with one frame-type byte:
REQUEST (1), ACCEPT (2), CONFIRM (3), DATA (4), DECLINE (5) or ERROR (6). An
ERROR frame's second byte is its code; the only code is UNKNOWN_DESTINATION
(1). Identity and exchange keys are KEY_SIZE (32) bytes.
"""

from __future__ import annotations

import re
import struct
from typing import NamedTuple

from .errors import (
    BadMagicError,
    BadVersionError,
    CodecError,
    MalformedAddressError,
    OversizePayloadError,
    TruncatedPacketError,
)

MAGIC = b"\x50\x56"
PROTOCOL_VERSION = 1
HEADER_SIZE = 20
MAX_PAYLOAD_SIZE = 65_487

PORT_SECURE_CHANNEL = 443
PORT_TRUST_HANDSHAKE = 444
PORT_REGISTRY = 1

FRAME_REQUEST = 1
FRAME_ACCEPT = 2
FRAME_CONFIRM = 3
FRAME_DATA = 4
FRAME_DECLINE = 5
FRAME_ERROR = 6

ERROR_UNKNOWN_DESTINATION = 1

KEY_SIZE = 32

# Each address is read and written as its two ints: network id, node id.
_HEADER_STRUCT = struct.Struct("!2sBBHIHIHH")
_ADDRESS_STRUCT = struct.Struct("!HI")
_ADDRESS_RE = re.compile(
    r"\A([0-9]+):([0-9A-Fa-f]{4})\.([0-9A-Fa-f]{4})\.([0-9A-Fa-f]{4})\Z"
)


# namedtuple's _make, which _replace calls too, builds with tuple.__new__; the
# two checked tuples below build through their own __new__ instead.
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


class _AddressFields(NamedTuple):
    network_id: int
    node_id: int


class VirtualAddress(_AddressFields):
    """Overlay endpoint identity: (network_id, node_id)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, network_id: int, node_id: int) -> "VirtualAddress":
        if not 0 <= network_id <= 0xFFFF:
            raise MalformedAddressError(f"network_id {network_id} outside 16-bit range")
        if not 0 <= node_id <= 0xFFFF_FFFF:
            raise MalformedAddressError(f"node_id {node_id} outside 32-bit range")
        return tuple.__new__(cls, (network_id, node_id))

    def to_text(self) -> str:
        """Render the canonical text form (hex groups uppercase)."""
        return "%d:%04X.%04X.%04X" % (
            self.network_id,
            self.network_id,
            self.node_id >> 16,
            self.node_id & 0xFFFF,
        )

    @classmethod
    def from_text(cls, text: str) -> "VirtualAddress":
        """Parse the text form; hex digits may be either case.

        Raises MalformedAddressError on wrong group count, non-hex digits,
        out-of-range values, or disagreement between the decimal prefix and
        the first hex group.
        """
        match = _ADDRESS_RE.match(text)
        if match is None:
            raise MalformedAddressError(f"unparseable address text: {text!r}")
        prefix, network_hex, high, low = match.groups()
        network = int(network_hex, 16)
        if int(prefix, 10) != network:
            raise MalformedAddressError(
                f"decimal prefix {int(prefix, 10)} disagrees with hex network group "
                f"{network} in {text!r}"
            )
        # Four hex digits a group bound both ids, so __new__'s range checks are skipped.
        return tuple.__new__(cls, (network, int(high + low, 16)))

    def to_bytes(self) -> bytes:
        """Serialize to the 6-byte big-endian wire form."""
        return _ADDRESS_STRUCT.pack(*self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VirtualAddress":
        if len(raw) != 6:
            raise MalformedAddressError(f"address needs 6 bytes, got {len(raw)}")
        # The struct format bounds both ids, so __new__'s range checks are skipped.
        return tuple.__new__(cls, _ADDRESS_STRUCT.unpack(raw))

    def __str__(self) -> str:
        return self.to_text()


class _HeaderFields(NamedTuple):
    src: VirtualAddress
    dst: VirtualAddress
    src_port: int
    dst_port: int
    flags: int = 0


class PacketHeader(_HeaderFields):
    """Fixed-size datagram header: the fields to_bytes writes after magic and version."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, src, dst, src_port, dst_port, flags=0) -> "PacketHeader":
        if not 0 <= src_port <= 0xFFFF:
            raise CodecError(f"src_port {src_port} outside 16-bit range")
        if not 0 <= dst_port <= 0xFFFF:
            raise CodecError(f"dst_port {dst_port} outside 16-bit range")
        if not 0 <= flags <= 0xFF:
            raise CodecError(f"flags {flags} outside 8-bit range")
        return tuple.__new__(cls, (src, dst, src_port, dst_port, flags))

    def to_bytes(self) -> bytes:
        """Serialize the constant 20-byte wire header."""
        return _HEADER_STRUCT.pack(
            MAGIC,
            PROTOCOL_VERSION,
            self.flags,
            *self.src,
            *self.dst,
            self.src_port,
            self.dst_port,
        )


def encode_packet(header: PacketHeader, payload: bytes) -> bytes:
    """Serialize header and payload into one datagram.

    Raises OversizePayloadError above the payload ceiling.
    """
    if len(payload) > MAX_PAYLOAD_SIZE:
        raise OversizePayloadError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_SIZE}"
        )
    return header.to_bytes() + payload


def decode_packet(datagram: bytes) -> tuple[PacketHeader, bytes]:
    """Parse a datagram back into (header, payload).

    Raises TruncatedPacketError, BadMagicError, BadVersionError, or
    OversizePayloadError.
    """
    if len(datagram) < HEADER_SIZE:
        raise TruncatedPacketError(
            f"datagram of {len(datagram)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    (
        magic, version, flags, src_net, src_node, dst_net, dst_node, src_port, dst_port
    ) = _HEADER_STRUCT.unpack_from(datagram)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise BadVersionError(f"unsupported version {version}")
    payload = datagram[HEADER_SIZE:]
    if len(payload) > MAX_PAYLOAD_SIZE:
        raise OversizePayloadError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_SIZE}"
        )
    # The struct format bounds every field, so no constructor re-checks a range.
    src = tuple.__new__(VirtualAddress, (src_net, src_node))
    dst = tuple.__new__(VirtualAddress, (dst_net, dst_node))
    return tuple.__new__(PacketHeader, (src, dst, src_port, dst_port, flags)), payload
