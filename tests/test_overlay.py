"""Address and packet codec tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustnet.errors import (
    BadMagicError,
    BadVersionError,
    CodecError,
    MalformedAddressError,
    OversizePayloadError,
    TruncatedPacketError,
)
from trustnet.overlay import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD_SIZE,
    PROTOCOL_VERSION,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)

addresses = st.builds(
    VirtualAddress,
    network_id=st.integers(0, 0xFFFF),
    node_id=st.integers(0, 0xFFFF_FFFF),
)

# Byte spans, after magic and version, of flags, both addresses' ids and both ports.
FIELD_SPANS = [(0, 1), (1, 3), (3, 7), (7, 9), (9, 13), (13, 15), (15, 17)]


def make_header(**overrides) -> PacketHeader:
    base = dict(
        src=VirtualAddress(0, 1),
        dst=VirtualAddress(0, 2),
        src_port=50_000,
        dst_port=443,
    )
    base.update(overrides)
    return PacketHeader(**base)


class TestAddressText:
    def test_canonical_form(self) -> None:
        assert VirtualAddress(0, 1000).to_text() == "0:0000.0000.03E8"

    def test_parse_canonical(self) -> None:
        assert VirtualAddress.from_text("0:0000.0000.03E8") == VirtualAddress(0, 1000)

    def test_parse_lowercase_hex(self) -> None:
        assert VirtualAddress.from_text("0:0000.0000.03e8") == VirtualAddress(0, 1000)

    def test_parse_high_node_bits(self) -> None:
        addr = VirtualAddress.from_text("7:0007.00A2.0001")
        assert addr == VirtualAddress(7, (0xA2 << 16) | 1)

    def test_prefix_disagreement_rejected(self) -> None:
        with pytest.raises(MalformedAddressError):
            VirtualAddress.from_text("1:0000.0000.03E8")

    def test_wrong_group_count_rejected(self) -> None:
        with pytest.raises(MalformedAddressError):
            VirtualAddress.from_text("0:0000.03E8")

    def test_non_hex_rejected(self) -> None:
        with pytest.raises(MalformedAddressError):
            VirtualAddress.from_text("0:0000.0000.03EG")

    def test_decimal_overflow_rejected(self) -> None:
        with pytest.raises(MalformedAddressError):
            VirtualAddress.from_text("65536:0000.0000.0001")

    def test_max_values_round_trip(self) -> None:
        addr = VirtualAddress(0xFFFF, 0xFFFF_FFFF)
        assert addr.to_text() == "65535:FFFF.FFFF.FFFF"
        assert VirtualAddress.from_text(addr.to_text()) == addr

    def test_out_of_range_constructor(self) -> None:
        with pytest.raises(MalformedAddressError):
            VirtualAddress(0x1_0000, 0)
        with pytest.raises(MalformedAddressError):
            VirtualAddress(0, -1)

    @given(addresses)
    @settings(max_examples=300)
    def test_text_round_trip(self, addr: VirtualAddress) -> None:
        assert VirtualAddress.from_text(addr.to_text()) == addr

    @given(addresses, addresses)
    @settings(max_examples=300)
    def test_address_contract(self, a: VirtualAddress, b: VirtualAddress) -> None:
        """An address hashes, orders and compares as its (network_id, node_id) pair.

        The text and byte round trips are test_text_round_trip and
        test_bytes_round_trip below.
        """
        pair_a, pair_b = (a.network_id, a.node_id), (b.network_id, b.node_id)
        assert hash(a) == hash(pair_a)
        assert (a < b) == (pair_a < pair_b)
        assert (a == b) == (pair_a == pair_b)
        same = VirtualAddress(*pair_a)
        assert same == a and hash(same) == hash(a) and not same < a
        assert repr(a) == "VirtualAddress(network_id=%d, node_id=%d)" % pair_a
        with pytest.raises(AttributeError):
            a.network_id = b.network_id
        with pytest.raises(AttributeError):
            a.node_id = b.node_id
        with pytest.raises(AttributeError):
            a.port = 444

    def test_replace_and_make_check_ranges(self) -> None:
        addr = VirtualAddress(0, 1)
        with pytest.raises(MalformedAddressError) as caught:
            addr._replace(node_id=2**40)
        assert str(caught.value) == "node_id 1099511627776 outside 32-bit range"
        with pytest.raises(MalformedAddressError) as caught:
            VirtualAddress._make((0x1_0000, 1))
        assert str(caught.value) == "network_id 65536 outside 16-bit range"
        assert addr._replace(node_id=7) == VirtualAddress(0, 7)
        assert type(addr._replace(node_id=7)) is VirtualAddress

    @given(
        st.integers(max_value=-1) | st.integers(0, 0xFFFF) | st.integers(2**16),
        st.integers(max_value=-1) | st.integers(0, 2**32 - 1) | st.integers(2**32),
    )
    def test_out_of_range_messages(self, network_id: int, node_id: int) -> None:
        if not 0 <= network_id <= 0xFFFF:
            message = f"network_id {network_id} outside 16-bit range"
        elif not 0 <= node_id <= 0xFFFF_FFFF:
            message = f"node_id {node_id} outside 32-bit range"
        else:
            assert VirtualAddress(network_id, node_id).node_id == node_id
            return
        with pytest.raises(MalformedAddressError) as caught:
            VirtualAddress(network_id, node_id)
        assert str(caught.value) == message

    @given(addresses)
    @settings(max_examples=300)
    def test_bytes_round_trip(self, addr: VirtualAddress) -> None:
        raw = addr.to_bytes()
        assert len(raw) == 6
        assert VirtualAddress.from_bytes(raw) == addr

    def test_from_bytes_needs_six_bytes(self) -> None:
        with pytest.raises(MalformedAddressError) as caught:
            VirtualAddress.from_bytes(b"\x00" * 5)
        assert str(caught.value) == "address needs 6 bytes, got 5"

    @given(st.binary(min_size=6, max_size=6))
    @settings(max_examples=300)
    def test_decoded_address_is_a_valid_address(self, raw: bytes) -> None:
        """from_bytes skips the constructor's checks: VirtualAddress(...)
        accepts every address it builds."""
        decoded = VirtualAddress.from_bytes(raw)
        checked = VirtualAddress(int.from_bytes(raw[:2], "big"), int.from_bytes(raw[2:], "big"))
        assert decoded == checked and type(decoded) is VirtualAddress
        assert decoded.to_bytes() == raw


class TestPacketCodec:
    def test_two_byte_payload_is_22_bytes(self) -> None:
        datagram = encode_packet(make_header(), b"hi")
        assert len(datagram) == 22
        assert datagram[:2] == MAGIC

    def test_empty_payload_is_exactly_header(self) -> None:
        datagram = encode_packet(make_header(), b"")
        assert len(datagram) == HEADER_SIZE == 20

    def test_header_size_constant(self) -> None:
        for header in (
            make_header(),
            make_header(src=VirtualAddress(65535, 2**32 - 1), flags=255),
            make_header(src_port=0, dst_port=65535),
        ):
            assert len(header.to_bytes()) == HEADER_SIZE

    def test_round_trip_identity(self) -> None:
        header = make_header(flags=3)
        decoded, payload = decode_packet(encode_packet(header, b"abcde"))
        assert decoded == header
        assert payload == b"abcde"

    def test_payload_at_ceiling_accepted(self) -> None:
        blob = b"\x00" * MAX_PAYLOAD_SIZE
        header = make_header()
        decoded, payload = decode_packet(encode_packet(header, blob))
        assert decoded == header
        assert payload == blob

    def test_oversize_payload_rejected(self) -> None:
        with pytest.raises(OversizePayloadError):
            encode_packet(make_header(), b"\x00" * (MAX_PAYLOAD_SIZE + 1))

    def test_oversize_datagram_rejected_on_decode(self) -> None:
        datagram = make_header().to_bytes() + b"\x00" * (MAX_PAYLOAD_SIZE + 1)
        assert len(datagram) == HEADER_SIZE + 65_488
        with pytest.raises(OversizePayloadError) as caught:
            decode_packet(datagram)
        assert str(caught.value) == "payload of 65488 bytes exceeds 65487"

    def test_truncated_rejected(self) -> None:
        with pytest.raises(TruncatedPacketError):
            decode_packet(b"\x50\x56\x01\x00\x00")

    def test_bad_magic_rejected(self) -> None:
        datagram = bytearray(encode_packet(make_header(), b""))
        datagram[0] = 0x00
        datagram[1] = 0x00
        with pytest.raises(BadMagicError):
            decode_packet(bytes(datagram))

    def test_bad_version_rejected(self) -> None:
        datagram = bytearray(encode_packet(make_header(), b""))
        datagram[2] = 9
        with pytest.raises(BadVersionError):
            decode_packet(bytes(datagram))

    def test_port_range_validated(self) -> None:
        with pytest.raises(CodecError):
            make_header(src_port=70_000)
        with pytest.raises(CodecError):
            make_header(dst_port=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("src_port", 70_000, "src_port 70000 outside 16-bit range"),
            ("dst_port", -1, "dst_port -1 outside 16-bit range"),
            ("flags", 300, "flags 300 outside 8-bit range"),
        ],
    )
    def test_range_messages(self, field: str, value: int, message: str) -> None:
        with pytest.raises(CodecError) as caught:
            make_header(**{field: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("src_port", 70_000, "src_port 70000 outside 16-bit range"),
            ("dst_port", -1, "dst_port -1 outside 16-bit range"),
            ("flags", 300, "flags 300 outside 8-bit range"),
        ],
    )
    def test_replace_and_make_check_ranges(self, field: str, value: int, message: str) -> None:
        header = make_header()
        values = {**header._asdict(), field: value}.values()
        for build in (lambda: header._replace(**{field: value}), lambda: PacketHeader._make(values)):
            with pytest.raises(CodecError) as caught:
                build()
            assert str(caught.value) == message
        assert header._replace(flags=7) == make_header(flags=7)
        assert type(header._replace(flags=7)) is PacketHeader

    def test_header_is_an_immutable_tuple(self) -> None:
        header = make_header(flags=7)
        assert PacketHeader._fields == ("src", "dst", "src_port", "dst_port", "flags")
        assert header == (VirtualAddress(0, 1), VirtualAddress(0, 2), 50_000, 443, 7)
        assert make_header().flags == 0
        assert hash(header) == hash(tuple(header))
        with pytest.raises(AttributeError):
            header.flags = 0
        with pytest.raises(AttributeError):
            header.version = 1

    @given(
        src=addresses,
        dst=addresses,
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        flags=st.integers(0, 255),
        payload=st.binary(max_size=2048),
    )
    @settings(max_examples=300)
    def test_packet_round_trip(
        self,
        src: VirtualAddress,
        dst: VirtualAddress,
        src_port: int,
        dst_port: int,
        flags: int,
        payload: bytes,
    ) -> None:
        header = PacketHeader(
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=dst_port,
            flags=flags,
        )
        datagram = encode_packet(header, payload)
        assert len(datagram) == HEADER_SIZE + len(payload)
        decoded, decoded_payload = decode_packet(datagram)
        assert decoded == header
        assert decoded_payload == payload

    @given(st.binary(min_size=17, max_size=17), st.binary(max_size=64))
    @settings(max_examples=500)
    def test_decoded_header_is_a_valid_header(self, fields: bytes, payload: bytes) -> None:
        """decode_packet skips the constructors' checks: every header it builds
        behind good magic and version is one PacketHeader(...) accepts."""
        datagram = MAGIC + bytes([PROTOCOL_VERSION]) + fields + payload
        ints = [int.from_bytes(fields[a:b], "big") for a, b in FIELD_SPANS]
        flags, src_net, src_node, dst_net, dst_node, src_port, dst_port = ints
        decoded, decoded_payload = decode_packet(datagram)
        checked = PacketHeader(
            VirtualAddress(src_net, src_node),
            VirtualAddress(dst_net, dst_node),
            src_port,
            dst_port,
            flags,
        )
        assert decoded == checked
        assert [type(decoded), type(decoded.src), type(decoded.dst)] == [
            PacketHeader, VirtualAddress, VirtualAddress
        ]
        assert decoded.to_bytes() == datagram[:HEADER_SIZE]
        assert decoded_payload == payload
