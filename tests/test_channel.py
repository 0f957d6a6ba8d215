"""Secure channel tests: key agreement, sealing, replay, handshake.

The X25519 route is checked three ways: frozen published vectors, a
pure-Python Montgomery ladder oracle, and cross-agreement between the two on
random inputs. AEAD wiring is checked against frozen AES-256-GCM vectors and
a manual reconstruction of the seal layout.
"""

from __future__ import annotations

import random
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from trustnet.channel import (
    SEAL_OVERHEAD,
    AcceptAllPolicy,
    AgentIdentity,
    HandshakeInitiator,
    HandshakeResponder,
    ReplayWindow,
    SecureSession,
    TrustRecord,
    derive_session,
    exchange,
    exchange_public_bytes,
    generate_exchange_key,
    run_handshake,
    transcript_hash,
)
from trustnet.errors import (
    AuthFailureError,
    CounterExhaustedError,
    LowOrderPointError,
    ReplayDetectedError,
    ResponderDeclinedError,
    SignatureInvalidError,
)
from trustnet.overlay import PacketHeader, VirtualAddress

# --- frozen vectors (RFC 7748 sections 5.2 and 6.1) ---

X25519_SCALARMULT_VECTORS = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]

X25519_DH_VECTOR = {
    "a_private": "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
    "a_public": "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
    "b_private": "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
    "b_public": "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
    "shared": "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742",
}

# AES-256-GCM canonical vectors (zero-key cases and the feffe992... case)
GCM_VECTORS = [
    {
        "key": "00" * 32,
        "iv": "00" * 12,
        "plaintext": "",
        "aad": "",
        "ciphertext": "",
        "tag": "530f8afbc74536b9a963b4f1c4cb738b",
    },
    {
        "key": "00" * 32,
        "iv": "00" * 12,
        "plaintext": "00" * 16,
        "aad": "",
        "ciphertext": "cea7403d4d606b6e074ec5d3baf39d18",
        "tag": "d0d1c8a799996bf0265b98b5d48ab919",
    },
    {
        "key": "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "iv": "cafebabefacedbaddecaf888",
        "plaintext": (
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        ),
        "aad": "",
        "ciphertext": (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
        ),
        "tag": "b094dac5d93471bdec1a502270e3cc6c",
    },
    {
        "key": "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "iv": "cafebabefacedbaddecaf888",
        "plaintext": (
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        ),
        "aad": "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "ciphertext": (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        ),
        "tag": "76fc6ece0f4e1768cddf8853bb2d551b",
    },
]

# --- independent X25519 oracle: RFC 7748 Montgomery ladder ---

_P = 2**255 - 19
_A24 = 121665


def _ladder(scalar: bytes, u: bytes) -> bytes:
    clamped = bytearray(scalar)
    clamped[0] &= 248
    clamped[31] &= 127
    clamped[31] |= 64
    k = int.from_bytes(clamped, "little")
    masked = bytearray(u)
    masked[31] &= 127
    x1 = int.from_bytes(masked, "little") % _P
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        bit = (k >> t) & 1
        swap ^= bit
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit
        a = (x2 + z2) % _P
        aa = a * a % _P
        b = (x2 - z2) % _P
        bb = b * b % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = d * a % _P
        cb = c * b % _P
        x3 = (da + cb) % _P
        x3 = x3 * x3 % _P
        z3 = (da - cb) % _P
        z3 = x1 * z3 * z3 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, _P - 2, _P) % _P).to_bytes(32, "little")


def priv(hex_scalar: str) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(bytes.fromhex(hex_scalar))


class TestX25519:
    def test_scalarmult_vectors(self) -> None:
        for scalar, u, want in X25519_SCALARMULT_VECTORS:
            got = exchange(priv(scalar), bytes.fromhex(u))
            assert got.hex() == want

    def test_oracle_matches_vectors(self) -> None:
        for scalar, u, want in X25519_SCALARMULT_VECTORS:
            assert _ladder(bytes.fromhex(scalar), bytes.fromhex(u)).hex() == want

    def test_dh_vector(self) -> None:
        v = X25519_DH_VECTOR
        a, b = priv(v["a_private"]), priv(v["b_private"])
        assert exchange_public_bytes(a).hex() == v["a_public"]
        assert exchange_public_bytes(b).hex() == v["b_public"]
        assert exchange(a, exchange_public_bytes(b)).hex() == v["shared"]
        assert exchange(b, exchange_public_bytes(a)).hex() == v["shared"]

    def test_exchange_agrees_with_oracle_on_random_inputs(self) -> None:
        rng = random.Random(0xC0FFEE)
        for _ in range(20):
            scalar = rng.randbytes(32)
            peer = generate_exchange_key(rng)
            peer_pub = exchange_public_bytes(peer)
            got = exchange(X25519PrivateKey.from_private_bytes(scalar), peer_pub)
            assert got == _ladder(scalar, peer_pub)

    def test_low_order_points_rejected(self) -> None:
        key = priv(X25519_DH_VECTOR["a_private"])
        for u in (bytes(32), b"\x01" + bytes(31)):
            with pytest.raises(LowOrderPointError):
                exchange(key, u)


class TestAEADVectors:
    def test_frozen_gcm_vectors(self) -> None:
        for vec in GCM_VECTORS:
            key = bytes.fromhex(vec["key"])
            sealed = AESGCM(key).encrypt(
                bytes.fromhex(vec["iv"]),
                bytes.fromhex(vec["plaintext"]),
                bytes.fromhex(vec["aad"]) or None,
            )
            assert sealed.hex() == vec["ciphertext"] + vec["tag"]


def make_pair(seed: int = 7) -> tuple[SecureSession, SecureSession, PacketHeader]:
    rng = random.Random(seed)
    a_addr, b_addr = VirtualAddress(0, 10), VirtualAddress(0, 11)
    a_eph, b_eph = generate_exchange_key(rng), generate_exchange_key(rng)
    transcript = transcript_hash(
        a_addr, b_addr, exchange_public_bytes(a_eph), exchange_public_bytes(b_eph)
    )
    sender = derive_session(
        a_eph,
        exchange_public_bytes(b_eph),
        "initiator",
        local=a_addr,
        peer=b_addr,
        transcript=transcript,
        rng=rng,
    )
    receiver = derive_session(
        b_eph,
        exchange_public_bytes(a_eph),
        "responder",
        local=b_addr,
        peer=a_addr,
        transcript=transcript,
        rng=rng,
    )
    header = PacketHeader(
        src=a_addr, dst=b_addr, src_port=443, dst_port=443, payload_length=0
    )
    return sender, receiver, header


class TestSealOpen:
    def test_sessions_derive_identical_keys(self) -> None:
        sender, receiver, _ = make_pair()
        assert sender.session_key == receiver.session_key
        assert len(sender.session_key) == 32

    def test_round_trip(self) -> None:
        sender, receiver, header = make_pair()
        sealed = sender.seal(header, b"hello overlay")
        assert receiver.open(header, sealed) == b"hello overlay"

    def test_empty_plaintext_seals_to_28_bytes(self) -> None:
        sender, receiver, header = make_pair()
        sealed = sender.seal(header, b"")
        assert len(sealed) == SEAL_OVERHEAD == 28
        assert receiver.open(header, sealed) == b""

    def test_seal_layout_matches_manual_aead(self) -> None:
        sender, _, header = make_pair()
        sealed = sender.seal(header, b"payload")
        nonce = sealed[:12]
        assert nonce[:4] == sender.nonce_prefix
        assert struct.unpack("!Q", nonce[4:])[0] == 0
        manual = AESGCM(sender.session_key).encrypt(nonce, b"payload", header.to_bytes())
        assert sealed[12:] == manual

    def test_counter_increments_per_seal(self) -> None:
        sender, _, header = make_pair()
        for expected in range(5):
            sealed = sender.seal(header, b"x")
            assert struct.unpack("!Q", sealed[4:12])[0] == expected

    def test_every_bitflip_fails_auth(self) -> None:
        sender, _, header = make_pair()
        sealed = sender.seal(header, b"attack at dawn")
        for position in range(len(sealed)):
            for bit in (0, 7):
                tampered = bytearray(sealed)
                tampered[position] ^= 1 << bit
                # fresh window each time so the only possible verdict is auth
                fresh = SecureSession(
                    local=VirtualAddress(0, 11),
                    peer=VirtualAddress(0, 10),
                    session_key=sender.session_key,
                    nonce_prefix=b"\x00\x00\x00\x00",
                    role="responder",
                )
                with pytest.raises(AuthFailureError):
                    fresh.open(header, bytes(tampered))

    def test_header_tamper_fails_auth(self) -> None:
        sender, receiver, header = make_pair()
        sealed = sender.seal(header, b"bound to header")
        wrong = PacketHeader(
            src=header.src,
            dst=header.dst,
            src_port=header.src_port,
            dst_port=80,
            payload_length=0,
        )
        with pytest.raises(AuthFailureError):
            receiver.open(wrong, sealed)

    def test_replay_rejected(self) -> None:
        sender, receiver, header = make_pair()
        sealed = sender.seal(header, b"once")
        assert receiver.open(header, sealed) == b"once"
        with pytest.raises(ReplayDetectedError):
            receiver.open(header, sealed)

    def test_reorder_within_window_accepted(self) -> None:
        sender, receiver, header = make_pair()
        sealed = [sender.seal(header, bytes([i])) for i in range(3)]
        assert receiver.open(header, sealed[0]) == b"\x00"
        assert receiver.open(header, sealed[2]) == b"\x02"
        assert receiver.open(header, sealed[1]) == b"\x01"

    def test_counter_behind_window_rejected(self) -> None:
        sender, receiver, header = make_pair()
        sealed = [sender.seal(header, b"m") for _ in range(70)]
        receiver.open(header, sealed[69])
        with pytest.raises(ReplayDetectedError):
            receiver.open(header, sealed[0])
        assert receiver.open(header, sealed[69 - 63]) == b"m"

    def test_counter_exhaustion(self) -> None:
        sender, _, header = make_pair()
        sender.send_counter = 2**64
        with pytest.raises(CounterExhaustedError):
            sender.seal(header, b"late")

    def test_tamper_never_pollutes_window(self) -> None:
        sender, receiver, header = make_pair()
        sealed = sender.seal(header, b"original")
        tampered = bytearray(sealed)
        tampered[-1] ^= 0xFF
        with pytest.raises(AuthFailureError):
            receiver.open(header, bytes(tampered))
        assert receiver.open(header, sealed) == b"original"


class TestReplayWindowOracle:
    """Window behavior must match a naive unbounded-set oracle."""

    @staticmethod
    def oracle_decision(seen: set[int], highest: int, counter: int, size: int) -> bool:
        if counter in seen:
            return False
        if highest >= 0 and counter <= highest - size:
            return False
        return True

    def test_random_sequences_match_oracle(self) -> None:
        rng = random.Random(1234)
        for _ in range(200):
            window = ReplayWindow(size=64)
            seen: set[int] = set()
            highest = -1
            for _ in range(300):
                counter = rng.randrange(0, 200)
                want = self.oracle_decision(seen, highest, counter, 64)
                got = not window.seen(counter)
                assert got == want, (counter, highest)
                if got:
                    window.record(counter)
                    seen.add(counter)
                    highest = max(highest, counter)

    def test_permutations_of_small_batches(self) -> None:
        import itertools

        for perm in itertools.permutations(range(4)):
            window = ReplayWindow(size=64)
            for counter in perm:
                assert not window.seen(counter)
                window.record(counter)
            for counter in range(4):
                assert window.seen(counter)


def make_identities() -> tuple[AgentIdentity, AgentIdentity, dict]:
    rng = random.Random(99)
    alice = AgentIdentity.generate(VirtualAddress(0, 100), rng)
    bob = AgentIdentity.generate(VirtualAddress(0, 200), rng)
    directory = {alice.address: alice.public_key, bob.address: bob.public_key}
    return alice, bob, directory


class TestHandshake:
    def test_full_handshake_produces_record_and_sessions(self) -> None:
        alice, bob, directory = make_identities()
        record, s_init, s_resp = run_handshake(
            alice, bob, AcceptAllPolicy(), directory.__getitem__, random.Random(1)
        )
        assert record == TrustRecord.of(alice.address, bob.address)
        assert s_init.session_key == s_resp.session_key
        header = PacketHeader(
            src=alice.address,
            dst=bob.address,
            src_port=443,
            dst_port=443,
            payload_length=0,
        )
        assert s_resp.open(header, s_init.seal(header, b"hi")) == b"hi"

    def test_self_handshake(self) -> None:
        rng = random.Random(5)
        solo = AgentIdentity.generate(VirtualAddress(0, 42), rng)
        directory = {solo.address: solo.public_key}
        record, s_init, s_resp = run_handshake(
            solo, solo, AcceptAllPolicy(), directory.__getitem__, rng
        )
        assert record.a == record.b == solo.address
        assert s_init.session_key == s_resp.session_key

    def test_decline_all(self) -> None:
        class DeclineAll:
            def accepts(self, initiator: VirtualAddress) -> bool:
                return False

        alice, bob, directory = make_identities()
        with pytest.raises(ResponderDeclinedError):
            run_handshake(
                alice, bob, DeclineAll(), directory.__getitem__, random.Random(1)
            )

    def test_mismatched_registered_key_fails(self) -> None:
        alice, bob, directory = make_identities()
        imposter = AgentIdentity.generate(alice.address, random.Random(666))
        # imposter signs correctly with its own key, but the registry says otherwise
        with pytest.raises(SignatureInvalidError):
            run_handshake(
                imposter, bob, AcceptAllPolicy(), directory.__getitem__, random.Random(1)
            )

    def test_tampered_request_signature_fails(self) -> None:
        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        request = bytearray(initiator.request_payload())
        request[-1] ^= 0x01
        with pytest.raises(SignatureInvalidError):
            responder.on_request(alice.address, bytes(request[1:]))

    def test_low_order_ephemeral_rejected(self) -> None:
        alice, bob, directory = make_identities()
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        from trustnet.channel import _request_message  # white-box: craft a bad frame

        zero_eph = bytes(32)
        signature = alice.sign(_request_message(alice.address, bob.address, zero_eph))
        body = alice.public_key + zero_eph + signature
        with pytest.raises(LowOrderPointError):
            responder.on_request(alice.address, body)

    def test_retransmitted_request_repeats_accept(self) -> None:
        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        request = initiator.request_payload()
        first = responder.on_request(alice.address, request[1:])
        second = responder.on_request(alice.address, request[1:])
        assert first == second

    def test_confirm_against_wrong_transcript_fails(self) -> None:
        alice, bob, directory = make_identities()
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        accept = responder.on_request(alice.address, initiator.request_payload()[1:])
        initiator.on_accept(accept[1:])
        bogus_confirm = alice.sign(b"trustnet-hs-cfm" + bytes(32))
        with pytest.raises(SignatureInvalidError):
            responder.on_confirm(alice.address, bogus_confirm)
