"""Secure channel tests: key agreement, sealing, replay, handshake.

The X25519 route is checked three ways: frozen published vectors, a
pure-Python Montgomery ladder oracle, and cross-agreement between the two on
random inputs. AEAD wiring is checked against frozen AES-256-GCM vectors and
a manual reconstruction of the seal layout. The cryptography-backed SHA-256
is checked against `hashlib`.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from _oracles import GCM_VECTORS, X25519_DH_VECTOR, X25519_SCALARMULT_VECTORS
import trustnet.channel
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
    ChannelError,
    CounterExhaustedError,
    HandshakeError,
    LowOrderPointError,
    ReplayDetectedError,
    ResponderDeclinedError,
    SignatureInvalidError,
)
from trustnet.overlay import FRAME_ACCEPT, FRAME_DECLINE, PacketHeader, VirtualAddress
from trustnet.sim import _split_rng

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


class TestSHA256:
    def test_transcript_hash_is_hashlib_over_label_and_parts(self) -> None:
        initiator, responder = VirtualAddress(0, 10), VirtualAddress(3, 77)
        eph_a, eph_b = bytes(range(32)), bytes(range(32, 64))
        expected = hashlib.sha256(
            b"trustnet-hs-v1" + initiator.to_bytes() + responder.to_bytes() + eph_a + eph_b
        ).digest()
        assert transcript_hash(initiator, responder, eph_a, eph_b) == expected

    def test_split_rng_draws_the_hashlib_derivation(self) -> None:
        seed = int.from_bytes(hashlib.sha256(b"7|agent-0").digest(), "big")
        expected = random.Random(seed)
        drawn = _split_rng(7, "agent-0")
        assert [drawn.getrandbits(64) for _ in range(8)] == [
            expected.getrandbits(64) for _ in range(8)
        ]


def make_pair(seed: int = 7) -> tuple[SecureSession, SecureSession, PacketHeader]:
    rng = random.Random(seed)
    a_addr, b_addr = VirtualAddress(0, 10), VirtualAddress(0, 11)
    a_eph, b_eph = generate_exchange_key(rng), generate_exchange_key(rng)
    transcript = transcript_hash(
        a_addr, b_addr, exchange_public_bytes(a_eph), exchange_public_bytes(b_eph)
    )
    sender = derive_session(
        a_eph, exchange_public_bytes(b_eph), transcript=transcript, rng=rng
    )
    receiver = derive_session(
        b_eph, exchange_public_bytes(a_eph), transcript=transcript, rng=rng
    )
    header = PacketHeader(src=a_addr, dst=b_addr, src_port=443, dst_port=443)
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

    def test_session_keeps_no_cipher_context(self) -> None:
        """A kept AESGCM holds 2.8 KB of native memory for the session's life;
        seal and open build one per message instead."""
        sender, receiver, header = make_pair()
        receiver.open(header, sender.seal(header, b"payload"))
        for session in (sender, receiver):
            assert not any(isinstance(value, AESGCM) for value in vars(session).values())

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
                    session_key=sender.session_key,
                    nonce_prefix=b"\x00\x00\x00\x00",
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

    def test_message_shorter_than_nonce_plus_tag_fails_auth(self) -> None:
        sender, receiver, header = make_pair()
        with pytest.raises(AuthFailureError) as caught:
            receiver.open(header, bytes(SEAL_OVERHEAD - 1))
        assert str(caught.value) == "sealed message shorter than nonce plus tag"

    @pytest.mark.parametrize(
        "key, prefix, message",
        [
            (bytes(31), bytes(4), "session key must be 32 bytes"),
            (bytes(32), bytes(3), "nonce prefix must be 4 bytes"),
        ],
    )
    def test_session_sizes_checked(self, key: bytes, prefix: bytes, message: str) -> None:
        with pytest.raises(ChannelError) as caught:
            SecureSession(key, prefix)
        assert type(caught.value) is ChannelError
        assert str(caught.value) == message


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
            window = ReplayWindow()
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
            window = ReplayWindow()
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

    def test_retransmitted_request_is_verified_once(self, monkeypatch) -> None:
        calls, verify = [], trustnet.channel.verify_signature

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(trustnet.channel, "verify_signature", counted)
        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        body = initiator.request_payload()[1:]
        first = responder.on_request(alice.address, body)
        assert responder.on_request(alice.address, body) == first
        assert len(calls) == 1
        # The same ephemeral key under a bad signature is verified, and refused.
        forged = body[:-1] + bytes([body[-1] ^ 0x01])
        with pytest.raises(SignatureInvalidError):
            responder.on_request(alice.address, forged)
        assert len(calls) == 2

    def test_retransmitted_request_still_asks_the_policy(self) -> None:
        class AcceptOnce:
            def __init__(self) -> None:
                self.asked = 0

            def accepts(self, initiator: VirtualAddress) -> bool:
                self.asked += 1
                return self.asked == 1

        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        policy = AcceptOnce()
        responder = HandshakeResponder(bob, policy, directory.__getitem__, random.Random(3))
        body = initiator.request_payload()[1:]
        assert responder.on_request(alice.address, body)[0] == FRAME_ACCEPT
        assert responder.on_request(alice.address, body) == bytes([FRAME_DECLINE])
        assert policy.asked == 2

    def test_initiator_drops_its_ephemeral_secret(self) -> None:
        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        accept = responder.on_request(alice.address, initiator.request_payload()[1:])
        initiator.on_accept(accept[1:])
        assert initiator.session is not None
        assert not any(isinstance(value, X25519PrivateKey) for value in vars(initiator).values())
        with pytest.raises(HandshakeError):
            initiator.on_accept(accept[1:])

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

    def test_handshake_frame_of_wrong_length_fails(self) -> None:
        alice, bob, directory = make_identities()
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        request = initiator.request_payload()[1:]
        with pytest.raises(HandshakeError) as caught:
            responder.on_request(alice.address, request[:-1])
        assert str(caught.value) == "bad handshake frame length 127"
        accept = responder.on_request(alice.address, request)[1:]
        with pytest.raises(HandshakeError) as caught:
            initiator.on_accept(accept + b"\x00")
        assert str(caught.value) == "bad handshake frame length 129"

    def test_accept_from_an_unregistered_key_fails_at_the_initiator(self) -> None:
        alice, bob, directory = make_identities()
        stranger = AgentIdentity.generate(bob.address, random.Random(666))
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        # The responder answers with its own key, which the registry does not hold.
        responder = HandshakeResponder(
            stranger, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        accept = responder.on_request(alice.address, initiator.request_payload()[1:])
        with pytest.raises(SignatureInvalidError) as caught:
            initiator.on_accept(accept[1:])
        assert str(caught.value) == "responder key does not match the registered identity"

    def test_confirm_without_pending_handshake_or_of_wrong_length_fails(self) -> None:
        alice, bob, directory = make_identities()
        responder = HandshakeResponder(
            bob, AcceptAllPolicy(), directory.__getitem__, random.Random(3)
        )
        with pytest.raises(HandshakeError) as caught:
            responder.on_confirm(alice.address, bytes(64))
        assert str(caught.value) == f"no pending handshake with {alice.address}"
        initiator = HandshakeInitiator(
            alice, bob.address, directory.__getitem__, random.Random(2)
        )
        responder.on_request(alice.address, initiator.request_payload()[1:])
        with pytest.raises(HandshakeError) as caught:
            responder.on_confirm(alice.address, bytes(63))
        assert str(caught.value) == "bad CONFIRM length 63"
