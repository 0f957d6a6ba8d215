"""Authenticated key agreement and sealed messaging between agents.

Trust between two agents is established by a three-frame handshake
(REQUEST, ACCEPT, CONFIRM) relayed through the registry on port 444. Each
side contributes a fresh X25519 key; both long-lived Ed25519 identity keys
sign the growing transcript, and signatures are verified against the keys
registered with the registry, never against keys claimed in the frames
alone. Both sides derive the same 256-bit session key with HKDF-SHA256
(extract over the shared secret, expand with the transcript hash).

Application traffic is sealed with AES-256-GCM. The 12-byte nonce is a
4-byte random per-direction prefix followed by a 64-bit big-endian send
counter; the serialized 20-byte packet header is bound as associated data.
Receivers keep a 64-entry sliding window over counters, so reordered
delivery inside the window is accepted and replays are rejected.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import (
    AuthFailureError,
    ChannelError,
    CounterExhaustedError,
    HandshakeError,
    LowOrderPointError,
    ReplayDetectedError,
    ResponderDeclinedError,
    SignatureInvalidError,
)
from .overlay import PacketHeader, VirtualAddress

FRAME_REQUEST = 1
FRAME_ACCEPT = 2
FRAME_CONFIRM = 3
FRAME_DATA = 4
FRAME_DECLINE = 5
FRAME_ERROR = 6

ERROR_UNKNOWN_DESTINATION = 1

KEY_SIZE = 32
SIGNATURE_SIZE = 64
NONCE_PREFIX_SIZE = 4
NONCE_SIZE = 12
TAG_SIZE = 16
SEAL_OVERHEAD = NONCE_SIZE + TAG_SIZE
REPLAY_WINDOW_SIZE = 64
MAX_COUNTER = 2**64 - 1

_HKDF_SALT = b"trustnet-channel-v1"
_TRANSCRIPT_LABEL = b"trustnet-hs-v1"
_SIG_REQUEST = b"trustnet-hs-req"
_SIG_ACCEPT = b"trustnet-hs-acc"
_SIG_CONFIRM = b"trustnet-hs-cfm"

_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw

KeyLookup = Callable[[VirtualAddress], bytes]


def _random_bytes(n: int, rng: Optional[random.Random]) -> bytes:
    return os.urandom(n) if rng is None else rng.randbytes(n)


@dataclass
class AgentIdentity:
    """Long-lived Ed25519 identity bound to an overlay address."""

    address: VirtualAddress
    signing_key: ed25519.Ed25519PrivateKey

    @classmethod
    def generate(
        cls, address: VirtualAddress, rng: Optional[random.Random] = None
    ) -> "AgentIdentity":
        """Create a fresh identity; pass rng only for reproducible simulations."""
        seed = _random_bytes(KEY_SIZE, rng)
        return cls(address, ed25519.Ed25519PrivateKey.from_private_bytes(seed))

    @property
    def public_key(self) -> bytes:
        return self.signing_key.public_key().public_bytes(_RAW, _RAW_PUB)

    def sign(self, message: bytes) -> bytes:
        return self.signing_key.sign(message)


def verify_signature(public_key: bytes, signature: bytes, message: bytes) -> None:
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(
            signature, message
        )
    except (InvalidSignature, ValueError) as exc:
        raise SignatureInvalidError(str(exc)) from exc


def generate_exchange_key(
    rng: Optional[random.Random] = None,
) -> x25519.X25519PrivateKey:
    """Fresh ephemeral X25519 key; rng only for reproducible simulations."""
    return x25519.X25519PrivateKey.from_private_bytes(_random_bytes(KEY_SIZE, rng))


def exchange_public_bytes(key: x25519.X25519PrivateKey) -> bytes:
    return key.public_key().public_bytes(_RAW, _RAW_PUB)


def exchange(local_secret: x25519.X25519PrivateKey, remote_public: bytes) -> bytes:
    """X25519 shared secret; rejects low-order points (all-zero output)."""
    try:
        shared = local_secret.exchange(
            x25519.X25519PublicKey.from_public_bytes(remote_public)
        )
    except ValueError as exc:
        raise LowOrderPointError(str(exc)) from exc
    if shared == bytes(KEY_SIZE):
        raise LowOrderPointError("all-zero shared secret")
    return shared


def transcript_hash(
    initiator: VirtualAddress,
    responder: VirtualAddress,
    initiator_ephemeral: bytes,
    responder_ephemeral: bytes,
) -> bytes:
    digest = hashlib.sha256()
    digest.update(_TRANSCRIPT_LABEL)
    digest.update(initiator.to_bytes())
    digest.update(responder.to_bytes())
    digest.update(initiator_ephemeral)
    digest.update(responder_ephemeral)
    return digest.digest()


class ReplayWindow:
    """Sliding acceptance window over receive counters.

    Tracks the highest accepted counter and a bitmap of the `size` counters
    at and below it. Counters older than the window are indistinguishable
    from replays and are rejected.
    """

    def __init__(self, size: int = REPLAY_WINDOW_SIZE) -> None:
        self._size = size
        self._highest = -1
        self._mask = 0

    def seen(self, counter: int) -> bool:
        if counter > self._highest:
            return False
        offset = self._highest - counter
        if offset >= self._size:
            return True
        return bool((self._mask >> offset) & 1)

    def record(self, counter: int) -> None:
        if counter > self._highest:
            shift = counter - self._highest
            if shift >= self._size:
                self._mask = 1
            else:
                self._mask = ((self._mask << shift) | 1) & ((1 << self._size) - 1)
            self._highest = counter
        else:
            self._mask |= 1 << (self._highest - counter)


@dataclass
class SecureSession:
    """One direction-symmetric sealed channel between two agents."""

    local: VirtualAddress
    peer: VirtualAddress
    session_key: bytes
    nonce_prefix: bytes
    role: str
    send_counter: int = 0
    _window: ReplayWindow = field(default_factory=ReplayWindow, repr=False)

    def __post_init__(self) -> None:
        if len(self.session_key) != KEY_SIZE:
            raise ChannelError("session key must be 32 bytes")
        if len(self.nonce_prefix) != NONCE_PREFIX_SIZE:
            raise ChannelError("nonce prefix must be 4 bytes")
        self._aead = AESGCM(self.session_key)

    def seal(self, header: PacketHeader, plaintext: bytes) -> bytes:
        """Encrypt plaintext bound to the serialized header.

        Output layout: nonce(12) || ciphertext || tag(16).
        """
        if self.send_counter > MAX_COUNTER:
            raise CounterExhaustedError("send counter exhausted; rekey required")
        nonce = self.nonce_prefix + struct.pack("!Q", self.send_counter)
        sealed = nonce + self._aead.encrypt(nonce, plaintext, header.to_bytes())
        self.send_counter += 1
        return sealed

    def open(self, header: PacketHeader, sealed: bytes) -> bytes:
        """Verify and decrypt a sealed message; replays never reach the AEAD."""
        if len(sealed) < SEAL_OVERHEAD:
            raise AuthFailureError("sealed message shorter than nonce plus tag")
        nonce = sealed[:NONCE_SIZE]
        counter = struct.unpack("!Q", nonce[NONCE_PREFIX_SIZE:])[0]
        if self._window.seen(counter):
            raise ReplayDetectedError(f"counter {counter} already accepted")
        try:
            plaintext = self._aead.decrypt(
                nonce, sealed[NONCE_SIZE:], header.to_bytes()
            )
        except InvalidTag as exc:
            raise AuthFailureError("tag verification failed") from exc
        self._window.record(counter)
        return plaintext


def derive_session(
    local_eph_secret: x25519.X25519PrivateKey,
    remote_eph_public: bytes,
    role: str,
    *,
    local: VirtualAddress,
    peer: VirtualAddress,
    transcript: bytes,
    rng: Optional[random.Random] = None,
) -> SecureSession:
    """Derive the shared session from an ephemeral exchange.

    Both sides obtain the identical key; each draws an independent random
    nonce prefix so counters never collide across directions. `role` is
    retained for traces and diagnostics.
    """
    if role not in ("initiator", "responder"):
        raise ChannelError(f"unknown role {role!r}")
    shared = exchange(local_eph_secret, remote_eph_public)
    key = HKDF(
        algorithm=hashes.SHA256(),
        length=KEY_SIZE,
        salt=_HKDF_SALT,
        info=transcript,
    ).derive(shared)
    return SecureSession(
        local=local,
        peer=peer,
        session_key=key,
        nonce_prefix=_random_bytes(NONCE_PREFIX_SIZE, rng),
        role=role,
    )


# --- trust policies ---


class AcceptAllPolicy:
    """Accepts every handshake request."""

    def accepts(self, initiator: VirtualAddress) -> bool:
        return True


# --- handshake frames ---


@dataclass(frozen=True)
class TrustRecord:
    """Unordered trusted pair; a == b records self-trust."""

    a: VirtualAddress
    b: VirtualAddress

    @classmethod
    def of(cls, x: VirtualAddress, y: VirtualAddress) -> "TrustRecord":
        return cls(min(x, y), max(x, y))


def _request_message(
    initiator: VirtualAddress, responder: VirtualAddress, eph: bytes
) -> bytes:
    return _SIG_REQUEST + initiator.to_bytes() + responder.to_bytes() + eph


def _accept_message(
    initiator: VirtualAddress,
    responder: VirtualAddress,
    initiator_eph: bytes,
    responder_eph: bytes,
) -> bytes:
    return (
        _SIG_ACCEPT
        + initiator.to_bytes()
        + responder.to_bytes()
        + initiator_eph
        + responder_eph
    )


def _split_keyed_frame(body: bytes) -> tuple[bytes, bytes, bytes]:
    if len(body) != KEY_SIZE + KEY_SIZE + SIGNATURE_SIZE:
        raise HandshakeError(f"bad handshake frame length {len(body)}")
    return (
        body[:KEY_SIZE],
        body[KEY_SIZE : 2 * KEY_SIZE],
        body[2 * KEY_SIZE :],
    )


class HandshakeInitiator:
    """Initiator-side state machine; produces frame payloads for port 444.

    Frame payloads are `type_byte || body`; the caller wraps them in overlay
    packets and moves them through the relay.
    """

    def __init__(
        self,
        identity: AgentIdentity,
        responder: VirtualAddress,
        key_lookup: KeyLookup,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.identity = identity
        self.responder = responder
        self._key_lookup = key_lookup
        self._rng = rng
        self._eph = generate_exchange_key(rng)
        self._eph_pub = exchange_public_bytes(self._eph)
        self.session: Optional[SecureSession] = None
        self.record: Optional[TrustRecord] = None

    def request_payload(self) -> bytes:
        signature = self.identity.sign(
            _request_message(self.identity.address, self.responder, self._eph_pub)
        )
        body = self.identity.public_key + self._eph_pub + signature
        return bytes([FRAME_REQUEST]) + body

    def on_accept(self, body: bytes) -> bytes:
        """Verify the ACCEPT frame, derive the session, return CONFIRM payload."""
        claimed_key, responder_eph, signature = _split_keyed_frame(body)
        registered = self._key_lookup(self.responder)
        if claimed_key != registered:
            raise SignatureInvalidError(
                "responder key does not match the registered identity"
            )
        verify_signature(
            registered,
            signature,
            _accept_message(
                self.identity.address, self.responder, self._eph_pub, responder_eph
            ),
        )
        transcript = transcript_hash(
            self.identity.address, self.responder, self._eph_pub, responder_eph
        )
        self.session = derive_session(
            self._eph,
            responder_eph,
            "initiator",
            local=self.identity.address,
            peer=self.responder,
            transcript=transcript,
            rng=self._rng,
        )
        self.record = TrustRecord.of(self.identity.address, self.responder)
        confirm_sig = self.identity.sign(_SIG_CONFIRM + transcript)
        return bytes([FRAME_CONFIRM]) + confirm_sig

    def on_decline(self) -> None:
        raise ResponderDeclinedError(f"{self.responder} declined the handshake")


class HandshakeResponder:
    """Responder-side state machine handling REQUEST and CONFIRM frames."""

    def __init__(
        self,
        identity: AgentIdentity,
        policy,
        key_lookup: KeyLookup,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.identity = identity
        self.policy = policy
        self._key_lookup = key_lookup
        self._rng = rng
        # pending handshakes keyed by initiator address
        self._pending: dict[VirtualAddress, dict] = {}

    def on_request(self, initiator: VirtualAddress, body: bytes) -> bytes:
        """Validate a REQUEST; return an ACCEPT or DECLINE frame payload."""
        claimed_key, initiator_eph, signature = _split_keyed_frame(body)
        registered = self._key_lookup(initiator)
        if claimed_key != registered:
            raise SignatureInvalidError(
                "initiator key does not match the registered identity"
            )
        verify_signature(
            registered,
            signature,
            _request_message(initiator, self.identity.address, initiator_eph),
        )
        if not self.policy.accepts(initiator):
            return bytes([FRAME_DECLINE])
        pending = self._pending.get(initiator)
        if pending is not None and pending["initiator_eph"] == initiator_eph:
            # retransmitted REQUEST: repeat the previous ACCEPT verbatim
            return pending["accept_payload"]
        eph = generate_exchange_key(self._rng)
        eph_pub = exchange_public_bytes(eph)
        signature = self.identity.sign(
            _accept_message(initiator, self.identity.address, initiator_eph, eph_pub)
        )
        payload = (
            bytes([FRAME_ACCEPT]) + self.identity.public_key + eph_pub + signature
        )
        transcript = transcript_hash(
            initiator, self.identity.address, initiator_eph, eph_pub
        )
        session = derive_session(
            eph,
            initiator_eph,
            "responder",
            local=self.identity.address,
            peer=initiator,
            transcript=transcript,
            rng=self._rng,
        )
        self._pending[initiator] = {
            "initiator_eph": initiator_eph,
            "accept_payload": payload,
            "transcript": transcript,
            "session": session,
        }
        return payload

    def on_confirm(
        self, initiator: VirtualAddress, body: bytes
    ) -> tuple[TrustRecord, SecureSession]:
        """Verify the CONFIRM signature and finalize the pending handshake."""
        pending = self._pending.get(initiator)
        if pending is None:
            raise HandshakeError(f"no pending handshake with {initiator}")
        if len(body) != SIGNATURE_SIZE:
            raise HandshakeError(f"bad CONFIRM length {len(body)}")
        verify_signature(
            self._key_lookup(initiator),
            body,
            _SIG_CONFIRM + pending["transcript"],
        )
        del self._pending[initiator]
        record = TrustRecord.of(initiator, self.identity.address)
        return record, pending["session"]


def run_handshake(
    initiator_identity: AgentIdentity,
    responder_identity: AgentIdentity,
    policy,
    key_lookup: KeyLookup,
    rng: Optional[random.Random] = None,
) -> tuple[TrustRecord, SecureSession, SecureSession]:
    """Drive a complete in-memory handshake (no relay, no loss).

    Returns (record, initiator_session, responder_session). Raises
    ResponderDeclinedError when the policy refuses.
    """
    initiator = HandshakeInitiator(
        initiator_identity, responder_identity.address, key_lookup, rng
    )
    responder = HandshakeResponder(responder_identity, policy, key_lookup, rng)
    request = initiator.request_payload()
    reply = responder.on_request(initiator_identity.address, request[1:])
    if reply[0] == FRAME_DECLINE:
        initiator.on_decline()
    confirm = initiator.on_accept(reply[1:])
    record, responder_session = responder.on_confirm(
        initiator_identity.address, confirm[1:]
    )
    assert initiator.session is not None
    return record, initiator.session, responder_session
