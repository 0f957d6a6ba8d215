"""Trust-gated overlay network for autonomous agents.

Subsystems: virtual addressing and the datagram codec (overlay), encrypted
channels and trust handshakes (channel), the coordination registry
(registry), a deterministic population simulator (sim), snapshot analytics
(analytics), a calibrated social-graph generator (growth), deterministic
chart rendering (charts), a socket-facing registry server (server), and a
command line front end (cli).

The public names below resolve on first use (PEP 562), so importing one
subsystem loads only what it needs: `import trustnet.growth` does not load
the channel's cryptography.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "channel": ("AgentIdentity", "HandshakeInitiator", "HandshakeResponder",
                "SecureSession", "TrustRecord", "run_handshake"),
    "growth": ("GrowthConfig", "generate", "preset", "preset_names"),
    "overlay": ("PacketHeader", "VirtualAddress", "decode_packet", "encode_packet"),
    "registry": ("RegistryService",),
    "sim": ("Beacon", "BehaviorPolicy", "Distribution", "ScenarioResult", "SimConfig",
            "relay_via_beacon", "run_scenario", "transport_deliver"),
    "snapshot": ("StatsSnapshot",),
}
_SUBMODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_SUBMODULE_OF) + ["__version__"]


def __getattr__(name: str):
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{submodule}", __name__), name)
