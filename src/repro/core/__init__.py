"""The paper's contribution: X-Change and the PacketMill build pipeline."""

from repro.core.options import BuildOptions, MetadataModel
from repro.core.packetmill import PacketMill
from repro.core.profile import ProfileError, RunProfile
from repro.core.binary import SpecializedBinary

__all__ = [
    "BuildOptions",
    "MetadataModel",
    "PacketMill",
    "ProfileError",
    "RunProfile",
    "SpecializedBinary",
]
