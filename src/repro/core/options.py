"""Build options: which PacketMill optimizations a binary gets.

The named constructors reproduce the exact variants the evaluation
compares (Fig. 4's per-technique rows, Fig. 5's metadata models, and the
combined "PacketMill" configuration used in Figs. 1, 6, 8, and 10 --
which, per the paper's §4.4 footnote, is X-Change + the source-code
optimizations + LTO, *without* metadata reordering).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class MetadataModel(str, enum.Enum):
    """The §2.2 metadata-management models (plus TinyNF for the §3.1
    contrast: lean like X-Change, but no packet buffering allowed)."""

    COPYING = "copying"
    OVERLAYING = "overlaying"
    XCHANGE = "xchange"
    TINYNF = "tinynf"


class OptionsError(ValueError):
    """Inconsistent build-option combination."""


@dataclass(frozen=True)
class BuildOptions:
    """One build's optimization switches."""

    metadata_model: MetadataModel = MetadataModel.COPYING
    devirtualize: bool = False
    constant_embedding: bool = False
    static_graph: bool = False
    lto: bool = False
    reorder_metadata: bool = False
    vectorized_pmd: bool = False
    pgo: bool = False

    def __post_init__(self):
        if self.reorder_metadata and not self.lto:
            raise OptionsError("metadata reordering is an LTO pass; enable lto")
        if self.reorder_metadata and self.metadata_model is not MetadataModel.COPYING:
            raise OptionsError(
                "the reordering pass only supports the Copying model "
                "(the paper's prototype limitation, §3.2.2)"
            )
        if self.vectorized_pmd and self.metadata_model in (
            MetadataModel.XCHANGE, MetadataModel.TINYNF,
        ):
            raise OptionsError(
                "the X-Change prototype does not support the vectorized "
                "PMD (paper §4.1 footnote); disable one of the two"
            )

    # -- the paper's named variants -----------------------------------------------

    @classmethod
    def vanilla(cls) -> "BuildOptions":
        """Unmodified FastClick: Copying model, dynamic graph."""
        return cls()

    @classmethod
    def devirtualized(cls) -> "BuildOptions":
        """click-devirtualize only (Fig. 4 "Devirtualize")."""
        return cls(devirtualize=True)

    @classmethod
    def constant(cls) -> "BuildOptions":
        """Constant embedding only (Fig. 4 "Constant Embedding")."""
        return cls(constant_embedding=True)

    @classmethod
    def static(cls) -> "BuildOptions":
        """Static graph: elements + connections embedded in the source
        (implies full devirtualization and inlining)."""
        return cls(static_graph=True, devirtualize=True)

    @classmethod
    def all_code_opts(cls) -> "BuildOptions":
        """Fig. 4's "All": every source-code optimization, Copying model."""
        return cls(devirtualize=True, constant_embedding=True, static_graph=True)

    @classmethod
    def lto_reorder(cls) -> "BuildOptions":
        """§4.1's LTO + struct-reordering experiment (on Vanilla code)."""
        return cls(lto=True, reorder_metadata=True)

    @classmethod
    def metadata(cls, model: MetadataModel) -> "BuildOptions":
        """Fig. 5's metadata-model comparison: LTO on, code opts off."""
        return cls(metadata_model=model, lto=True)

    @classmethod
    def packetmill(cls) -> "BuildOptions":
        """The full system: X-Change + source-code optimizations + LTO."""
        return cls(
            metadata_model=MetadataModel.XCHANGE,
            devirtualize=True,
            constant_embedding=True,
            static_graph=True,
            lto=True,
        )

    def with_model(self, model: MetadataModel) -> "BuildOptions":
        return replace(self, metadata_model=model)

    def label(self) -> str:
        """Short human-readable tag for result tables."""
        bits = [self.metadata_model.value]
        for flag, tag in (
            (self.devirtualize, "devirt"),
            (self.constant_embedding, "const"),
            (self.static_graph, "static"),
            (self.lto, "lto"),
            (self.reorder_metadata, "reorder"),
            (self.vectorized_pmd, "vec"),
            (self.pgo, "pgo"),
        ):
            if flag:
                bits.append(tag)
        return "+".join(bits)
