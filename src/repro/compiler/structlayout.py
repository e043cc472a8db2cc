"""Struct layouts: named fields with byte offsets and cache-line mapping.

C/C++ compilers may not reorder struct members (the paper's §3.2.2
"Challenges"), which is why PacketMill does it at the LLVM-IR level where
all references can be repaired.  Here a :class:`StructLayout` is the single
source of truth for where each metadata field lives; the reordering pass
produces a *new* layout sorted by access count and the lowering step
resolves every ``FieldAccess`` against whichever layout is active -- the
moral equivalent of rewriting every ``getelementptr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Field:
    """One struct member."""

    name: str
    size: int
    align: Optional[int] = None  # defaults to min(size, 8)

    @property
    def alignment(self) -> int:
        if self.align is not None:
            return self.align
        return min(self.size, 8) if self.size else 1


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class StructLayout:
    """An ordered set of fields with computed offsets (C layout rules)."""

    def __init__(self, name: str, fields: Iterable[Field], align: int = 64,
                 min_size: int = 0):
        self.name = name
        self.fields: List[Field] = list(fields)
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names in %s" % name)
        self.align = align
        self._offsets: Dict[str, int] = {}
        offset = 0
        for f in self.fields:
            offset = _align_up(offset, f.alignment)
            self._offsets[f.name] = offset
            offset += f.size
        self.size = max(_align_up(offset, align), min_size)
        self._min_size = min_size

    def offset_of(self, field_name: str) -> int:
        try:
            return self._offsets[field_name]
        except KeyError:
            raise KeyError(
                "struct %s has no field %r" % (self.name, field_name)
            ) from None

    def field(self, field_name: str) -> Field:
        for f in self.fields:
            if f.name == field_name:
                return f
        raise KeyError("struct %s has no field %r" % (self.name, field_name))

    def has_field(self, field_name: str) -> bool:
        return field_name in self._offsets

    def cache_line_of(self, field_name: str, line_size: int = 64) -> int:
        return self.offset_of(field_name) // line_size

    def reordered(self, access_counts: Mapping[str, int],
                  name_suffix: str = "@reordered") -> "StructLayout":
        """The paper's LLVM pass: sort fields by descending access count.

        Unreferenced fields keep their relative order and sink to the end;
        ties preserve source order (stable sort), matching the pass that
        sorts on the *estimated* reference count only.
        """
        order = {f.name: i for i, f in enumerate(self.fields)}
        sorted_fields = sorted(
            self.fields,
            key=lambda f: (-access_counts.get(f.name, 0), order[f.name]),
        )
        return StructLayout(self.name + name_suffix, sorted_fields,
                            align=self.align, min_size=self._min_size)

    def __repr__(self) -> str:
        return "StructLayout(%s, %d fields, %dB)" % (self.name, len(self.fields), self.size)


class LayoutRegistry:
    """Maps struct names to their (possibly optimized) active layout."""

    def __init__(self):
        self._layouts: Dict[str, StructLayout] = {}

    def register(self, layout: StructLayout) -> StructLayout:
        self._layouts[layout.name] = layout
        return layout

    def get(self, name: str) -> StructLayout:
        try:
            return self._layouts[name]
        except KeyError:
            raise KeyError("no layout registered for struct %r" % name) from None

    def replace(self, name: str, layout: StructLayout) -> None:
        """Swap in an optimized layout under the original name."""
        if name not in self._layouts:
            raise KeyError("no layout registered for struct %r" % name)
        self._layouts[name] = layout

    def resolve(self, struct_name: str, field_name: str) -> Tuple[int, int]:
        """Return (offset, size) of a field in the active layout."""
        layout = self.get(struct_name)
        return layout.offset_of(field_name), layout.field(field_name).size

    def copy(self) -> "LayoutRegistry":
        dup = LayoutRegistry()
        dup._layouts = dict(self._layouts)
        return dup

    def names(self):
        return list(self._layouts)
