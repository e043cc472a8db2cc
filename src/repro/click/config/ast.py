"""AST for parsed Click configurations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Declaration:
    """``name :: ClassName(config)``."""

    name: str
    class_name: str
    config: str = ""
    line: int = 0

    def config_args(self) -> List[str]:
        """Split the configuration string on top-level commas."""
        if not self.config.strip():
            return []
        args = []
        depth = 0
        current = []
        for ch in self.config:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        args.append("".join(current).strip())
        return args

    def keyword_args(self) -> Dict[str, str]:
        """Interpret ``KEY value`` arguments (Click keyword style)."""
        out = {}
        for arg in self.config_args():
            parts = arg.split(None, 1)
            if len(parts) == 2 and parts[0].isupper():
                out[parts[0]] = parts[1]
        return out

    def positional_args(self) -> List[str]:
        """Arguments that are not ``KEY value`` pairs."""
        out = []
        for arg in self.config_args():
            parts = arg.split(None, 1)
            if not (len(parts) == 2 and parts[0].isupper()):
                out.append(arg)
        return out


@dataclass(frozen=True)
class Connection:
    """``from [from_port] -> [to_port] to``."""

    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0
    line: int = 0


@dataclass
class ConfigAst:
    """A whole parsed configuration."""

    declarations: Dict[str, Declaration] = field(default_factory=dict)
    connections: List[Connection] = field(default_factory=list)

    def declaration(self, name: str) -> Declaration:
        return self.declarations[name]
