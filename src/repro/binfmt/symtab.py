"""Symbol tables for DELF binaries."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .. import wire
from ..errors import LinkError

KIND_FUNC = "func"
KIND_OBJECT = "object"
KIND_TLS = "tls"

_SYMBOL_SCHEMA = wire.Schema("symbol", [
    wire.field(1, "name", "str"),
    wire.field(2, "addr", "int"),
    wire.field(3, "size", "int"),
    wire.field(4, "kind", "str"),
    wire.field(5, "section", "str"),
])

_TABLE_SCHEMA = wire.Schema("symtab", [
    wire.field(1, "symbols", "message", repeated=True, message=_SYMBOL_SCHEMA),
])


class Symbol:
    """One named address: a function, a global object, or a TLS slot.

    For ``tls`` symbols ``addr`` is the offset *within the TLS block*, not
    a virtual address.
    """

    __slots__ = ("name", "addr", "size", "kind", "section")

    def __init__(self, name: str, addr: int, size: int, kind: str,
                 section: str = ""):
        self.name = name
        self.addr = addr
        self.size = size
        self.kind = kind
        self.section = section

    def to_dict(self) -> dict:
        return {"name": self.name, "addr": self.addr, "size": self.size,
                "kind": self.kind, "section": self.section}

    @classmethod
    def from_dict(cls, data: dict) -> "Symbol":
        return cls(data["name"], data["addr"], data["size"], data["kind"],
                   data.get("section", ""))

    def __repr__(self) -> str:
        return f"<Symbol {self.name} {self.kind} @{self.addr:#x} +{self.size}>"


class SymbolTable:
    """Name-indexed collection of symbols with address lookup."""

    def __init__(self, symbols: Optional[List[Symbol]] = None):
        self._by_name: Dict[str, Symbol] = {}
        for sym in symbols or []:
            self.add(sym)

    def add(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._by_name:
            raise LinkError(f"duplicate symbol {symbol.name!r}")
        self._by_name[symbol.name] = symbol
        return symbol

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(sorted(self._by_name.values(), key=lambda s: s.addr))

    def get(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise LinkError(f"undefined symbol {name!r}") from None

    def lookup(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def address_of(self, name: str) -> int:
        return self.get(name).addr

    def find_containing(self, addr: int, kind: str = KIND_FUNC) -> Optional[Symbol]:
        """Symbol whose ``[addr, addr+size)`` range contains ``addr``."""
        for sym in self._by_name.values():
            if sym.kind == kind and sym.addr <= addr < sym.addr + sym.size:
                return sym
        return None

    def functions(self) -> List[Symbol]:
        return [s for s in self if s.kind == KIND_FUNC]

    def tls_symbols(self) -> List[Symbol]:
        return [s for s in self._by_name.values() if s.kind == KIND_TLS]

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        return _TABLE_SCHEMA.encode(
            {"symbols": [s.to_dict() for s in self]})

    @classmethod
    def from_bytes(cls, data: bytes) -> "SymbolTable":
        decoded = _TABLE_SCHEMA.decode(data)
        try:
            return cls([Symbol.from_dict(d) for d in decoded["symbols"]])
        except KeyError as exc:
            raise LinkError(f"symbol without field {exc}") from None
