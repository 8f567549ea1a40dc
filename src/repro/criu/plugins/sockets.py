"""Sockets plugin: in-flight simulated connections (``sockets.img``).

The simulated kernel has no socket objects, so connection state lives in
an external deterministic broker (:class:`repro.group.ConnectionBroker`).
At a coordinated group cut, connections the bounded drain could not
retire are *journaled*: the coordinator passes each member's slice of
the broker's in-flight set through ``DumpContext.extra["connections"]``
and this plugin emits it as a new image section. On restore the
journaled connections are reattached to the process
(``process.restored_connections``) so the group layer can rebuild the
broker on the destination side.

This plugin is the worked example of the registry's extensibility
claim: a brand-new resource class — its own magic, wire schema, image
class, verify findings — without one line changed in the core
dump/restore drivers or the verifier.
"""

from __future__ import annotations

from typing import List, Optional

from ... import wire
from ..images import _decode, _wrap, register_magic
from .base import CheckpointPlugin, DumpContext, RestoreContext

MAGIC_SOCKETS = register_magic("sockets", 0x534F434B)

_CONN_SCHEMA = wire.Schema("connection", [
    wire.field(1, "cid", "int"),
    wire.field(2, "src_pid", "int"),
    wire.field(3, "dst_pid", "int"),
    wire.field(4, "payload", "str"),
])

_SOCKETS_SCHEMA = wire.Schema("sockets", [
    wire.field(1, "connections", "message", repeated=True,
               message=_CONN_SCHEMA),
])


class SocketsImage:
    """Journaled in-flight connections touching one process."""

    def __init__(self, connections: List[dict]):
        self.connections = [dict(c) for c in connections]

    def copy(self) -> "SocketsImage":
        return SocketsImage(self.connections)

    def to_bytes(self) -> bytes:
        return _wrap("sockets", _SOCKETS_SCHEMA.encode(
            {"connections": self.connections}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SocketsImage":
        data = _decode("sockets", _SOCKETS_SCHEMA, blob)
        return cls(data.get("connections", []))


def sockets_img(images) -> Optional[SocketsImage]:
    """The image set's sockets section, or None (section is optional:
    plain single-process dumps never carry one)."""
    if "sockets.img" not in images.files:
        return None
    return images.section("sockets.img", SocketsImage).copy()


class SocketsPlugin(CheckpointPlugin):
    name = "sockets"
    sections = ("sockets.img",)
    codes = ("socket-dup", "socket-owner")
    code_prefixes = ("decode:sockets",)

    def dump(self, ctx: DumpContext, images) -> None:
        connections = ctx.extra.get("connections")
        if connections:
            images.put_section("sockets.img", SocketsImage(connections))

    def restore(self, ctx: RestoreContext, images) -> None:
        image = sockets_img(images)
        if image is not None:
            ctx.process.restored_connections = list(image.connections)

    def verify(self, images, report, binary=None, store=None) -> None:
        from ...errors import ImageFormatError
        from ...verify.verifier import (PASS_SEMANTIC, PASS_STRUCTURAL,
                                        Finding)
        if "sockets.img" not in images.files:
            return
        report.checks += 1
        try:
            image = images.section("sockets.img", SocketsImage)
        except ImageFormatError as exc:
            report.add(Finding(PASS_STRUCTURAL, "decode:sockets",
                               str(exc), plugin=self.name))
            return
        pid = images.inventory().pid
        seen = set()
        for conn in image.connections:
            report.checks += 1
            cid = conn.get("cid")
            if cid in seen:
                report.add(Finding(
                    PASS_SEMANTIC, "socket-dup",
                    f"connection {cid} journaled twice", plugin=self.name))
            seen.add(cid)
            if pid not in (conn.get("src_pid"), conn.get("dst_pid")):
                report.add(Finding(
                    PASS_SEMANTIC, "socket-owner",
                    f"connection {cid} does not touch pid {pid} "
                    f"({conn.get('src_pid')} -> {conn.get('dst_pid')})",
                    plugin=self.name))
