"""Tmpfs plugin: node-local file artifacts (``tmpfs.img``).

A process may depend on files it wrote to its node's tmpfs (a redis
append-only journal, an nginx access log). Callers name them through
``DumpContext.extra["tmpfs_paths"]``; this plugin snapshots their bytes
into a new image section and re-creates them on the destination's tmpfs
at restore. Like the sockets plugin, it registers its own magic, wire
schema, and findings without touching core code.
"""

from __future__ import annotations

from typing import Dict, Optional

from ... import wire
from ...errors import CheckpointError
from ..images import _decode, _wrap, register_magic
from .base import CheckpointPlugin, DumpContext, RestoreContext

MAGIC_TMPFS = register_magic("tmpfs", 0x544D5046)

_ENTRY_SCHEMA = wire.Schema("tmpfs_entry", [
    wire.field(1, "path", "str"),
    wire.field(2, "data", "bytes"),
])

_TMPFS_SCHEMA = wire.Schema("tmpfs", [
    wire.field(1, "entries", "message", repeated=True,
               message=_ENTRY_SCHEMA),
])


class TmpfsImage:
    """Snapshot of named tmpfs files (path -> bytes)."""

    def __init__(self, entries: Dict[str, bytes]):
        self.entries = dict(entries)

    def copy(self) -> "TmpfsImage":
        entries = self.entries
        return TmpfsImage({path: entries[path] for path in sorted(entries)})

    def to_bytes(self) -> bytes:
        return _wrap("tmpfs", _TMPFS_SCHEMA.encode({
            "entries": [{"path": path, "data": self.entries[path]}
                        for path in sorted(self.entries)]}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TmpfsImage":
        data = _decode("tmpfs", _TMPFS_SCHEMA, blob)
        return cls({e.get("path", ""): e.get("data", b"")
                    for e in data.get("entries", [])})


def tmpfs_img(images) -> Optional[TmpfsImage]:
    if "tmpfs.img" not in images.files:
        return None
    return images.section("tmpfs.img", TmpfsImage).copy()


class TmpfsPlugin(CheckpointPlugin):
    name = "tmpfs"
    sections = ("tmpfs.img",)
    codes = ("tmpfs-path",)
    code_prefixes = ("decode:tmpfs",)

    def pre_dump(self, ctx: DumpContext) -> None:
        for path in ctx.extra.get("tmpfs_paths", ()):
            if not ctx.process.machine.tmpfs.exists(path):
                raise CheckpointError(
                    f"tmpfs artifact {path!r} not present on "
                    f"{ctx.process.machine.name}")

    def dump(self, ctx: DumpContext, images) -> None:
        paths = ctx.extra.get("tmpfs_paths", ())
        if paths:
            tmpfs = ctx.process.machine.tmpfs
            entries = {path: tmpfs.read(path) for path in paths}
            images.put_section("tmpfs.img", TmpfsImage(entries))

    def restore(self, ctx: RestoreContext, images) -> None:
        image = tmpfs_img(images)
        if image is not None:
            for path, data in image.entries.items():
                ctx.machine.tmpfs.write(path, data)

    def verify(self, images, report, binary=None, store=None) -> None:
        from ...errors import ImageFormatError
        from ...verify.verifier import (PASS_SEMANTIC, PASS_STRUCTURAL,
                                        Finding)
        if "tmpfs.img" not in images.files:
            return
        report.checks += 1
        try:
            image = images.section("tmpfs.img", TmpfsImage)
        except ImageFormatError as exc:
            report.add(Finding(PASS_STRUCTURAL, "decode:tmpfs",
                               str(exc), plugin=self.name))
            return
        for path in image.entries:
            report.checks += 1
            if not path or not path.startswith("/"):
                report.add(Finding(
                    PASS_SEMANTIC, "tmpfs-path",
                    f"tmpfs artifact has invalid path {path!r}",
                    plugin=self.name))
