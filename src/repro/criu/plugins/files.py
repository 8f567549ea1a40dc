"""Files plugin: opened files (``files.img``).

The entry that matters for Dapper is the executable: cross-ISA
rewriting points it at the other architecture's binary. On restore this
plugin is the gatekeeper — it validates the image's target architecture
against the destination machine and loads the destination binary before
anything is built.
"""

from __future__ import annotations

from ...errors import KernelError, RestoreError
from ..images import FilesImage
from .base import CheckpointPlugin, DumpContext, RestoreContext


class FilesPlugin(CheckpointPlugin):
    name = "files"
    sections = ("files.img",)
    codes = ("arch-mismatch",)
    code_prefixes = ("decode:files",)

    def dump(self, ctx: DumpContext, images) -> None:
        images.set_files_img(FilesImage(ctx.process.exe_path,
                                        ctx.process.isa.name))

    def pre_restore(self, ctx: RestoreContext, images) -> None:
        machine = ctx.machine
        files_img = images.files_img()
        if files_img.exe_arch != machine.isa.name:
            raise RestoreError(
                f"image targets {files_img.exe_arch}, machine runs "
                f"{machine.isa.name} — rewrite the image first")
        if not machine.tmpfs.exists(files_img.exe_path):
            raise RestoreError(
                f"executable {files_img.exe_path!r} not present "
                f"on {machine.name}")
        try:
            ctx.binary = machine.load_binary(files_img.exe_path)
        except KernelError as exc:
            raise RestoreError(
                f"binary {files_img.exe_path!r} rejected: {exc}") from exc
