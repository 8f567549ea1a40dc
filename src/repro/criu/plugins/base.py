"""Checkpoint plugin model (DMTCP-style per-resource hooks).

Every kind of process resource — task identity, registers, VMAs+pages,
TLS, open files, tmpfs artifacts, sockets — is owned by one
:class:`CheckpointPlugin`. A plugin contributes named image sections on
dump, validates and rebuilds its resource on restore, and exposes a
``verify`` hook so the restore guard (:mod:`repro.verify`) can verify,
repair, and quarantine *per plugin*. New resource classes register with
the :class:`~repro.criu.plugins.registry.PluginRegistry` without
touching the core dump/restore drivers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ...errors import CheckpointError
from ...vm.cpu import ThreadStatus


class DumpContext:
    """Everything a plugin may need while dumping one process.

    ``extra`` carries caller-provided resource payloads that have no
    kernel-side representation (the simulated kernel has no sockets or
    tmpfs handles on the Process): the group coordinator passes
    ``connections`` for the sockets plugin, tests pass ``tmpfs_paths``
    for the tmpfs plugin. Plugins stash intermediate results on the
    context (``live``, ``lazy_pages``) for the driver to pick up.
    """

    def __init__(self, process, parent: Optional[str] = None,
                 parent_pages: Optional[Set[int]] = None,
                 dirty_pages: Optional[Set[int]] = None,
                 lazy: bool = False, extra: Optional[dict] = None):
        self.process = process
        self.parent = parent
        self.parent_pages = parent_pages
        self.dirty_pages = dirty_pages
        self.lazy = lazy
        self.extra = dict(extra or {})
        #: live (non-DEAD) threads, computed by :meth:`validate`
        self.live: List = []
        #: lazy dumps: pages left behind for the page server
        #: (page-aligned vaddr -> bytes), filled by the vmas plugin
        self.lazy_pages: Dict[int, bytes] = {}

    def validate(self, require_stopped: bool = True) -> None:
        """Call-contract checks shared by every dump entry point. Kept
        on the context (not in any plugin) so the error precedence is
        stable no matter how the registry is reordered or extended."""
        process = self.process
        if require_stopped and not process.stopped:
            raise CheckpointError(
                f"process {process.pid} must be SIGSTOPped before dumping")
        if process.exited:
            raise CheckpointError(f"process {process.pid} has exited")
        if self.parent is not None and (self.parent_pages is None
                                        or self.dirty_pages is None):
            raise CheckpointError(
                "delta dump needs both parent_pages and dirty_pages")
        self.live = [t for t in process.threads.values()
                     if t.status != ThreadStatus.DEAD]
        if not self.live:
            raise CheckpointError("no live threads to dump")


class RestoreContext:
    """Shared state threaded through the restore phases.

    ``pre_restore`` hooks only validate and load environment (the
    destination binary); ``restore`` hooks build — the address space,
    then the process, then its threads — in registry order, which is
    therefore *dependency* order (see
    :func:`~repro.criu.plugins.registry.default_registry`).
    """

    def __init__(self, machine, images, pid: Optional[int] = None,
                 extra: Optional[dict] = None):
        self.machine = machine
        self.images = images
        self.pid = pid
        self.extra = dict(extra or {})
        #: destination :class:`~repro.binfmt.delf.DelfBinary`,
        #: loaded by the files plugin's ``pre_restore``
        self.binary = None
        #: rebuilt address space (vmas plugin)
        self.aspace = None
        #: the process under construction (task plugin)
        self.process = None


class CheckpointPlugin:
    """One resource class's checkpoint/restore/verify hooks.

    Subclasses set :attr:`name`, declare the image sections they own
    (:attr:`sections` for exact file names, :attr:`section_prefixes`
    for families like ``core-<tid>.img``) and the verifier finding
    codes attributable to them (:attr:`codes` / :attr:`code_prefixes`),
    then override whichever phases their resource needs. Every hook
    defaults to a no-op so minimal plugins stay minimal.
    """

    #: unique plugin name (also the attribution tag on findings)
    name = "?"
    #: exact image-file names this plugin emits/consumes
    sections: tuple = ()
    #: image-file name prefixes (e.g. ``core-`` for per-thread files)
    section_prefixes: tuple = ()
    #: verifier finding codes this plugin owns
    codes: tuple = ()
    #: finding-code prefixes (e.g. ``decode:core``)
    code_prefixes: tuple = ()

    # -- dump ----------------------------------------------------------

    def pre_dump(self, ctx: DumpContext) -> None:
        """Validate that this resource is dumpable (process quiesced,
        arguments consistent). Must not mutate images."""

    def dump(self, ctx: DumpContext, images) -> None:
        """Emit this plugin's image section(s) into ``images``."""

    # -- restore -------------------------------------------------------

    def pre_restore(self, ctx: RestoreContext, images) -> None:
        """Validate this plugin's sections against the destination
        machine *before* the verifier runs and anything is built."""

    def restore(self, ctx: RestoreContext, images) -> None:
        """Rebuild this resource. Runs after the restore guard passed
        (or was explicitly skipped)."""

    # -- verify --------------------------------------------------------

    def verify(self, images, report, binary=None, store=None) -> None:
        """Add plugin-specific findings to an in-progress
        :class:`~repro.verify.VerifyReport`. Called by the restore
        guard after its structural pass found the image set decodable."""

    # -- ownership queries ----------------------------------------------

    def owns_file(self, name: str) -> bool:
        return (name in self.sections
                or any(name.startswith(p) for p in self.section_prefixes))

    def owns_code(self, code: str) -> bool:
        return (code in self.codes
                or any(code.startswith(p) for p in self.code_prefixes))

