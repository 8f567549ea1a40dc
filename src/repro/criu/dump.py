"""Checkpoint: dump a stopped process into an :class:`ImageSet`.

Since the plugin refactor this module is a thin driver: the actual
per-resource dump logic lives in :mod:`repro.criu.plugins` — an ordered
registry of :class:`~repro.criu.plugins.CheckpointPlugin` hooks, each
emitting its own named image section(s). The page-dump and incremental
(PE_PARENT delta) policies are documented on, and implemented by, the
vmas plugin; output is byte-identical to the pre-plugin dumper.
"""

from __future__ import annotations

from typing import Optional, Set

from ..vm.kernel import Process
from .images import ImageSet
from .plugins.base import DumpContext
from .plugins.registry import PluginRegistry, default_registry


def dump_process(process: Process, require_stopped: bool = True,
                 parent: Optional[str] = None,
                 parent_pages: Optional[Set[int]] = None,
                 dirty_pages: Optional[Set[int]] = None,
                 extra: Optional[dict] = None,
                 registry: Optional[PluginRegistry] = None) -> ImageSet:
    """Dump ``process`` into a fresh image set.

    With ``parent`` (a checkpoint id), ``parent_pages`` (addresses the
    parent chain holds data for) and ``dirty_pages`` (written since the
    parent dump), the result is a *delta* dump: unchanged pages present
    in the parent become PE_PARENT runs and ship no data.

    ``extra`` carries resource payloads for plugins beyond the kernel's
    own state (journaled ``connections`` for the sockets plugin,
    ``tmpfs_paths`` for the tmpfs plugin); ``registry`` substitutes a
    custom plugin registry for :func:`~repro.criu.plugins.default_registry`.
    """
    ctx = DumpContext(process, parent=parent, parent_pages=parent_pages,
                      dirty_pages=dirty_pages, extra=extra)
    return (registry or default_registry()).dump(ctx, require_stopped)
