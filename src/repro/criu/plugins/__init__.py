"""Per-resource checkpoint plugins (DMTCP-style, PAPERS.md Garg et al.).

See :mod:`repro.criu.plugins.base` for the hook model and
:func:`default_registry` for the built-in plugin order.
"""

from .base import CheckpointPlugin, DumpContext, RestoreContext
from .files import FilesPlugin
from .registers import RegistersPlugin
from .registry import PluginRegistry, default_registry
from .sockets import SocketsImage, SocketsPlugin, sockets_img
from .task import TaskPlugin
from .tls import TlsPlugin
from .tmpfs import TmpfsImage, TmpfsPlugin, tmpfs_img
from .vmas import VmasPlugin

__all__ = [
    "CheckpointPlugin", "DumpContext", "RestoreContext",
    "PluginRegistry", "default_registry",
    "TaskPlugin", "RegistersPlugin", "VmasPlugin", "TlsPlugin",
    "FilesPlugin", "TmpfsPlugin", "SocketsPlugin",
    "SocketsImage", "sockets_img", "TmpfsImage", "tmpfs_img",
]
