"""An in-memory filesystem.

The Dapper runtime checkpoints into ``tmpfs`` to avoid disk latency
(paper §III-B); every simulated machine owns one of these, holding both
program binaries and CRIU image files. ``scp`` between machines is a
byte copy whose size feeds the network cost model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..errors import LoaderError


class TmpFs:
    """Flat path → bytes store with directory-prefix conventions."""

    def __init__(self):
        self._files: Dict[str, bytes] = {}
        #: path -> (the bytes object that was parsed, its parse)
        self._parsed: Dict[str, Tuple[bytes, Any]] = {}

    def write(self, path: str, data: bytes) -> None:
        self._files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            raise LoaderError(f"tmpfs: no such file {path!r}") from None

    def parsed(self, path: str, parse: Callable[[bytes], Any]) -> Any:
        """``parse(self.read(path))``, computed once per stored file.

        The node's page cache: the result is kept beside the file and
        returned again for as long as :meth:`read` hands out the very
        ``bytes`` object it was parsed from. :meth:`write` always stores
        an immutable ``bytes``, so the same object means the same
        content and the same parse — nothing is hashed and nothing can
        go stale. A rewritten path holds a new object (re-parsed on the
        next call, replacing the entry), a removed path drops its entry,
        and a failed parse is not kept. Callers share the result and
        must treat it as read-only.
        """
        data = self.read(path)
        hit = self._parsed.get(path)
        if hit is None or hit[0] is not data:
            hit = self._parsed[path] = (data, parse(data))
        return hit[1]

    def exists(self, path: str) -> bool:
        return path in self._files

    def remove(self, path: str) -> None:
        self._files.pop(path, None)
        self._parsed.pop(path, None)

    def listdir(self, prefix: str) -> List[str]:
        prefix = prefix.rstrip("/") + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def size(self, path: str) -> int:
        return len(self.read(path))

    def copy_tree(self, prefix: str, other: "TmpFs",
                  dest_prefix: str = None) -> int:
        """Copy all files under ``prefix`` into another tmpfs.

        Returns the number of bytes copied (the 'scp' payload size).
        """
        dest_prefix = prefix if dest_prefix is None else dest_prefix
        total = 0
        for path in self.listdir(prefix):
            rel = path[len(prefix.rstrip('/')) + 1:]
            data = self.read(path)
            other.write(f"{dest_prefix.rstrip('/')}/{rel}", data)
            total += len(data)
        return total
