"""Post-copy (lazy) migration support (paper §III-D3).

``dump_process_lazy`` dumps only the *minimal set that starts the
process*: task state (cores, mm, files) plus stack and TLS pages and the
execution-context code pages — exactly the set the paper notes is
"enough for cross-architecture process transformation". All remaining
populated pages stay behind in a :class:`PageServer` attached to the
source node; the restored process faults them in on demand, checked
against the digests the server announced.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..errors import LazyPageError, PageServerDead
from ..mem.leaves import page_digest
from ..mem.paging import PAGE_SIZE
from ..vm.kernel import Machine, Process
from .images import ImageSet
from .plugins.base import DumpContext
from .plugins.registry import PluginRegistry, default_registry
from .restore import restore_process


class _PageCopies(dict):
    """A plain server's source: ``digest -> bytes``, one private copy per
    distinct page, dropped with its last pin (pins count as in
    :class:`~repro.store.chunks.ChunkStore`)."""

    def __init__(self):
        super().__init__()
        self.raw_pins: Counter = Counter()

    def unpin(self, digest: str) -> None:
        self.raw_pins[digest] -= 1
        if not self.raw_pins[digest]:
            del self.raw_pins[digest], self[digest]


class PageServer:
    """Serves left-behind pages from the source node on demand.

    ``manifest`` maps each pending page's address to its digest;
    ``source`` holds the bytes by digest (private copies, or a chunk
    store after :meth:`move_to`), one pin per pending address until it
    is served or the server closes. Records a request log — the paper
    reads the page server's log to estimate the indirect restoration
    cost for long-running servers like Redis.

    The log is capped at ``log_limit`` entries (pass ``0`` for
    unlimited): a long-running restored server faulting for hours would
    otherwise grow it without bound. Requests past the cap stop being
    *recorded* but are still *counted* — ``requests``, ``pages_served``
    and ``bytes_served`` stay exact, and ``log_dropped`` says how many
    entries the cap swallowed.
    """

    #: default cap on the request log's length
    DEFAULT_LOG_LIMIT = 4096

    def __init__(self, pages: Dict[int, bytes], node_name: str = "source",
                 log_limit: int = DEFAULT_LOG_LIMIT):
        self.manifest: Dict[int, str] = {}
        self.source = _PageCopies()
        for vaddr, data in pages.items():
            self._hold(vaddr, data, page_digest(data))
        self.node_name = node_name
        self.requests = 0
        self.pages_served = 0
        self.bytes_served = 0
        self.log: List[Tuple[int, int]] = []   # (request index, vaddr)
        self.log_limit = log_limit
        self.log_dropped = 0
        #: a dead server raises :class:`PageServerDead` on every fetch —
        #: the chaos injector kills servers mid post-copy to exercise
        #: the pipeline's pre-copy fallback
        self.alive = True
        self._die_after: Optional[int] = None

    def _hold(self, vaddr: int, data: bytes, digest: str) -> None:
        self.manifest[vaddr] = digest
        self.source.setdefault(digest, data)
        self.source.raw_pins[digest] += 1

    def _record(self, vaddr: int) -> None:
        if self.log_limit and len(self.log) >= self.log_limit:
            self.log_dropped += 1
        else:
            self.log.append((self.requests, vaddr))

    def remaining_pages(self) -> int:
        return len(self.manifest)

    def remaining_bytes(self) -> int:
        return len(self.manifest) * PAGE_SIZE

    def pending_pages(self) -> Dict[int, bytes]:
        """The not-yet-served pages, by address — a dead server's too:
        death stops serving, not the pages it holds."""
        return {vaddr: self.source.get(digest)
                for vaddr, digest in self.manifest.items()}

    def move_to(self, chunks) -> None:
        """Serve from the :class:`~repro.store.chunks.ChunkStore`
        ``chunks``: each pending page moves there under the digest
        already held (nothing is hashed again), pins and all."""
        for digest in self.manifest.values():
            chunks.ensure(self.source.get(digest), digest)
            chunks.pin(digest)
            self.source.unpin(digest)
        self.source = chunks

    def close(self) -> None:
        """Release every pin still held and forget the pending pages."""
        for digest in self.manifest.values():
            self.source.unpin(digest)
        self.manifest.clear()

    # -- failure model ----------------------------------------------------

    def schedule_death(self, after_requests: int) -> None:
        """Arm the server to die once ``after_requests`` requests have
        been answered (deterministic, so chaos runs replay exactly)."""
        self._die_after = after_requests

    def kill(self) -> None:
        """Take the server down immediately."""
        self.alive = False

    def _check_alive(self) -> None:
        if self._die_after is not None and self.requests >= self._die_after:
            self.alive = False
        if not self.alive:
            raise PageServerDead(
                f"page server on {self.node_name} is down "
                f"(after {self.requests} requests)")

    # -- serving ----------------------------------------------------------

    def fetch(self, vaddr: int, strict: bool = False) -> Optional[bytes]:
        """Serve one page, once.

        Raises :class:`PageServerDead` if the server is down, so a lazy
        restore distinguishes "server gone" from the (legitimate)
        "page was never populated" case, which returns ``None`` —
        pass ``strict=True`` to turn the latter into a typed
        :class:`LazyPageError` instead of silently zero-filling.
        """
        self._check_alive()
        self.requests += 1
        self._record(vaddr)
        digest = self.manifest.pop(vaddr, None)
        if digest is None:
            if strict:
                raise LazyPageError(
                    f"page server on {self.node_name} does not own page "
                    f"{vaddr:#x} (never populated, or already served)")
            return None
        data = self.source.get(digest)
        self.source.unpin(digest)
        self.pages_served += 1
        self.bytes_served += len(data)
        return data


def install_pending(aspace, pages: Dict[int, bytes]) -> int:
    """Install each of ``pages`` that ``aspace`` maps but does not hold;
    returns how many. Tests ``_pages``: ``page()`` would re-enter the
    fault-in hook."""
    installed = 0
    for vaddr, data in pages.items():
        if vaddr not in aspace._pages and aspace.find_vma(vaddr) is not None:
            aspace.install_page(vaddr, data)
            installed += 1
    return installed


def dump_process_lazy(process: Process,
                      require_stopped: bool = True,
                      extra: Optional[dict] = None,
                      registry: Optional[PluginRegistry] = None
                      ) -> Tuple[ImageSet, PageServer]:
    """Minimal dump + a page server holding everything else.

    Runs the same plugin pipeline as :func:`~repro.criu.dump_process`
    with the context's ``lazy`` flag set: the vmas plugin writes only
    the eager page set and stashes the remainder on the context for the
    returned :class:`PageServer`. A left-behind page that still equals
    its slice of the process's origin image keeps the digest known for
    it; only a changed page is hashed.
    """
    origin = process.aspace.origin      # the dump replaces it
    ctx = DumpContext(process, lazy=True, extra=extra)
    images = (registry or default_registry()).dump(ctx, require_stopped)
    server = PageServer({}, node_name=process.machine.name)
    for vaddr, data in ctx.lazy_pages.items():
        known = origin and origin.unchanged(vaddr, data)
        server._hold(vaddr, data, known or page_digest(data))
    return images, server


def restore_process_lazy(machine: Machine, images: ImageSet,
                         page_server: PageServer,
                         pid: Optional[int] = None,
                         verify: bool = True,
                         registry: Optional[PluginRegistry] = None
                         ) -> Process:
    """Restore a lazy checkpoint; missing pages fault in from the server.

    Routes through :func:`~repro.criu.restore_process` and therefore
    through the same restore guard as the eager path: with ``verify=``
    left on, a corrupt minimal image raises
    :class:`~repro.errors.VerifyError` *before* the process is built and
    the missing-page hook installed.

    The hook checks each fetched page against the server's manifest as
    of now: a mismatch raises :class:`~repro.errors.LazyPageError`.
    """
    process = restore_process(machine, images, pid=pid, verify=verify,
                              registry=registry)
    lazy_ranges = [(v.start, v.end) for v in process.aspace.vmas
                   if not (v.file_backed or v.name.startswith("stack:")
                           or v.name.startswith("tls:"))]
    expected = dict(page_server.manifest)

    def hook(base: int) -> Optional[bytes]:
        if not any(start <= base < end for start, end in lazy_ranges):
            return None
        data = page_server.fetch(base)
        if data is None:
            return None
        digest = page_digest(data)
        if digest != expected.get(base):
            raise LazyPageError(
                f"page {base:#x} fetched from {page_server.node_name} "
                f"hashes to {digest}, not the manifest's "
                f"{expected.get(base)}")
        return data

    process.aspace.missing_page_hook = hook
    return process
