"""The layered state-image verifier that gates every restore.

Dapper *rewrites* checkpoint images between dump and restore, which
makes the restore boundary the single most dangerous point in the
system: a buggy policy or a corrupt byte that slipped past transfer
re-hashing used to surface only as undefined interpreter behavior long
after restore. :class:`ImageVerifier` judges an arriving image *before*
anything is rebuilt from it, in three passes:

* **structural** — magics and wire schemas decode, every image file the
  inventory implies is present, pagemap/pages lengths agree, pagemap
  runs are aligned, non-overlapping, and inside a mapped VMA, and
  parent-chain (delta) references resolve through the checkpoint store;
* **semantic** — core registers are complete for the target ISA's DWARF
  numbering, the pc lands on an *entry* equivalence point of the linked
  binary's stackmaps, a full stack walk typechecks every frame, live
  pointers point into mapped VMAs, the TLS base sits inside the
  thread's TLS VMA, and dumped ``.text`` pages match the binary's bytes
  (distinguishing legitimate rewritten execution-context pages from
  corruption);
* **repair** — clean-page divergences are rewritten from the binary or
  re-fetched by digest from the chunk store; anything else is left for
  quarantine (:mod:`repro.verify.quarantine`).

Every check produces a :class:`Finding` rather than raising, so one
report carries the complete diagnosis; :func:`verify_images` wraps the
common raise-on-failure flow.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from ..binfmt.delf import DelfBinary
from ..core.tlsmod import tls_block_address
from ..criu.images import ImageSet
from ..errors import ImageFormatError, ReproError, RewriteError, VerifyError
from ..isa import ISAS, get_isa
from ..mem.paging import PAGE_SIZE

PASS_STRUCTURAL = "structural"
PASS_SEMANTIC = "semantic"
PASS_REPAIR = "repair"

#: image files every full checkpoint must carry (cores are per-tid)
REQUIRED_FILES = ("inventory.img", "mm.img", "files.img", "pagemap.img",
                  "pages-1.img")

#: severities: ``fatal`` blocks restore outright, ``repairable`` names a
#: divergence pass 3 knows how to fix, ``advisory`` is reported but
#: never blocks (legal-but-suspicious state).
FATAL = "fatal"
REPAIRABLE = "repairable"
ADVISORY = "advisory"


class _Layout:
    """The address ranges a list of VMAs covers, for containment by
    bisection instead of a scan of every VMA per page. Ranges are merged
    first, so the answer equals ``any(v.start <= a < v.end for v in
    vmas)`` even for a (corrupt) layout whose VMAs overlap."""

    def __init__(self, vmas):
        self.starts: List[int] = []
        self.ends: List[int] = []
        for start, end in sorted((v.start, v.end) for v in vmas):
            if self.ends and start <= self.ends[-1]:
                if end > self.ends[-1]:
                    self.ends[-1] = end
            else:
                self.starts.append(start)
                self.ends.append(end)

    def __contains__(self, addr: int) -> bool:
        index = bisect_right(self.starts, addr) - 1
        return index >= 0 and addr < self.ends[index]

    def overlaps(self, start: int, end: int) -> bool:
        """Whether any range meets ``[start, end)``."""
        index = bisect_right(self.ends, start)
        return index < len(self.starts) and self.starts[index] < end

    def uncovered(self, start: int, end: int) -> Iterator[int]:
        """Page addresses of ``[start, end)`` outside every range: the
        run is split at range edges, so a covered run costs one
        bisection however long it is."""
        index = max(bisect_right(self.starts, start) - 1, 0)
        cursor = start
        while cursor < end:
            while index < len(self.starts) and self.ends[index] <= cursor:
                index += 1
            if index < len(self.starts) and self.starts[index] <= cursor:
                cursor = self.ends[index]     # covered up to here
                continue
            stop = min(end, self.starts[index]) \
                if index < len(self.starts) else end
            yield from range(cursor, stop, PAGE_SIZE)
            cursor = stop


class Finding:
    """One defect the verifier found.

    ``repair`` is ``None`` (unrepairable) or a tuple naming the source
    pass 3 can rebuild the page from: ``("binary", page_base)`` or
    ``("store", page_base, chunk_digest)``.

    ``plugin`` names the checkpoint plugin
    (:mod:`repro.criu.plugins`) owning the defective resource — set
    directly by plugin ``verify`` hooks, or attributed afterwards from
    the finding code so quarantine diagnoses say *which resource class*
    failed, not just which pass.
    """

    __slots__ = ("pass_name", "code", "severity", "message", "vaddr",
                 "repair", "plugin")

    def __init__(self, pass_name: str, code: str, message: str,
                 severity: str = FATAL, vaddr: Optional[int] = None,
                 repair: Optional[tuple] = None,
                 plugin: Optional[str] = None):
        self.pass_name = pass_name
        self.code = code
        self.severity = severity
        self.message = message
        self.vaddr = vaddr
        self.repair = repair
        self.plugin = plugin

    def to_dict(self) -> dict:
        out = {"pass": self.pass_name, "code": self.code,
               "severity": self.severity, "message": self.message}
        if self.vaddr is not None:
            out["vaddr"] = self.vaddr
        if self.repair is not None:
            out["repair"] = list(self.repair)
        if self.plugin is not None:
            out["plugin"] = self.plugin
        return out

    def __repr__(self) -> str:
        where = f" @{self.vaddr:#x}" if self.vaddr is not None else ""
        return (f"<Finding [{self.pass_name}/{self.code}] "
                f"{self.severity}{where}: {self.message}>")


class VerifyReport:
    """Everything one verification produced: findings per pass, which
    passes ran, what pass 3 repaired."""

    def __init__(self):
        self.findings: List[Finding] = []
        self.passes_run: List[str] = []
        #: findings pass 3 fixed (removed from ``findings``)
        self.repaired: List[Finding] = []
        #: advisory findings: reported, never block the restore
        self.notes: List[Finding] = []
        self.checks = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: Finding) -> Finding:
        if finding.severity == ADVISORY:
            self.notes.append(finding)
        else:
            self.findings.append(finding)
        return finding

    def fatal(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == FATAL]

    def repairable(self) -> List[Finding]:
        return [f for f in self.findings if f.repair is not None]

    def by_plugin(self) -> Dict[str, int]:
        """Finding counts keyed by owning checkpoint plugin (findings no
        plugin claims count under ``"?"``)."""
        out: Dict[str, int] = {}
        for finding in self.findings:
            key = finding.plugin or "?"
            out[key] = out.get(key, 0) + 1
        return out

    def failing_pass(self) -> Optional[str]:
        """Name of the first failing pass (the diagnosis headline)."""
        for name in (PASS_STRUCTURAL, PASS_SEMANTIC, PASS_REPAIR):
            if any(f.pass_name == name for f in self.findings):
                return name
        return None

    def to_dict(self) -> dict:
        """Machine-readable diagnosis (what quarantine stores)."""
        return {
            "ok": self.ok,
            "failing_pass": self.failing_pass(),
            "passes_run": list(self.passes_run),
            "checks": self.checks,
            "findings": [f.to_dict() for f in self.findings],
            "repaired": [f.to_dict() for f in self.repaired],
            "notes": [f.to_dict() for f in self.notes],
            "by_plugin": self.by_plugin(),
        }

    def summary(self) -> str:
        if self.ok and not self.repaired:
            return (f"ok ({self.checks} checks, "
                    f"passes: {'+'.join(self.passes_run)})")
        if self.ok:
            return (f"ok after repairing {len(self.repaired)} page(s) "
                    f"({self.checks} checks)")
        head = self.findings[0]
        return (f"FAILED pass {self.failing_pass()}: "
                f"{len(self.findings)} finding(s), first: {head.message}")

    def __repr__(self) -> str:
        return f"<VerifyReport {self.summary()}>"


class ImageVerifier:
    """Verifies (and optionally repairs) one :class:`ImageSet`.

    ``binary`` enables the semantic pass; ``store`` lets delta
    references resolve and repairs re-fetch pages by digest;
    ``page_digests`` (vaddr -> chunk digest, e.g. from
    ``CheckpointStore.resolve_pages``) and ``expected_digest`` (the
    sender's ``ImageSet.content_digest``) catch byte-level divergence
    the schemas cannot see.

    ``registry`` is the checkpoint plugin registry
    (:func:`repro.criu.plugins.default_registry` when omitted): its
    plugins' ``verify`` hooks run as part of the semantic pass — so new
    resource sections (sockets, tmpfs, ...) get checked without this
    module changing — and every finding is attributed to its owning
    plugin for the quarantine diagnosis.
    """

    def __init__(self, binary: Optional[DelfBinary] = None,
                 store=None,
                 page_digests: Optional[Dict[int, str]] = None,
                 expected_digest: Optional[str] = None,
                 registry=None):
        self.binary = binary
        self.store = store
        self.page_digests = dict(page_digests or {})
        self.expected_digest = expected_digest
        self._registry = registry

    @property
    def registry(self):
        if self._registry is None:
            from ..criu.plugins import default_registry
            self._registry = default_registry()
        return self._registry

    # -- driving -----------------------------------------------------------

    def verify(self, images: ImageSet) -> VerifyReport:
        report = VerifyReport()
        report.passes_run.append(PASS_STRUCTURAL)
        self._pass_structural(images, report)
        if not report.fatal():
            report.passes_run.append(PASS_SEMANTIC)
            self._pass_semantic(images, report)
            self.registry.verify(images, report, binary=self.binary,
                                 store=self.store)
        self._attribute(report)
        return report

    def _attribute(self, report: VerifyReport) -> None:
        """Stamp each finding with the plugin owning its code, so the
        report (and any quarantine diagnosis built from it) says which
        resource class failed."""
        registry = self.registry
        for finding in report.findings + report.notes + report.repaired:
            if finding.plugin is None:
                finding.plugin = registry.plugin_for_code(finding.code)

    def repair(self, images: ImageSet
               ) -> Tuple[Optional[ImageSet], VerifyReport]:
        """Pass 3: verify, rewrite every repairable page from its named
        source, and re-verify.

        Returns ``(repaired_images, report)``; the images are ``None``
        when the set is clean-but-unrepaired is not needed (already ok,
        the originals are returned) or unrepairable (quarantine it —
        the report carries the diagnosis).
        """
        report = self.verify(images)
        if report.ok:
            return images, report
        repairable = report.repairable()
        if not repairable or len(repairable) != len(report.findings):
            # Something fatal (or a divergence with no known source):
            # not repairable, hand the diagnosis to quarantine.
            return None, report
        # Several findings may indict the same page (digest mismatch +
        # text divergence): rewrite it once.
        repairs, seen = [], set()
        for finding in repairable:
            if finding.vaddr not in seen:
                seen.add(finding.vaddr)
                repairs.append(finding)
        fixed = ImageSet(dict(images.files))
        blob = bytearray(fixed.pages())
        offsets = fixed.page_leaves().offsets
        for finding in repairs:
            data = self._fetch_repair(finding)
            if data is None:
                report.add(Finding(
                    PASS_REPAIR, "unfetchable",
                    f"repair source for page {finding.vaddr:#x} "
                    f"unavailable", vaddr=finding.vaddr))
                return None, report
            offset = offsets.get(finding.vaddr)
            if offset is None:
                report.add(Finding(
                    PASS_REPAIR, "unlocatable",
                    f"page {finding.vaddr:#x} not in pages-1.img",
                    vaddr=finding.vaddr))
                return None, report
            blob[offset:offset + PAGE_SIZE] = data
        fixed.set_pages(bytes(blob))
        after = self.verify(fixed)
        after.passes_run.append(PASS_REPAIR)
        after.repaired = repairs
        after.checks += report.checks
        if not after.ok:
            return None, after
        return fixed, after

    def _fetch_repair(self, finding: Finding) -> Optional[bytes]:
        kind = finding.repair[0]
        if kind == "binary" and self.binary is not None:
            return _binary_page(self.binary, finding.repair[1])
        if kind == "store" and self.store is not None:
            try:
                return self.store.chunks.get(finding.repair[2])
            except ReproError:
                return None
        return None

    # -- pass 1: structural ------------------------------------------------

    def _pass_structural(self, images: ImageSet,
                         report: VerifyReport) -> None:
        add, check = report.add, self._tick(report)

        for name in REQUIRED_FILES:
            check()
            if name not in images.files:
                add(Finding(PASS_STRUCTURAL, "missing-file",
                            f"image set has no {name}"))
        if report.fatal():
            return

        def decode(what, fn):
            check()
            try:
                return fn()
            except ImageFormatError as exc:
                add(Finding(PASS_STRUCTURAL, f"decode:{what}", str(exc)))
                return None

        inventory = decode("inventory", images.inventory)
        mm = decode("mm", images.mm)
        files_img = decode("files", images.files_img)
        pagemap = decode("pagemap", images.pagemap)
        cores = []
        if inventory is not None:
            for tid in inventory.tids:
                name = f"core-{tid}.img"
                check()
                if name not in images.files:
                    add(Finding(PASS_STRUCTURAL, "missing-file",
                                f"inventory names tid {tid} but {name} "
                                f"is absent"))
                    continue
                core = decode(f"core-{tid}", lambda t=tid: images.core(t))
                if core is not None:
                    if core.tid != tid:
                        add(Finding(PASS_STRUCTURAL, "core-tid",
                                    f"{name} claims tid {core.tid}"))
                    cores.append(core)
        if pagemap is None or mm is None or files_img is None \
                or inventory is None:
            return

        pages = images.pages()
        check()
        want = pagemap.data_pages() * PAGE_SIZE
        if len(pages) != want:
            add(Finding(
                PASS_STRUCTURAL, "pages-length",
                f"pagemap claims {pagemap.data_pages()} data page(s) "
                f"({want} bytes) but pages-1.img holds {len(pages)}"))

        runs = sorted(pagemap.entries, key=lambda e: e.vaddr)
        layout = _Layout(mm.vmas)
        prev_end = None
        for entry in runs:
            check()
            if entry.vaddr % PAGE_SIZE or entry.nr_pages <= 0:
                add(Finding(PASS_STRUCTURAL, "run-align",
                            f"pagemap run at {entry.vaddr:#x} "
                            f"x{entry.nr_pages} is not page-aligned",
                            vaddr=entry.vaddr))
                continue
            span = entry.nr_pages * PAGE_SIZE
            if prev_end is not None and entry.vaddr < prev_end:
                add(Finding(PASS_STRUCTURAL, "run-overlap",
                            f"pagemap run at {entry.vaddr:#x} overlaps "
                            f"the previous run", vaddr=entry.vaddr))
            prev_end = entry.vaddr + span
            for base in layout.uncovered(entry.vaddr, prev_end):
                add(Finding(PASS_STRUCTURAL, "run-outside-vma",
                            f"dumped page {base:#x} is outside "
                            f"every mapped VMA", vaddr=base))

        check()
        if pagemap.is_delta():
            self._check_parent_chain(inventory, pagemap, add)

        if self.expected_digest is not None:
            check()
            if images.content_digest() != self.expected_digest:
                add(Finding(PASS_STRUCTURAL, "content-digest",
                            "image-set content digest differs from the "
                            "sender's", severity=REPAIRABLE))
        if self.page_digests and not report.fatal():
            self._check_page_digests(images, mm, report)

        # The whole-set digest finding cannot be repaired directly; it
        # clears when the per-page repairs restore the exact bytes. With
        # no per-page divergence backing it up, it is fatal.
        for finding in list(report.findings):
            if finding.code == "content-digest":
                backed = any(f.code == "page-digest"
                             for f in report.findings)
                if backed:
                    report.findings.remove(finding)
                else:
                    finding.severity = FATAL
                    finding.repair = None

    def _check_parent_chain(self, inventory, pagemap, add) -> None:
        if not inventory.parent:
            add(Finding(PASS_STRUCTURAL, "delta-no-parent",
                        "pagemap has PE_PARENT runs but the inventory "
                        "names no parent checkpoint"))
            return
        if self.store is None:
            add(Finding(PASS_STRUCTURAL, "delta-no-store",
                        f"delta against {inventory.parent[:12]} cannot "
                        f"resolve without a checkpoint store"))
            return
        if inventory.parent not in self.store:
            add(Finding(PASS_STRUCTURAL, "delta-unknown-parent",
                        f"parent checkpoint {inventory.parent[:12]} is "
                        f"not in the store"))
            return
        try:
            unresolved = self.store.unresolved_pages(inventory.parent,
                                                     pagemap)
        except ReproError as exc:
            add(Finding(PASS_STRUCTURAL, "delta-broken-chain", str(exc)))
            return
        for base in unresolved:
            add(Finding(PASS_STRUCTURAL, "delta-unresolvable",
                        f"PE_PARENT page {base:#x} is not resolvable "
                        f"through the parent chain", vaddr=base))

    def _check_page_digests(self, images: ImageSet, mm,
                            report: VerifyReport) -> None:
        """Per-page divergence against the sender's manifest digests —
        each mismatch names the repair source pass 3 will use. The
        arrived pages' digests are the set's leaves' manifest: folded
        by the content-digest check above or built here, unless these
        very bytes were hashed before (the same ``ImageSet`` the sender
        fingerprinted), and kept for the restore and the next dump
        either way. One check per arrived page; equal manifests are one
        dict compare, and only a mismatch walks the pages."""
        arrived = images.page_leaves().manifest()
        report.checks += len(arrived)
        if arrived == self.page_digests:
            return
        text = _Layout(v for v in mm.vmas if v.file_backed)
        for base, digest in arrived.items():
            want = self.page_digests.get(base)
            if want is None or digest == want:
                continue
            repair = None
            if (self.store is not None
                    and self.store.chunks.has(want)):
                repair = ("store", base, want)
            elif self.binary is not None and base in text:
                repair = ("binary", base)
            report.add(Finding(
                PASS_STRUCTURAL, "page-digest",
                f"page {base:#x} digest differs from the sender's "
                f"manifest", severity=REPAIRABLE, vaddr=base,
                repair=repair))

    # -- pass 2: semantic --------------------------------------------------

    def _pass_semantic(self, images: ImageSet,
                       report: VerifyReport) -> None:
        add, check = report.add, self._tick(report)
        inventory = images.inventory()
        mm = images.mm()
        files_img = images.files_img()
        cores = images.cores()

        check()
        if inventory.arch not in ISAS:
            add(Finding(PASS_SEMANTIC, "arch-unknown",
                        f"inventory names unknown arch "
                        f"{inventory.arch!r}"))
            return
        isa = get_isa(inventory.arch)
        if files_img.exe_arch and files_img.exe_arch != inventory.arch:
            add(Finding(PASS_SEMANTIC, "arch-mismatch",
                        f"files.img targets {files_img.exe_arch}, "
                        f"inventory says {inventory.arch}"))

        want_dwarf = {r.dwarf for r in isa.registers}
        for core in cores:
            check()
            if core.arch != inventory.arch:
                add(Finding(PASS_SEMANTIC, "arch-mismatch",
                            f"core-{core.tid} is {core.arch}, inventory "
                            f"says {inventory.arch}"))
                continue
            missing = want_dwarf - set(core.regs)
            unknown = set(core.regs) - want_dwarf
            if missing:
                add(Finding(PASS_SEMANTIC, "regs-incomplete",
                            f"core-{core.tid} misses DWARF register(s) "
                            f"{sorted(missing)} of the {isa.name} file"))
            if unknown:
                add(Finding(PASS_SEMANTIC, "regs-unknown",
                            f"core-{core.tid} carries DWARF register(s) "
                            f"{sorted(unknown)} unknown to {isa.name}"))
            check()
            tls_vma = next((v for v in mm.vmas
                            if v.name == f"tls:{core.tid}"), None)
            # The invariant is ABI-relative: the TLS *block* (tp plus the
            # libc displacement, see repro.core.tlsmod) sits inside the
            # thread's TLS VMA; the raw thread pointer may legally point
            # just outside it (x86-64's negative block offset).
            block = tls_block_address(core.tls_base, isa.name)
            if tls_vma is None:
                add(Finding(PASS_SEMANTIC, "tls-vma",
                            f"no tls:{core.tid} VMA for core-{core.tid}"))
            elif not (tls_vma.start <= block < tls_vma.end):
                add(Finding(PASS_SEMANTIC, "tls-base",
                            f"core-{core.tid} TLS block {block:#x} "
                            f"(tp {core.tls_base:#x}) outside "
                            f"[{tls_vma.start:#x}, {tls_vma.end:#x})",
                            vaddr=block))

        if self.binary is None or report.fatal():
            return
        if self.binary.arch != inventory.arch:
            add(Finding(PASS_SEMANTIC, "arch-mismatch",
                        f"verification binary is {self.binary.arch}, "
                        f"image targets {inventory.arch}"))
            return
        self._check_text_pages(images, mm, report)
        if not images.is_delta():
            self._check_stacks(images, cores, mm, report)

    def _check_text_pages(self, images: ImageSet, mm,
                          report: VerifyReport) -> None:
        """Dumped file-backed (execution-context) pages must equal the
        linked binary's bytes: code is never legitimately written at
        runtime, so any divergence is corruption — and repairable. Only
        the runs that reach into a file-backed VMA are walked."""
        check = self._tick(report)
        text = _Layout(v for v in mm.vmas if v.file_backed)
        leaves = images.page_leaves()
        blob = leaves.blob
        for vaddr, offset, count in leaves.spans:
            end = vaddr + count * PAGE_SIZE
            if not text.overlaps(vaddr, end):
                continue
            for base in range(vaddr, end, PAGE_SIZE):
                if base not in text:
                    continue
                check()
                at = offset + base - vaddr
                # bytes against bytes: a memoryview slice would compare
                # element by element.
                if blob[at:at + PAGE_SIZE] != _binary_page(
                        self.binary, base):
                    report.add(Finding(
                        PASS_SEMANTIC, "text-page",
                        f"execution-context page {base:#x} differs "
                        f"from the linked binary's .text",
                        severity=REPAIRABLE, vaddr=base,
                        repair=("binary", base)))

    def _check_stacks(self, images: ImageSet, cores, mm,
                      report: VerifyReport) -> None:
        from ..core.rewriter import ImageMemory
        from ..core.stack_rewrite import unwind_thread
        add, check = report.add, self._tick(report)
        layout = _Layout(mm.vmas)
        try:
            memory = ImageMemory(images)
        except (RewriteError, ImageFormatError) as exc:
            add(Finding(PASS_SEMANTIC, "stack-memory", str(exc)))
            return
        for core in cores:
            check()
            if self.binary.stackmaps.park_point(core.pc) is None:
                add(Finding(PASS_SEMANTIC, "eqpoint",
                            f"core-{core.tid} pc {core.pc:#x} is not an "
                            f"entry equivalence point of the binary",
                            vaddr=core.pc))
                continue
            check()
            try:
                thread = unwind_thread(memory, core, self.binary)
            except (RewriteError, ImageFormatError, KeyError) as exc:
                add(Finding(PASS_SEMANTIC, "stack-walk",
                            f"core-{core.tid} stack walk failed: {exc}"))
                continue
            for frame in thread.frames:
                for live in frame.eqpoint.live:
                    if not live.is_pointer or live.size != 8:
                        continue
                    check()
                    value = int.from_bytes(frame.values[live.value_id],
                                           "little")
                    if value and value not in layout:
                        # Advisory, not fatal: the rewriter legally
                        # passes non-address pointer values through
                        # unchanged (pointers_kept), so this is
                        # suspicious state, not provable corruption.
                        add(Finding(
                            PASS_SEMANTIC, "pointer",
                            f"core-{core.tid} {frame.func}: live "
                            f"pointer {live.name!r} = {value:#x} points "
                            f"outside every mapped VMA", vaddr=value,
                            severity=ADVISORY))

    # -- misc --------------------------------------------------------------

    @staticmethod
    def _tick(report: VerifyReport):
        def check():
            report.checks += 1
        return check


def _binary_page(binary: DelfBinary, base: int) -> bytes:
    """The binary's bytes for the page at ``base`` (zero-padded), per
    its ``.text`` segment layout — what the loader would install."""
    for segment in binary.segments:
        if segment.section != ".text":
            continue
        lo = segment.vaddr
        if not (lo <= base < lo + max(segment.size, PAGE_SIZE)):
            continue
        offset = base - lo
        chunk = binary.text[offset:offset + PAGE_SIZE]
        return chunk + bytes(PAGE_SIZE - len(chunk))
    return bytes(PAGE_SIZE)


def image_page_digests(images: ImageSet) -> Dict[int, str]:
    """vaddr -> chunk digest for every data page: the sender-side
    manifest a receiving verifier checks the arrived bytes against —
    the set's leaves' one manifest, shared and read-only. Hashes only
    the pages the leaves do not know yet."""
    return images.page_digests()


def verify_images(images: ImageSet, *, binary: Optional[DelfBinary] = None,
                  store=None, page_digests=None, expected_digest=None,
                  raise_on_fail: bool = True,
                  registry=None) -> VerifyReport:
    """One-call verification. Raises :class:`VerifyError` carrying the
    findings when the image fails and ``raise_on_fail`` is set."""
    verifier = ImageVerifier(binary=binary, store=store,
                             page_digests=page_digests,
                             expected_digest=expected_digest,
                             registry=registry)
    report = verifier.verify(images)
    if raise_on_fail and not report.ok:
        raise VerifyError(
            f"state image failed {report.failing_pass()} verification: "
            f"{report.findings[0].message} "
            f"({len(report.findings)} finding(s))",
            pass_name=report.failing_pass() or "?",
            findings=[f.to_dict() for f in report.findings])
    return report
