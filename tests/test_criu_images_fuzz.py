"""Property/fuzz tests for the CRIU image codecs and the restore guard.

Two invariants for every image kind:

1. *Roundtrip*: ``from_bytes(to_bytes(x))`` reproduces the image.
2. *Total decoding*: for arbitrary, truncated, or bit-flipped input,
   ``from_bytes`` either succeeds or raises :class:`ImageFormatError` —
   never ``KeyError``/``IndexError``/``struct.error``/``WireError``.

Plus one for whole image *sets* (the restore guard's contract): any
mutation of a real checkpoint, pushed through the armed verifier and
through ``restore_process``, yields only typed errors
(``ImageFormatError`` / ``VerifyError`` / ``RestoreError`` / ``WireError``)
or an honest restore — never a raw ``KeyError``/``struct.error`` and
never a silent restore of corrupted bytes.

And one for the decode memo: a set keeps, for every section it encodes
itself, a copy of the image instead of decoding the blob back, so that
copy must be exactly what decoding would give — the memo is the bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from test_page_leaves import fresh_content_digest
from test_wire import same_decode

from repro.apps import all_apps, get_app
from repro.chaos import FaultInjector, FaultPlan
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.runtime import DapperRuntime
from repro.criu import images as images_mod
from repro.criu.images import (PE_PARENT, CoreImage, FilesImage,
                               ImageSet, InventoryImage, MmImage,
                               PagemapEntry, PagemapImage)
from repro.criu.plugins import SocketsImage, TmpfsImage
from repro.criu.restore import restore_process
from repro.errors import (ImageFormatError, MigrationRollback,
                          RestoreError, VerifyError, WireError)
from repro.isa import ARM_ISA, X86_ISA
from repro.mem.paging import PAGE_SIZE
from repro.mem.vma import Vma
from repro.store import CheckpointStore
from repro.verify import image_page_digests, verify_images
from repro.vm import Machine

u32 = st.integers(min_value=0, max_value=2 ** 32 - 1)
u48 = st.integers(min_value=0, max_value=2 ** 48 - 1)
i64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
name = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=24)

IMAGE_KINDS = [InventoryImage, CoreImage, MmImage, FilesImage,
               PagemapImage]


def sample_images():
    """One representative instance per image kind."""
    return [
        InventoryImage(42, "x86_64", "app", [1, 2, 3], lazy=True,
                       parent="ab" * 16),
        CoreImage(2, "aarch64", 0x400100, -1, 0x20000000, "trapped",
                  {7: 123, 16: -1}),
        MmImage([Vma(0x1000, 0x3000, 0b101, "code", True, "/bin/a", 0),
                 Vma(0x7000, 0x9000, 0b110, "stack:1", False, "", 0)],
                0x500000),
        FilesImage("/bin/app.x86_64", "x86_64"),
        PagemapImage([PagemapEntry(0x1000, 2),
                      PagemapEntry(0x5000, 3, PE_PARENT)]),
    ]


class TestRoundtrips:
    @given(pid=u32, tids=st.lists(u32, max_size=6), parent=name,
           lazy=st.booleans())
    def test_inventory(self, pid, tids, parent, lazy):
        image = InventoryImage(pid, "x86_64", "prog", tids, lazy=lazy,
                               parent=parent)
        copy = InventoryImage.from_bytes(image.to_bytes())
        assert (copy.pid, copy.tids, copy.parent, copy.lazy) == \
            (pid, tids, parent, lazy)

    @given(tid=u32, pc=u48, flags=i64, tls=u48,
           regs=st.dictionaries(st.integers(0, 64), i64, max_size=8))
    def test_core(self, tid, pc, flags, tls, regs):
        image = CoreImage(tid, "aarch64", pc, flags, tls, "running",
                          regs)
        copy = CoreImage.from_bytes(image.to_bytes())
        assert (copy.tid, copy.pc, copy.flags, copy.tls_base) == \
            (tid, pc, flags, tls)
        assert copy.regs == regs

    @given(heap=u48, starts=st.lists(u32, min_size=0, max_size=4,
                                     unique=True))
    def test_mm(self, heap, starts):
        vmas = [Vma(s * 0x1000, s * 0x1000 + 0x2000, 0b110,
                    f"vma{i}", False, "", 0)
                for i, s in enumerate(sorted(starts))]
        copy = MmImage.from_bytes(MmImage(vmas, heap).to_bytes())
        assert copy.heap_end == heap
        assert [(v.start, v.end, v.name) for v in copy.vmas] == \
            [(v.start, v.end, v.name) for v in vmas]

    @given(path=name, arch=name)
    def test_files(self, path, arch):
        copy = FilesImage.from_bytes(FilesImage(path, arch).to_bytes())
        assert (copy.exe_path, copy.exe_arch) == (path, arch)

    @given(entries=st.lists(
        st.tuples(u48, st.integers(1, 16),
                  st.sampled_from([0, PE_PARENT])),
        max_size=6))
    def test_pagemap(self, entries):
        image = PagemapImage([PagemapEntry(v * 0x1000, n, f)
                              for v, n, f in entries])
        copy = PagemapImage.from_bytes(image.to_bytes())
        assert [(e.vaddr, e.nr_pages, e.flags) for e in copy.entries] \
            == [(e.vaddr, e.nr_pages, e.flags)
                for e in image.entries]
        assert copy.total_pages() == image.total_pages()
        assert copy.data_pages() + copy.parent_pages() == \
            copy.total_pages()


class TestMalformedInputsAreContained:
    """Arbitrary bytes must produce ImageFormatError, nothing rawer."""

    def _assert_contained(self, kind, blob):
        try:
            kind.from_bytes(blob)
        except ImageFormatError:
            pass  # the contract: exactly this error for bad input

    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    @given(blob=st.binary(max_size=64))
    def test_random_bytes(self, kind, blob):
        self._assert_contained(kind, blob)

    @pytest.mark.parametrize("image", sample_images(),
                             ids=lambda i: type(i).__name__)
    def test_truncations(self, image):
        blob = image.to_bytes()
        kind = type(image)
        for cut in range(len(blob)):
            self._assert_contained(kind, blob[:cut])

    @pytest.mark.parametrize("image", sample_images(),
                             ids=lambda i: type(i).__name__)
    def test_bit_flips(self, image):
        blob = image.to_bytes()
        kind = type(image)
        for pos in range(len(blob)):
            for bit in (0, 3, 7):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                self._assert_contained(kind, bytes(flipped))

    @pytest.mark.parametrize("image", sample_images(),
                             ids=lambda i: type(i).__name__)
    def test_bad_magic_rejected(self, image):
        blob = bytearray(image.to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(ImageFormatError):
            type(image).from_bytes(bytes(blob))

    def test_wrong_kind_magic_rejected(self):
        """Feeding one kind's bytes to another kind's decoder fails
        cleanly at the magic check."""
        images = sample_images()
        for image in images:
            for other in IMAGE_KINDS:
                if isinstance(image, other):
                    continue
                with pytest.raises(ImageFormatError):
                    other.from_bytes(image.to_bytes())

    def test_missing_required_fields_rejected(self):
        from repro.criu.images import (_INVENTORY_SCHEMA, _wrap)
        # an inventory with no pid: structurally valid wire data but
        # semantically incomplete
        payload = _INVENTORY_SCHEMA.encode({"arch": "x86_64"})
        with pytest.raises(ImageFormatError):
            InventoryImage.from_bytes(_wrap("inventory", payload))


# Every error the image stack is allowed to surface for a damaged set.
TYPED = (ImageFormatError, VerifyError, RestoreError, WireError)


@pytest.fixture(scope="module")
def real_checkpoint(counter_program):
    """A genuine checkpoint plus the ground truth the sender would ship:
    the linked binary, the whole-set digest and the per-page manifest."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    images = runtime.checkpoint()
    return {
        "files": dict(images.files),
        "binary": counter_program.binary("x86_64"),
        "digest": images.content_digest(),
        "pages": image_page_digests(images),
        "program": counter_program,
    }


def _mutations(files):
    """A bounded sweep of whole-set mutations: bit flips at a stride
    through every file, truncations, and file deletions."""
    for name in sorted(files):
        blob = files[name]
        stride = max(1, len(blob) // 12)
        for pos in range(0, len(blob), stride):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << (pos % 8)
            yield f"{name}:flip@{pos}", {**files, name: bytes(flipped)}
        for cut in (0, len(blob) // 3, max(0, len(blob) - 3)):
            yield f"{name}:cut@{cut}", {**files, name: blob[:cut]}
        survivors = {k: v for k, v in files.items() if k != name}
        yield f"{name}:deleted", survivors


class TestMutatedSetsAreContained:
    """The restore guard's end-to-end promise, fuzzed over a real dump."""

    def test_armed_verifier_catches_every_mutation(self, real_checkpoint):
        """With the sender's digest manifest, no mutation that changes
        bytes can pass verification — and no failure is ever a raw
        KeyError/struct.error."""
        pristine = real_checkpoint["files"]
        for label, mutated_files in _mutations(pristine):
            mutated = ImageSet(dict(mutated_files))
            if mutated.content_digest() == real_checkpoint["digest"]:
                continue  # a no-op mutation would be honest to accept
            with pytest.raises(TYPED):
                verify_images(mutated,
                              binary=real_checkpoint["binary"],
                              page_digests=real_checkpoint["pages"],
                              expected_digest=real_checkpoint["digest"])

    def test_restore_never_leaks_raw_errors(self, real_checkpoint):
        """restore_process on a mutated set either restores (when its
        own checks can't see the damage — the armed verifier above is
        the layer that can) or raises a typed error."""
        program = real_checkpoint["program"]
        for label, mutated_files in _mutations(real_checkpoint["files"]):
            machine = Machine(X86_ISA, name="dst")
            install_program(machine, program)
            mutated = ImageSet(dict(mutated_files))
            try:
                restore_process(machine, mutated)
            except TYPED:
                continue
            except Exception as exc:  # noqa: BLE001 - the assertion
                pytest.fail(f"{label}: raw {type(exc).__name__}: {exc}")

    def test_pristine_set_passes_both_layers(self, real_checkpoint):
        images = ImageSet(dict(real_checkpoint["files"]))
        report = verify_images(images,
                               binary=real_checkpoint["binary"],
                               page_digests=real_checkpoint["pages"],
                               expected_digest=real_checkpoint["digest"])
        assert report.ok
        machine = Machine(X86_ISA, name="dst")
        install_program(machine, real_checkpoint["program"])
        process = restore_process(machine, images)
        machine.run_process(process)
        assert process.exit_code == 0


def _pagemap_with(files, runs):
    return {**files, "pagemap.img": PagemapImage(
        [PagemapEntry(*run) for run in runs]).to_bytes()}


def _digest_mutations(files):
    """Every mutation the whole-set digest must see: a flip of every
    byte of every section and of a spread of pages-1.img bytes (every
    page, drifting offsets), the pages blob one byte short or long,
    pagemaps that no longer decode or no longer cover the blob, two
    pages swapped, a page moved between runs, a file added or removed."""
    for name in sorted(files):
        blob = files[name]
        step = 97 if name == "pages-1.img" else 1
        for pos in range(0, len(blob), step):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << (pos % 8)
            yield f"{name}:flip@{pos}", {**files, name: bytes(flipped)}
        yield f"{name}:removed", {k: v for k, v in files.items()
                                  if k != name}
    yield "extra-file", {**files, "sockets.img": b""}
    pages = files["pages-1.img"]
    yield "pages:short", {**files, "pages-1.img": pages[:-1]}
    yield "pages:long", {**files, "pages-1.img": pages + b"\0"}
    yield "pagemap:cut", {**files,
                          "pagemap.img": files["pagemap.img"][:-2]}
    yield "pagemap:magic", {**files,
                            "pagemap.img": b"\0" + files["pagemap.img"]}
    runs = [(e.vaddr, e.nr_pages, e.flags) for e in
            PagemapImage.from_bytes(files["pagemap.img"]).entries]
    yield "pagemap:huge-run", _pagemap_with(
        files, runs + [(0x7000_0000, 1 << 40, 0)])
    yield "pagemap:doubled-run", _pagemap_with(
        files, [runs[0]] + runs[:-1] + [(runs[-1][0], runs[-1][1] - 1, 0)])
    first, second = pages[:PAGE_SIZE], pages[PAGE_SIZE:2 * PAGE_SIZE]
    assert first != second
    yield "pages:swapped", {
        **files, "pages-1.img": second + first + pages[2 * PAGE_SIZE:]}
    (a, n, flags), (b, m, _flags) = runs[0], runs[1]
    assert a + n * PAGE_SIZE != b            # the move changes addresses
    yield "page-moved-between-runs", _pagemap_with(
        files, [(a, n - 1, flags), (b - PAGE_SIZE, m + 1, 0)] + runs[2:])


class TestContentDigestIsTotal:
    """The whole-set digest folds file and page digests; whatever the
    bytes, it never raises, it equals the from-scratch reference, and
    it moves with any change to any byte, file or page placement."""

    def test_every_mutation_moves_the_digest(self, real_checkpoint):
        pristine = real_checkpoint["files"]
        assert ImageSet(dict(pristine)).content_digest() == \
            real_checkpoint["digest"] == fresh_content_digest(
                ImageSet(dict(pristine)))
        seen = {real_checkpoint["digest"]: "pristine"}
        for label, mutated_files in _digest_mutations(pristine):
            mutated = ImageSet(mutated_files)
            digest = mutated.content_digest()
            assert digest == fresh_content_digest(mutated), label
            assert digest not in seen, (label, seen.get(digest))
            seen[digest] = label

    def test_the_root_fills_the_page_manifest(self, real_checkpoint):
        """A covered pages-1.img contributes the page digests its leaves
        hold, so the per-page manifest costs nothing after the root."""
        images = ImageSet(dict(real_checkpoint["files"]))
        images.content_digest()
        leaves = images.page_leaves()
        assert leaves.offsets and set(leaves.digests) == set(leaves.offsets)
        assert image_page_digests(images) == real_checkpoint["pages"]


@pytest.fixture(scope="module")
def registry_dumps():
    """A real dump of every registry app on both ISAs:
    ``(label, ImageSet)`` pairs."""
    dumps = []
    for spec in all_apps():
        program = spec.compile("small")
        for isa in (X86_ISA, ARM_ISA):
            machine = Machine(isa, name="src")
            install_program(machine, program)
            process = machine.spawn_process(
                exe_path_for(spec.name, isa.name))
            machine.step_all(3000)
            runtime = DapperRuntime(machine, process)
            runtime.pause_at_equivalence_points()
            dumps.append((f"{spec.name}/{isa.name}", runtime.checkpoint()))
    return dumps


def _wire_sections(images):
    """``(file name, typed class, wire schema)`` for the sections the
    migration path decodes over and over."""
    yield "inventory.img", InventoryImage, images_mod._INVENTORY_SCHEMA
    yield "mm.img", MmImage, images_mod._MM_SCHEMA
    yield "pagemap.img", PagemapImage, images_mod._PAGEMAP_SCHEMA
    for tid in images.inventory().tids:
        yield f"core-{tid}.img", CoreImage, images_mod._CORE_SCHEMA


class TestRealImagesThroughTheCodec:
    """The fused wire codec on what it is actually fed: it must read
    and write every real image exactly as the field-at-a-time codec
    did, and fail on a cut one with the same error."""

    def test_decode_encode_is_byte_identical(self, registry_dumps):
        for label, images in registry_dumps:
            for name, kind, schema in _wire_sections(images):
                blob = images.files[name]
                assert kind.from_bytes(blob).to_bytes() == blob, \
                    (label, name)
                fields = same_decode(schema, blob[4:])
                assert schema.encode(dict(fields)) == blob[4:], (label, name)

    def test_accessor_then_setter_leaves_every_byte_alone(
            self, registry_dumps):
        for label, images in registry_dumps:
            before = dict(images.files)
            copy = ImageSet(before)
            copy.set_inventory(copy.inventory())
            copy.set_mm(copy.mm())
            copy.set_pagemap(copy.pagemap())
            copy.set_files_img(copy.files_img())
            for core in copy.cores():
                copy.set_core(core)
            assert copy.files == before, label
            assert copy.content_digest() == images.content_digest()

    def test_truncation_at_every_offset(self, registry_dumps):
        """Outside, a cut image is an ImageFormatError (or, cut between
        two optional fields, a shorter valid image); inside, the wire
        layer says WireTruncated or WireError exactly where the
        reference decoder does (``same_decode`` compares class and
        message)."""
        for label, images in registry_dumps:
            for name, kind, schema in _wire_sections(images):
                blob = images.files[name]
                for cut in range(len(blob)):
                    piece = blob[:cut]
                    wire_failed = cut < 4 or isinstance(
                        same_decode(schema, piece[4:]), tuple)
                    try:
                        kind.from_bytes(piece)
                    except ImageFormatError:
                        continue
                    assert not wire_failed, (label, name, cut)


# -- the memo is the bytes ----------------------------------------------------

#: any text UTF-8 can carry (no lone surrogates)
text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=24)
#: what a caller may hand a bool field
truthy = st.one_of(st.booleans(), st.integers(-2, 5))

SECTION_KINDS = {cls.__name__: cls for cls in IMAGE_KINDS
                 + [SocketsImage, TmpfsImage]}

sections = st.one_of(
    st.builds(InventoryImage, u32, text, text, st.lists(u32, max_size=6),
              truthy, text),
    st.builds(CoreImage, u32, text, u48, i64, u48, text,
              st.dictionaries(st.integers(0, 64), i64, max_size=8)),
    st.builds(MmImage, st.lists(st.builds(
        lambda page, pages, *rest: Vma(page * PAGE_SIZE,
                                       (page + pages) * PAGE_SIZE, *rest),
        u32, st.integers(1, 16), st.integers(0, 7), text, truthy, text,
        u48), max_size=4), u48),
    st.builds(FilesImage, text, text),
    st.builds(PagemapImage, st.lists(st.builds(
        PagemapEntry, u48, st.integers(0, 16),
        st.sampled_from([0, PE_PARENT])), max_size=6)),
    st.builds(SocketsImage, st.lists(st.fixed_dictionaries(
        {"cid": u32, "src_pid": u32, "dst_pid": u32, "payload": text}),
        max_size=3)),
    st.builds(TmpfsImage, st.dictionaries(text, st.binary(max_size=16),
                                          max_size=3)),
)


def fields(value):
    """An image as nested plain values, typed and in order: here
    ``True`` is not ``1``, and two dicts differ if their orders do."""
    if isinstance(value, dict):
        return ["dict"] + [(key, fields(item)) for key, item in value.items()]
    if isinstance(value, list):
        return ["list"] + [fields(item) for item in value]
    slots = getattr(type(value), "__slots__", None)
    if slots is None and not hasattr(value, "__dict__"):
        return (type(value).__name__, value)
    names = slots if slots is not None else sorted(vars(value))
    return [type(value).__name__] + [(name, fields(getattr(value, name)))
                                     for name in names]


def assert_memo_is_the_bytes(image):
    """What ``ImageSet.put_section`` relies on: the copy it keeps as the decode
    of the blob it stores is, field for field and type for type, what
    decoding the blob gives (a truthy non-bool flag is encoded as is
    and decoded as ``True``, so the blob need not be the copy's own
    encoding)."""
    seed = image.copy()
    assert fields(type(image).from_bytes(image.to_bytes())) == fields(seed)


class TestTheMemoIsTheBytes:
    @given(image=sections)
    @example(image=CoreImage(1, "x86_64", 0, 0, 0, "", {
        3: 2 ** 63 - 1, 1: -(2 ** 63 - 1), 2: -(2 ** 63)}))
    @example(image=InventoryImage(0, "", "", [], 1, ""))
    @example(image=FilesImage("/bin/\u00e4pp\u2013\U0001f600", "x86_64"))
    @example(image=MmImage([Vma(0x1000, 0x3000, 0b110, "stack:\u00fc",
                                2, "/d\u00e9v", 0)], 0))
    @example(image=PagemapImage([]))
    def test_roundtrip_property(self, image):
        assert_memo_is_the_bytes(image)

    def test_roundtrip_over_real_dumps(self, registry_dumps):
        seen = set()
        for label, images in registry_dumps:
            for name, blob in images.files.items():
                if name == "pages-1.img":
                    continue
                kind = _kind_of(name)
                image = kind.from_bytes(blob)
                assert image.to_bytes() == blob, (label, name)
                assert_memo_is_the_bytes(image)
                seen.add(kind)
        assert seen == set(IMAGE_KINDS)


def _kind_of(name):
    """``core-3.img`` -> ``CoreImage`` (and so on for every section)."""
    stem = name.split(".")[0].split("-")[0]
    return SECTION_KINDS[f"{stem.capitalize()}Image"]


class LiveSets:
    """Every ``ImageSet`` built while installed; after each pipeline
    stage, each memo entry whose blob is still current must equal a
    fresh decode of that blob."""

    def __init__(self, monkeypatch):
        self.sets = []
        self.stages = []
        self.entries = 0
        init = ImageSet.__init__
        stage = MigrationPipeline._txn_stage

        def tracked(images, files=None):
            init(images, files)
            self.sets.append(images)

        def checked(pipe, name, *args, **kwargs):
            try:
                return stage(pipe, name, *args, **kwargs)
            finally:
                self.check(name)

        monkeypatch.setattr(ImageSet, "__init__", tracked)
        monkeypatch.setattr(MigrationPipeline, "_txn_stage", checked)

    def check(self, stage):
        self.stages.append(stage)
        for images in self.sets:
            for name, (blob, image) in images._decoded.items():
                if images.files.get(name) is blob:
                    self.entries += 1
                    assert fields(image) == fields(
                        type(image).from_bytes(blob)), (stage, name)


def _pipelines(program, mode):
    """The there and back pipelines of one migration mode."""
    x86 = Machine(X86_ISA, name="x86")
    arm = Machine(ARM_ISA, name="arm")
    ends = [(x86, arm), (arm, x86)]
    if mode == "store":
        stores = {x86: CheckpointStore(), arm: CheckpointStore()}
        return [MigrationPipeline(src, dst, program, use_store=True,
                                  src_store=stores[src],
                                  dst_store=stores[dst])
                for src, dst in ends]
    if mode.startswith("chaos"):
        # corrupt_roll flips the tail of an arrived file: retried by the
        # arrival check, or (gate) judged by the restore guard.
        gate = mode == "chaos-gate"
        return [MigrationPipeline(
            src, dst, program, arrival_check=not gate,
            injector=FaultInjector(FaultPlan(7, corrupt=0.6)))
            for src, dst in ends]
    if mode == "plugins":
        for machine in (x86, arm):
            machine.tmpfs.write("/var/app.log", b"\x00log\xff")

        def extra(process):
            return {"tmpfs_paths": ["/var/app.log"],
                    "connections": [{"cid": 1, "src_pid": process.pid,
                                     "dst_pid": 9, "payload": "\u00fc"}]}
        return [MigrationPipeline(src, dst, program, dump_extra=extra)
                for src, dst in ends]
    return [MigrationPipeline(src, dst, program) for src, dst in ends]


@pytest.mark.parametrize("mode", ["plain", "plugins", "store", "lazy",
                                  "chaos", "chaos-gate"])
def test_every_memo_entry_is_its_blob_after_every_stage(mode, monkeypatch):
    live = LiveSets(monkeypatch)
    there, back = _pipelines(get_app("redis").compile("small"), mode)
    process = there.start()
    there.src_machine.step_all(3000)
    for pipe in (there, back, there):
        try:
            process = pipe.migrate(process, lazy=mode == "lazy").process
        except MigrationRollback:
            break
        pipe.dst_machine.step_all(500)
    assert live.entries > 0 and len(live.sets) >= 2
    assert {"checkpoint", "recode", "verify"} <= set(live.stages)
    if mode.startswith("chaos"):
        assert any(pipe.injector.counts().get("corrupt")
                   for pipe in (there, back))
