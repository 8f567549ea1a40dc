"""Page identity (``repro.mem.leaves``): a page is hashed once per change.

Three kinds of proof, none of them a timing:

* **counts** — a :class:`HashCounter` around ``hashlib.blake2b`` pins
  how many page-sized hashes and whole-image passes one migration runs,
  against ground truth the test measures itself (bytes that differ from
  the arrival image, pages the rewriter copied);
* **memo == fresh** — whatever the leaves remember equals hashing the
  bytes again, after every stage, on all three engines;
* **nothing weaker** — corruption in a new object is still caught, equal
  content in a new object is still re-hashed, and every way of changing
  a live page behind the address space's back is seen by the next dump.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib

import pytest

import repro.mem
from repro.apps.registry import get_app
from repro.chaos import FaultInjector, FaultPlan
from repro.compiler import compile_source
from repro.core import runtime as runtime_module
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.rewriter import ImageMemory, ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.dump import dump_process
from repro.criu.images import ImageSet
from repro.criu.lazy import restore_process_lazy
from repro.errors import MigrationRollback
from repro.isa import ARM_ISA, X86_ISA
from repro.mem import PageLeaves, page_digest
from repro.mem.paging import PAGE_SIZE
from repro.replay.recorder import BitFlip
from repro.store import (CheckpointStore, ChunkStore,
                         IncrementalCheckpointer, chunk_digest)
from repro.verify import ImageVerifier, Quarantine, image_page_digests
from repro.verify import page_digest as verify_page_digest
from repro.vm import Machine, chains
from repro.vm.ptrace import Tracer

RESIDENT_PAGES = 80

#: 80 heap pages; one ``churn`` round (~900 instructions) touches 8 of
#: them, so a migration every round sees 10 % of the heap changed.
RESIDENT_SOURCE = """
global int *heap;
global int cursor;

func fill(int page) {
    int w;
    w = 0;
    while (w < 512) {
        heap[page * 512 + w] = page * 7919 + w + 1;
        w = w + 64;
    }
}

func touch(int page, int val) {
    heap[page * 512 + (val % 64) * 8] = val;
}

func churn(int round) {
    int t;
    t = 0;
    while (t < 8) {
        cursor = (cursor + 37) % 80;
        touch(cursor, round * 131 + t + 1);
        t = t + 1;
    }
}

func main() -> int {
    int p; int r;
    heap = sbrk(80 * 4096);
    p = 0;
    while (p < 80) {
        fill(p);
        p = p + 1;
    }
    r = 0;
    while (r < 2000) {
        churn(r);
        r = r + 1;
    }
    print(cursor);
    return 0;
}
"""
RESIDENT_FILL_STEPS = 45_000
RESIDENT_ROUND_STEPS = 900


@pytest.fixture(scope="module")
def resident_program():
    return compile_source(RESIDENT_SOURCE, "resident")


def _program(name, resident_program):
    if name == "resident":
        return resident_program, RESIDENT_FILL_STEPS, RESIDENT_ROUND_STEPS
    return get_app(name).compile("small"), 3000, 500


class HashCounter:
    """Counts ``hashlib.blake2b`` constructions by input length:
    ``pages`` one-shot hashes of exactly one page, ``other`` one-shot
    hashes of anything else (meta blobs, manifests), ``streams``
    incremental hashes started empty — on the migration path that is
    ``ImageSet.content_digest``'s full pass and nothing else."""

    def __init__(self, monkeypatch):
        self.pages = self.other = self.streams = 0
        real = hashlib.blake2b

        def counted(data=b"", **kwargs):
            if len(data) == PAGE_SIZE:
                self.pages += 1
            elif len(data):
                self.other += 1
            else:
                self.streams += 1
            return real(data, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counted)

    def reset(self):
        self.pages = self.other = self.streams = 0


class StageSpy:
    """Splits one ``migrate()`` at the boundaries the pins need and
    collects the ground truth for the source budget from outside the
    mechanism under test: the dumped (pre-rewrite) page bytes, and how
    many pages the rewriter copied."""

    def __init__(self, monkeypatch, counter):
        spy = self
        flush = ImageMemory.flush
        repair = ImageVerifier.repair
        put = CheckpointStore.put

        def spy_flush(memory):
            leaves = memory._images.page_leaves()
            spy.dumped = {vaddr: leaves.page(vaddr)
                          for vaddr in leaves.offsets}
            spy.touched = len(memory._pages)
            return flush(memory)

        def spy_repair(verifier, images):
            spy.pages_before_verify = counter.pages
            return repair(verifier, images)

        def spy_put(store, images, parent=None):
            pages, other = counter.pages, counter.other
            result = put(store, images, parent)
            spy.put_pages = counter.pages - pages
            spy.put_other = counter.other - other
            spy.put_blobs = len(images.files) - 1      # all but the pages
            return result

        monkeypatch.setattr(ImageMemory, "flush", spy_flush)
        monkeypatch.setattr(ImageVerifier, "repair", spy_repair)
        monkeypatch.setattr(CheckpointStore, "put", spy_put)

    def changed_since(self, arrived: ImageSet) -> int:
        """Dumped pages whose bytes differ from the image the process
        was restored from (or that it did not hold)."""
        return sum(1 for vaddr, data in self.dumped.items()
                   if arrived.page_at(vaddr) != data)


def fresh_content_digest(images: ImageSet) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(images.files):
        h.update(name.encode("utf-8") + b"\x00")
        h.update(images.files[name] + b"\x01")
    return h.hexdigest()


def assert_memo_is_fresh(images: ImageSet) -> None:
    """Everything the set's leaves remember — and everything they go on
    to compute — equals hashing the bytes from scratch."""
    leaves = images.page_leaves()
    blob = images.pages()
    assert leaves.blob is blob
    fresh = {}
    offset = 0
    for entry in images.pagemap().entries:
        if entry.in_parent:
            continue
        for i in range(entry.nr_pages):
            fresh[entry.vaddr + i * PAGE_SIZE] = chunk_digest(
                blob[offset:offset + PAGE_SIZE])
            offset += PAGE_SIZE
    for vaddr, digest in leaves.digests.items():
        assert digest == fresh[vaddr], f"stale leaf at {vaddr:#x}"
    assert images.page_digests() == fresh
    assert image_page_digests(images) == fresh
    assert images.content_digest() == fresh_content_digest(images)


def assert_origin_is_fresh(process) -> None:
    origin = process.aspace.origin
    assert origin is not None
    for vaddr, digest in origin.digests.items():
        assert digest == chunk_digest(origin.page(vaddr))


class PingPong:
    """One program bounced between an x86 and an arm machine."""

    def __init__(self, program, fill_steps, stores=None, **machine_kwargs):
        self.x86 = Machine(X86_ISA, name="x86", **machine_kwargs)
        self.arm = Machine(ARM_ISA, name="arm", **machine_kwargs)
        forward = backward = {}
        if stores is not None:
            forward = dict(use_store=True, src_store=stores[0],
                           dst_store=stores[1])
            backward = dict(use_store=True, src_store=stores[1],
                            dst_store=stores[0])
        self.pipes = {
            "x86_64": MigrationPipeline(self.x86, self.arm, program,
                                        **forward),
            "aarch64": MigrationPipeline(self.arm, self.x86, program,
                                         **backward)}
        self.process = self.pipes["x86_64"].start()
        self.x86.step_all(fill_steps)
        self.result = None

    def hop(self, steps):
        self.process.machine.step_all(steps)
        assert not self.process.exited
        self.result = self.pipes[self.process.isa.name].migrate(
            self.process)
        self.process = self.result.process
        return self.result


# -- counts ----------------------------------------------------------------------


class TestHashOncePerChange:
    @pytest.mark.parametrize("app", ["resident", "redis", "swaptions"])
    def test_plain_pingpong_hash_budget(self, app, resident_program,
                                        monkeypatch):
        """Plain scp: the source hashes at most the pages that changed
        since the process arrived plus the pages the rewriter copied;
        the destination — handed the very ``ImageSet`` the source
        fingerprinted — hashes nothing; the one distinct image gets one
        whole-image pass. (Before: every page, twice, and two passes.)"""
        program, fill, gap = _program(app, resident_program)
        pingpong = PingPong(program, fill)
        pingpong.hop(gap)                           # arrive somewhere
        counter = HashCounter(monkeypatch)
        spy = StageSpy(monkeypatch, counter)
        for _ in range(4):
            arrived = pingpong.result.images
            counter.reset()
            result = pingpong.hop(gap)
            source = spy.pages_before_verify
            budget = spy.changed_since(arrived) + spy.touched
            assert source <= budget
            assert counter.pages - source == 0       # destination
            assert counter.streams == 1
            total = result.images.pagemap().total_pages()
            if app == "resident":
                assert total >= 64
                assert budget < total // 3           # the pin has teeth
        pingpong.process.machine.run_process(pingpong.process)
        assert pingpong.process.exit_code == 0

    @pytest.mark.parametrize("app", ["resident", "redis", "swaptions"])
    def test_store_pingpong_hash_budget(self, app, resident_program,
                                        monkeypatch):
        """Store path: ``put`` addresses page chunks by the digests the
        manifest already named (it hashes the meta blobs and its own
        manifest only), ``adopt`` re-hashes what crossed the wire, and
        the guard hashes each materialised page exactly once — the one
        result restore adopts. Two distinct images, two passes."""
        program, fill, gap = _program(app, resident_program)
        stores = (CheckpointStore(), CheckpointStore())
        pingpong = PingPong(program, fill, stores)
        pingpong.hop(gap)
        pingpong.hop(gap)                           # both stores warm
        counter = HashCounter(monkeypatch)
        spy = StageSpy(monkeypatch, counter)
        for _ in range(4):
            arrived = pingpong.result.images
            counter.reset()
            result = pingpong.hop(gap)
            shipped = result.stats["store"]["chunks_shipped"]
            materialised = len(result.images.page_leaves().offsets)
            assert (spy.put_pages, spy.put_other) == \
                (0, spy.put_blobs + 1)               # metas + manifest
            assert counter.pages - spy.pages_before_verify == materialised
            assert spy.pages_before_verify <= (
                spy.changed_since(arrived) + spy.touched + shipped)
            assert counter.streams == 2
            assert_origin_is_fresh(result.process)
        for store in stores:
            assert store.verify() == []

    def test_new_object_equal_content_rehashes(self, resident_program,
                                               monkeypatch):
        pingpong = PingPong(resident_program, RESIDENT_FILL_STEPS)
        images = pingpong.hop(RESIDENT_ROUND_STEPS).images
        pages = len(images.page_leaves().offsets)
        counter = HashCounter(monkeypatch)
        before = (images.page_digests(), images.content_digest())
        assert (counter.pages, counter.streams) == (0, 0)
        images.files["pages-1.img"] = bytes(bytearray(images.pages()))
        assert (images.page_digests(), images.content_digest()) == before
        assert (counter.pages, counter.streams) == (pages, 1)
        counter.reset()
        clone = ImageSet(dict(images.files))         # same blobs, new set
        assert (clone.page_digests(), clone.content_digest()) == before
        assert (counter.pages, counter.streams) == (pages, 1)
        counter.reset()
        tmpfs = pingpong.process.machine.tmpfs
        images.save(tmpfs, "/again")
        reloaded = ImageSet.load(tmpfs, "/again")    # out of a tmpfs
        assert (reloaded.page_digests(),
                reloaded.content_digest()) == before
        assert (counter.pages, counter.streams) == (pages, 1)

    def test_ensure_takes_the_digest_as_a_value(self, monkeypatch):
        data = bytes(range(256)) * 16
        digest = chunk_digest(data)
        counter = HashCounter(monkeypatch)
        store = ChunkStore()
        assert store.ensure(data, digest) == (digest, True)
        assert store.ensure(data, digest) == (digest, False)
        assert counter.pages == 0
        assert store.ensure(data) == (digest, False)  # alone: as before
        assert counter.pages == 1
        assert store.get(digest) == data and store.verify() == []

    def test_one_hash_function(self):
        assert chunk_digest is page_digest is verify_page_digest
        assert page_digest(b"x") == hashlib.blake2b(
            b"x", digest_size=16).hexdigest()


# -- memo == fresh ---------------------------------------------------------------


ENGINES = {"per-step": dict(block_engine=False),
           "tier2": dict(chain_engine=False),
           "tier3": dict()}


class TestMemoEqualsFresh:
    @pytest.mark.usefixtures("early_chains")
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_six_hop_pingpong_every_stage(self, engine, resident_program,
                                          monkeypatch):
        """After dump, after rewrite, at the guard, after restore: the
        remembered digests equal a from-scratch hash. The gap is long
        enough for tier 2/3 to compile the churn loop, whose memory
        sites store into pages directly — no write path could have told
        a dirty bit."""
        dump = runtime_module.dump_process
        rewrite = ProcessRewriter.rewrite
        repair = ImageVerifier.repair
        stages = []

        def checked_dump(process, **kwargs):
            images = dump(process, **kwargs)
            assert process.aspace.origin is images.page_leaves()
            assert_memo_is_fresh(images)
            stages.append("dump")
            return images

        def checked_rewrite(rewriter, images, policy=None):
            reports = rewrite(rewriter, images, policy)
            assert_memo_is_fresh(images)
            stages.append("rewrite")
            return reports

        def checked_repair(verifier, images):
            assert_memo_is_fresh(images)
            stages.append("verify")
            return repair(verifier, images)

        monkeypatch.setattr(runtime_module, "dump_process", checked_dump)
        monkeypatch.setattr(ProcessRewriter, "rewrite", checked_rewrite)
        monkeypatch.setattr(ImageVerifier, "repair", checked_repair)

        pingpong = PingPong(resident_program, RESIDENT_FILL_STEPS,
                            **ENGINES[engine])
        compiled = False
        chained = set()                # ISAs on which tier 3 bound a chain
        for _ in range(6):
            pingpong.process.machine.step_all(5 * RESIDENT_ROUND_STEPS)
            blocks = pingpong.process.block_cache.values()
            compiled |= any(b.fn is not None for b in blocks)
            if any(b.chain not in (None, chains.NO_CHAIN) for b in blocks):
                chained.add(pingpong.process.isa.name)
            result = pingpong.hop(0)
            assert_memo_is_fresh(result.images)
            assert_origin_is_fresh(result.process)
            assert result.process.aspace.origin is \
                result.images.page_leaves()
        assert stages == ["dump", "rewrite", "verify"] * 6
        assert compiled == (engine != "per-step")
        assert chained == ({"x86_64", "aarch64"} if engine == "tier3"
                           else set())
        pingpong.process.machine.run_process(pingpong.process)
        assert pingpong.process.exit_code == 0


# -- nothing weaker --------------------------------------------------------------


@pytest.fixture
def arrival(resident_program):
    """A resident restored on arm from a fingerprinted image: every page
    of its ``origin`` carries a digest, so any stale reuse would show."""
    pingpong = PingPong(resident_program, RESIDENT_FILL_STEPS)
    result = pingpong.hop(RESIDENT_ROUND_STEPS)
    origin = result.process.aspace.origin
    assert len(origin.digests) == len(origin.offsets) >= 64
    return pingpong


def _paused_dump(pingpong) -> ImageSet:
    process = pingpong.process
    runtime = DapperRuntime(process.machine, process)
    runtime.pause_at_equivalence_points()
    return runtime.checkpoint()


def _heap_page(process) -> int:
    return process.aspace.vma_by_name("heap").start + 5 * PAGE_SIZE


class TestNothingWeaker:
    def test_flip_in_a_new_pages_object_is_found_and_repaired(
            self, arrival):
        images = arrival.result.images
        want = images.page_digests()
        digest = images.content_digest()
        store = CheckpointStore()
        store.put(images)                            # the repair source
        victim = _heap_page(arrival.process)
        offset = images.page_leaves().offsets[victim]
        blob = bytearray(images.pages())
        blob[offset + 100] ^= 0x40
        binary = arrival.pipes["x86_64"].program.binary("aarch64")
        for arrived in (ImageSet(dict(images.files)), images):
            arrived.files["pages-1.img"] = bytes(blob)
            verifier = ImageVerifier(binary=binary, store=store,
                                     page_digests=want,
                                     expected_digest=digest)
            report = verifier.verify(arrived)
            assert [(f.code, f.vaddr) for f in report.findings] == \
                [("page-digest", victim)]
            fixed, after = verifier.repair(arrived)
            assert after.ok and [f.vaddr for f in after.repaired] == [victim]
            assert fixed.content_digest() == digest
            assert_memo_is_fresh(fixed)

    def test_scp_corruption_still_reaches_the_guard(self,
                                                    resident_program):
        src = Machine(X86_ISA, name="src")
        dst = Machine(ARM_ISA, name="dst")
        pipeline = MigrationPipeline(
            src, dst, resident_program, arrival_check=False,
            injector=FaultInjector(FaultPlan(5, corrupt=1.0)))
        process = pipeline.start()
        src.step_all(RESIDENT_FILL_STEPS)
        with pytest.raises(MigrationRollback) as err:
            pipeline.migrate(process)
        assert err.value.stage == "verify"
        quarantine = Quarantine(dst.tmpfs)
        (qid,) = quarantine.ids()
        codes = {f["code"] for f in
                 quarantine.diagnosis(qid)["findings"]}
        assert "page-digest" in codes
        src.run_process(process)                     # source unharmed
        assert process.exit_code == 0

    def _assert_seen(self, pingpong, vaddr):
        """The next dump carries no stale digest for ``vaddr`` and every
        digest it does carry is right."""
        origin = pingpong.process.aspace.origin
        images = _paused_dump(pingpong)
        leaves = images.page_leaves()
        assert leaves.page(vaddr) != origin.page(vaddr)
        assert vaddr not in leaves.digests           # not carried over
        assert len(leaves.digests) > len(leaves.offsets) // 2   # most are
        assert_memo_is_fresh(images)
        assert pingpong.process.aspace.origin is leaves
        return images

    def test_bitflip_between_restore_and_dump(self, arrival):
        victim = _heap_page(arrival.process)
        assert BitFlip(0, victim + 9, bit=3).fire([arrival.process.machine])
        self._assert_seen(arrival, victim)

    def test_poke_data_between_restore_and_dump(self, arrival):
        victim = _heap_page(arrival.process)
        tracer = Tracer(arrival.process.machine)
        tracer.attach_all(arrival.process)
        tracer.poke_data(victim + 64, 0xDEADBEEF)
        tracer.detach_all()
        self._assert_seen(arrival, victim)

    def test_install_page_between_restore_and_dump(self, arrival):
        victim = _heap_page(arrival.process)
        arrival.process.aspace.install_page(victim, b"\x5A" * PAGE_SIZE)
        self._assert_seen(arrival, victim)

    def test_drop_page_between_restore_and_dump(self, arrival):
        """A dropped page reads as zeros again; once rewritten it is a
        new page, whatever the origin still says about its address."""
        aspace = arrival.process.aspace
        victim = _heap_page(arrival.process)
        aspace.drop_page(victim)
        assert aspace.page(victim) is None
        aspace.write_u64(victim + 8, 7)
        self._assert_seen(arrival, victim)

    def test_unmap_and_remap_between_restore_and_dump(self, arrival):
        aspace = arrival.process.aspace
        heap = aspace.vma_by_name("heap")
        victim = _heap_page(arrival.process)
        saved = {base: bytes(data) for base, data
                 in aspace.populated_pages()
                 if heap.start <= base < heap.end}
        aspace.unmap(heap.start, heap.end)
        aspace.map(heap)
        for base, data in saved.items():
            if base != victim:
                aspace.install_page(base, data)
        aspace.write_u64(victim, 1)
        images = self._assert_seen(arrival, victim)
        # everything put back byte-identically kept its digest for free
        assert len(images.page_leaves().digests) >= len(saved) - 1

    def test_lazy_page_in_between_restore_and_dump(self, arrival,
                                                   monkeypatch):
        """Post-copy: the eager image is the origin; pages faulted in
        later were never in it, and an eager page written after restore
        no longer matches it."""
        source = arrival.process
        runtime = DapperRuntime(source.machine, source)
        runtime.pause_at_equivalence_points()
        images, server = runtime.checkpoint_lazy()
        eager = set(images.page_leaves().offsets)
        assert source.aspace.origin is images.page_leaves()
        assert_memo_is_fresh(images)                 # eager-only dump
        assert server.remaining_pages() >= RESIDENT_PAGES
        runtime.kill_source()
        images.page_digests()
        restored = restore_process_lazy(source.machine, images, server)
        assert set(restored.aspace.origin.offsets) == eager
        restored.machine.step_all(3 * RESIDENT_ROUND_STEPS)
        assert server.pages_served > 0
        arrival.process = restored
        counter = HashCounter(monkeypatch)
        dumped = _paused_dump(arrival)
        assert counter.pages == 0                    # a dump never hashes
        paged_in = set(dumped.page_leaves().offsets) - eager
        assert paged_in and not paged_in & set(dumped.page_leaves().digests)
        assert_memo_is_fresh(dumped)

    def test_delta_dump_keeps_parent_pages_out_of_the_leaves(
            self, arrival):
        process = arrival.process
        runtime = DapperRuntime(process.machine, process)
        store = CheckpointStore()
        checkpointer = IncrementalCheckpointer(store, process,
                                               runtime=runtime)
        runtime.pause_at_equivalence_points()
        checkpointer.checkpoint()
        for _ in range(2):
            runtime.resume()
            process.machine.step_all(RESIDENT_ROUND_STEPS)
            runtime.pause_at_equivalence_points()
            put = checkpointer.checkpoint()
            delta = checkpointer.last_images
            assert put.delta and delta.is_delta()
            leaves = delta.page_leaves()
            assert leaves.parent_run is not None
            assert len(leaves.offsets) == put.pages_carried < put.pages_total
            assert process.aspace.origin is leaves
            assert_memo_is_fresh(delta)
            full = store.materialize(put.checkpoint_id, verify=True)
            assert_memo_is_fresh(full)
        assert store.verify() == []

    @pytest.mark.parametrize("length", [-1, -PAGE_SIZE, 1, PAGE_SIZE])
    def test_wrong_length_pages_is_a_finding_not_an_exception(
            self, arrival, length):
        images = arrival.result.images
        want = images.page_digests()
        blob = images.pages()
        bad = ImageSet(dict(images.files))
        bad.files["pages-1.img"] = (blob[:length] if length < 0
                                    else blob + bytes(length))
        binary = arrival.pipes["x86_64"].program.binary("aarch64")
        report = ImageVerifier(binary=binary, page_digests=want).verify(bad)
        assert [f.code for f in report.findings] == ["pages-length"]
        fixed, _report = ImageVerifier(
            binary=binary, page_digests=want).repair(bad)
        assert fixed is None
        bad.page_digests()                           # total: no raise
        ImageMemory(bad).read(_heap_page(arrival.process), 8)


# -- same bytes ------------------------------------------------------------------


class TestGoldenIds:
    """Delta dumps, lazy dumps and incremental chains produce the bytes
    they produced before page identity existed (ids taken at the parent
    commit)."""

    @pytest.fixture
    def parked(self, counter_program):
        machine = Machine(X86_ISA, name="src")
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.step_all(1500)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        return machine, process, runtime

    @staticmethod
    def _advance(machine, runtime):
        runtime.resume()
        machine.step_all(1200)
        runtime.pause_at_equivalence_points()

    def test_incremental_chain(self, parked):
        machine, process, runtime = parked
        checkpointer = IncrementalCheckpointer(CheckpointStore(), process,
                                               runtime=runtime)
        for _ in range(3):
            checkpointer.checkpoint()
            self._advance(machine, runtime)
        assert checkpointer.last_id == "dff15b1a9b4a46e734ac85c03cfbf66b"
        assert checkpointer.last_images.content_digest() == \
            "a612dc35cfe61ee2dc6261c9d5e228f4"

    def test_lazy_dump(self, parked):
        _machine, _process, runtime = parked
        images, _server = runtime.checkpoint_lazy()
        assert CheckpointStore().put(images).checkpoint_id == \
            "80f89cfc45104bb0cdcc887c9a5c67e2"
        assert images.content_digest() == \
            "6a186d82af6a9a7b8a8d40d02efddcd6"

    def test_parent_delta_dump(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        runtime.clear_flag()
        parent = store.put(dump_process(process)).checkpoint_id
        process.start_dirty_tracking()
        self._advance(machine, runtime)
        runtime.clear_flag()
        delta = dump_process(
            process, parent=parent,
            parent_pages=set(store.resolve_pages(parent)),
            dirty_pages=process.harvest_dirty_pages())
        assert delta.is_delta()
        assert store.put(delta, parent=parent).checkpoint_id == \
            "6bbdbddcd2d72aecf6e7dcbf36718abf"
        assert delta.content_digest() == \
            "0b5550823209d63fd8b81b2cea179e8d"


# -- layering --------------------------------------------------------------------


class TestLayering:
    def test_mem_imports_neither_criu_nor_store(self):
        package = pathlib.Path(repro.mem.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    parts = name.split(".")
                    assert not {"criu", "store", "verify", "core"} \
                        & set(parts), f"{path.name} imports {name}"

    def test_clone_shares_origin(self, arrival):
        aspace = arrival.process.aspace
        clone = aspace.clone()
        assert clone.origin is aspace.origin is not None
        victim = _heap_page(arrival.process)
        clone.write_u64(victim, 99)                  # diverge the copy
        assert clone.origin.unchanged(victim, clone.page(victim)) is None
        assert aspace.origin.unchanged(victim, aspace.page(victim)) == \
            aspace.origin.digests[victim]

    def test_leaves_walk_skips_parent_runs(self):
        class Run:
            def __init__(self, vaddr, nr_pages, in_parent=False):
                self.vaddr, self.nr_pages = vaddr, nr_pages
                self.in_parent = in_parent

        blob = b"a" * PAGE_SIZE + b"b" * PAGE_SIZE + b"c" * PAGE_SIZE
        leaves = PageLeaves(blob, [Run(0x1000, 1), Run(0x2000, 3, True),
                                   Run(0x9000, 2)])
        assert leaves.offsets == {0x1000: 0, 0x9000: PAGE_SIZE,
                                  0xA000: 2 * PAGE_SIZE}
        assert (leaves.parent_run, leaves.data_bytes) == \
            (0x2000, 3 * PAGE_SIZE)
        assert leaves.page(0x2000) is None and leaves.page(0xA000)[0:1] == b"c"
        assert leaves.digests == {}
        assert leaves.digest(0x9000) == page_digest(b"b" * PAGE_SIZE)
        assert leaves.unchanged(0x9000, bytearray(b"b" * PAGE_SIZE)) == \
            leaves.digests[0x9000]
        assert leaves.unchanged(0x9000, bytearray(b"x" * PAGE_SIZE)) is None
        assert leaves.unchanged(0x1000, bytearray(b"a" * PAGE_SIZE)) is None
        assert list(leaves.offsets) == [0x1000, 0x9000, 0xA000]
