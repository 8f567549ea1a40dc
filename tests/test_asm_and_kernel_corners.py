"""Corner-case tests: the assembler block layer, scheduler determinism,
and page-server edge behaviour."""

import pytest

from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.criu.lazy import PageServer
from repro.errors import EncodingError
from repro.isa import ARM_ISA, X86_ISA, Instruction
from repro.isa.asm import AsmBlock, movi_symbol
from repro.mem.paging import PAGE_SIZE
from repro.vm import Machine
from tests.conftest import OnChunkStore


class TestAsmBlock:
    def _block(self, isa):
        loop = Instruction("addi", rd=0, rn=0, imm=1)
        loop.label = "top"
        return AsmBlock(isa, [
            Instruction("movi", rd=0, imm=0),
            loop,
            Instruction("cmpi", rn=0, imm=5),
            Instruction("bcc", cond="lt", target="top"),
            Instruction("ret"),
        ])

    @pytest.mark.parametrize("isa", [X86_ISA, ARM_ISA])
    def test_labels_resolve(self, isa):
        block = self._block(isa)
        encoded = block.encode(0x1000)
        instrs = isa.disassemble(encoded, 0x1000)
        branch = next(i for i in instrs if i.op == "bcc")
        target = next(i for i in instrs if i.op == "addi")
        assert branch.target == target.addr

    @pytest.mark.parametrize("isa", [X86_ISA, ARM_ISA])
    def test_encode_repeatable_at_other_base(self, isa):
        # Encoding must not mutate the instruction list: re-encoding at a
        # different base has to produce consistent relative branches.
        block = self._block(isa)
        first = block.encode(0x1000)
        second = block.encode(0x9000)
        assert len(first) == len(second)
        branch_1 = next(i for i in isa.disassemble(first, 0x1000)
                        if i.op == "bcc")
        branch_2 = next(i for i in isa.disassemble(second, 0x9000)
                        if i.op == "bcc")
        assert branch_2.target - branch_1.target == 0x8000

    def test_duplicate_label_rejected(self):
        a = Instruction("nop")
        a.label = "dup"
        b = Instruction("nop")
        b.label = "dup"
        with pytest.raises(EncodingError):
            AsmBlock(X86_ISA, [a, b]).layout()

    def test_unresolved_target_rejected(self):
        block = AsmBlock(X86_ISA, [Instruction("b", target="nowhere")])
        with pytest.raises(EncodingError):
            block.encode(0x1000)

    def test_symbol_resolution(self):
        block = AsmBlock(X86_ISA, [Instruction("call", target="helper")])
        encoded = block.encode(0x1000, lambda name: 0x400000)
        decoded = X86_ISA.decode(encoded, 0, 0x1000)
        assert decoded.target == 0x400000

    @pytest.mark.parametrize("isa", [X86_ISA, ARM_ISA])
    def test_movi_symbol_size_independent_of_value(self, isa):
        # The whole point of movi_full: layout cannot depend on where the
        # linker puts the symbol.
        instr = movi_symbol(isa, 0, "whatever")
        size_before = isa.size_of(instr)
        block = AsmBlock(isa, [instr])
        for address in (0x1, 0x10000, 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF):
            encoded = block.encode(0, lambda name, a=address: a)
            assert len(encoded) == size_before


MT_SOURCE = """
global int order_hash;
global int mtx;

func worker(int k) {
    int i;
    i = 0;
    while (i < 15) {
        lock(&mtx);
        order_hash = (order_hash * 31 + k * 100 + i) % 1000000007;
        unlock(&mtx);
        i = i + 1;
    }
}

func main() -> int {
    int a; int b; int c;
    a = spawn(worker, 1);
    b = spawn(worker, 2);
    c = spawn(worker, 3);
    join(a);
    join(b);
    join(c);
    print(order_hash);
    return 0;
}
"""


class TestSchedulerDeterminism:
    def _run(self, quantum):
        program = compile_source(MT_SOURCE, "order")
        machine = Machine(X86_ISA, quantum=quantum)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("order", "x86_64"))
        machine.run_process(process)
        return process.stdout()

    def test_same_quantum_same_interleaving(self):
        # order_hash is interleaving-sensitive by construction; identical
        # quanta must reproduce it exactly.
        assert self._run(64) == self._run(64)
        assert self._run(17) == self._run(17)

    def test_interleaving_actually_depends_on_quantum(self):
        # Sanity that the hash really captures scheduling order (i.e. the
        # previous test isn't vacuous).
        outcomes = {self._run(q) for q in (3, 64, 999)}
        assert len(outcomes) >= 2


class TestPageServer:
    """The page-server contract; :class:`TestPageServerOnChunks` runs it
    over a chunk store."""

    server = staticmethod(PageServer)

    def test_fetch_consumes_page(self):
        server = self.server({0x1000: b"\xAA" * PAGE_SIZE})
        assert server.fetch(0x1000) == b"\xAA" * PAGE_SIZE
        assert server.fetch(0x1000) is None      # served exactly once
        assert server.pages_served == 1
        assert server.requests == 2
        assert server.remaining_pages() == 0

    def test_unknown_page_counts_as_request(self):
        server = self.server({})
        assert server.fetch(0x5000) is None
        assert server.requests == 1
        assert server.pages_served == 0

    def test_log_records_order(self):
        server = self.server({0x1000: bytes(PAGE_SIZE),
                              0x2000: bytes(PAGE_SIZE)})
        server.fetch(0x2000)
        server.fetch(0x1000)
        assert [addr for _i, addr in server.log] == [0x2000, 0x1000]

    def test_remaining_bytes(self):
        server = self.server({0x1000: bytes(PAGE_SIZE),
                              0x2000: bytes(PAGE_SIZE)})
        assert server.remaining_bytes() == 2 * PAGE_SIZE

    def test_equal_pages_are_each_served_once(self):
        """Two addresses with one digest: each is served once, and each
        serve drops exactly its own pin."""
        server = self.server({0x1000: bytes(PAGE_SIZE),
                              0x2000: bytes(PAGE_SIZE)})
        (digest,) = set(server.manifest.values())
        assert server.source.raw_pins == {digest: 2}
        assert server.fetch(0x2000) == bytes(PAGE_SIZE)
        assert server.source.raw_pins == {digest: 1}
        assert server.fetch(0x2000) is None
        assert server.fetch(0x1000) == bytes(PAGE_SIZE)
        assert server.source.raw_pins == {}
        assert server.pages_served == 2

    def test_close_releases_every_pin(self):
        server = self.server({0x1000: b"\x01" * PAGE_SIZE,
                              0x2000: b"\x02" * PAGE_SIZE})
        server.fetch(0x1000)
        server.close()
        assert server.source.raw_pins == {}
        assert server.remaining_pages() == 0
        assert server.fetch(0x2000) is None


class TestPageServerOnChunks(OnChunkStore, TestPageServer):
    pass
