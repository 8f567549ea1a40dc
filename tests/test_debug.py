"""Tests for the time-travel debugger: DAP framing, the snapshot-backed
debug session (forward/reverse stepping, breakpoints, watchpoint
bisection, cross-ISA inspection), the TCP DAP server end to end, and
the repro-debug CLI error contract."""

import threading

import pytest

from repro.debug import (DapClient, DebugSession, SourceMap,
                         StreamDecoder, encode_message)
from repro.debug.server import run_tcp
from repro.debug.session import StopInfo
from repro.debug.snapshots import SnapshotIndex, WorldSnapshot
from repro.errors import DebugError, JournalTruncated
from repro.replay import (Journal, bisect_last_transition, record_migrate,
                          record_run)
from repro.replay import journal as jn
from repro.tools import debug as debug_cli

LOOP_SOURCE = """
global int acc;
func bump(int i) -> int {
    acc = acc + i;
    return acc;
}
func main() -> int {
    int i;
    i = 0;
    while (i < 400) { bump(i); i = i + 1; }
    print(acc);
    return 0;
}
"""

#: sentinel is corrupted exactly once, mid-run, inside a helper — the
#: watchpoint-bisection scenario
CORRUPT_SOURCE = """
global int sentinel;
global int acc;
func work(int i) -> int {
    acc = acc + i;
    if (i == 150) { sentinel = 666; }
    return acc;
}
func main() -> int {
    int i;
    sentinel = 12345;
    i = 0;
    while (i < 300) { work(i); i = i + 1; }
    print(sentinel);
    print(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_recording():
    return record_run(LOOP_SOURCE, "loop", digest_every=8)


@pytest.fixture(scope="module")
def corrupt_recording():
    return record_run(CORRUPT_SOURCE, "corrupt", digest_every=8)


@pytest.fixture(scope="module")
def migrate_recording():
    return record_migrate(LOOP_SOURCE, "loop", warmup=3000,
                          digest_every=8)


@pytest.fixture(scope="module")
def loop_session(loop_recording):
    return DebugSession(loop_recording.journal, snapshot_every=16)


@pytest.fixture(scope="module")
def migrate_session(migrate_recording):
    return DebugSession(migrate_recording.journal, snapshot_every=16)


@pytest.fixture
def clean(loop_session):
    """The shared session with no breakpoints, parked at the start."""
    loop_session.pc_breakpoints = set()
    loop_session.quantum_breakpoints = set()
    loop_session.clear_watchpoints()
    loop_session.seek(loop_session.start_position())
    return loop_session


# -- satellite: typed journal truncation ---------------------------------


class TestTruncatedJournals:
    def test_truncated_blob_raises_typed_error(self, loop_recording):
        blob = loop_recording.journal.to_bytes()
        with pytest.raises(JournalTruncated) as info:
            Journal.from_bytes(blob[:len(blob) - 30])
        exc = info.value
        assert exc.journal is not None
        assert len(exc.journal.events) > 0
        assert exc.last_instr >= 0

    def test_truncated_journal_is_debuggable(self, loop_recording):
        blob = loop_recording.journal.to_bytes()
        with pytest.raises(JournalTruncated) as info:
            Journal.from_bytes(blob[:int(len(blob) * 0.7)])
        partial = info.value.journal
        session = DebugSession(partial, snapshot_every=32)
        assert session.total_instructions > 0
        # the partial timeline's digests still verify exactly
        index, _pos = session.digest_positions()[-1]
        assert session.verify_digest(index)

    def test_cli_loads_truncated_journal(self, loop_recording,
                                         tmp_path, capsys):
        blob = loop_recording.journal.to_bytes()
        path = tmp_path / "cut.jrn"
        path.write_bytes(blob[:len(blob) - 30])
        journal = debug_cli._load_journal(str(path))
        assert len(journal.events) > 0
        assert "truncated" in capsys.readouterr().err


# -- DAP framing ---------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        message = {"seq": 1, "type": "request", "command": "initialize"}
        decoder = StreamDecoder()
        assert decoder.feed(encode_message(message)) == [message]

    def test_split_and_coalesced_frames(self):
        a = {"seq": 1, "type": "request", "command": "x"}
        b = {"seq": 2, "type": "request", "command": "y"}
        data = encode_message(a) + encode_message(b)
        decoder = StreamDecoder()
        collected = []
        for i in range(0, len(data), 7):
            collected.extend(decoder.feed(data[i:i + 7]))
        assert collected == [a, b]

    def test_bad_body_raises(self):
        decoder = StreamDecoder()
        with pytest.raises(DebugError):
            decoder.feed(b"Content-Length: 3\r\n\r\nnope")

    def test_missing_length_raises(self):
        decoder = StreamDecoder()
        with pytest.raises(DebugError):
            decoder.feed(b"Content-Type: json\r\n\r\n{}")


# -- source mapping ------------------------------------------------------


class TestSourceMap:
    def test_function_extents(self):
        sm = SourceMap(LOOP_SOURCE)
        names = [name for name, _first, _last in sm.functions]
        assert names == ["bump", "main"]
        assert sm.function_at_line(4) == "bump"
        assert sm.function_at_line(9) == "main"
        assert sm.function_at_line(1) is None
        assert sm.line_of("bump") == 3

    def test_unknown_function(self):
        sm = SourceMap(LOOP_SOURCE)
        assert sm.line_of("nope") is None


# -- the debug session ---------------------------------------------------


class TestDebugSession:
    def test_timeline_totals(self, clean):
        assert clean.total_instructions > 0
        assert clean.total_slices > 0
        assert len(clean.snapshots) > 1

    def test_seek_by_instruction(self, clean):
        clean.seek_instr(1000)
        assert clean.instructions == 1000
        clean.seek_instr(3000)
        assert clean.instructions == 3000
        clean.seek_instr(0)
        assert clean.instructions == 0

    def test_seek_cost_is_gap_not_run(self, clean):
        clean.seek_instr(clean.total_instructions - 100)
        before = clean.slices_reexecuted
        clean.seek_instr(clean.total_instructions - 150)
        cost = clean.slices_reexecuted - before
        # one snapshot gap (16 slices) plus slack, never the whole run
        assert cost <= 2 * clean.snapshot_every
        assert cost < clean.total_slices / 2

    def test_step_and_step_back_are_inverse(self, clean):
        clean.seek_instr(997)
        trail = [clean.position]
        for _ in range(6):
            clean.step()
            trail.append(clean.position)
        for expected in reversed(trail[:-1]):
            clean.step_back()
            assert clean.position == expected

    def test_step_back_at_start_returns_none(self, clean):
        assert clean.step_back() is None

    def test_function_breakpoint_and_reverse(self, clean):
        for addr, arch, _line in clean.resolve_function("bump"):
            clean.pc_breakpoints.add((addr, arch))
        first = clean.continue_forward()
        assert first.reason == "breakpoint"
        second = clean.continue_forward()
        assert second.reason == "breakpoint"
        assert second.position > first.position
        back = clean.reverse_continue()
        assert back.reason == "breakpoint"
        assert back.position == first.position
        # nothing before the first hit: reverse lands at the entry
        entry = clean.reverse_continue()
        assert entry.reason == "entry"

    def test_quantum_breakpoints(self, clean):
        clean.quantum_breakpoints = {40, 80}
        stop = clean.continue_forward()
        assert stop.reason == "quantum" and clean.slice_index == 40
        stop = clean.continue_forward()
        assert stop.reason == "quantum" and clean.slice_index == 80
        back = clean.reverse_continue()
        assert back.reason == "quantum" and clean.slice_index == 40

    def test_run_to_end_reports_exit(self, clean):
        stop = clean.continue_forward()
        assert stop.reason == "end"
        assert clean.at_end()
        assert clean.exit_code == 0

    def test_frames_and_variables(self, clean):
        for addr, arch, _line in clean.resolve_function("bump"):
            clean.pc_breakpoints.add((addr, arch))
        clean.continue_forward()
        clean.continue_forward()  # second call: i == 1
        ref = clean.focused_thread()
        frames = clean.stack_frames(ref)
        assert [f.func for f in frames] == ["bump", "main", "_start"]
        variables = {v.name: v for v in clean.frame_variables(ref)}
        assert variables["i"].value == 1
        # outer frame decodes from frame slots
        outer = {v.name for v in clean.frame_variables(ref, 1)}
        assert "i" in outer
        names = {v.name for v in clean.registers(ref)}
        assert "pc" in names and "flags" in names

    def test_evaluate(self, clean):
        for addr, arch, _line in clean.resolve_function("bump"):
            clean.pc_breakpoints.add((addr, arch))
        clean.continue_forward()
        assert clean.evaluate("i").value == 0
        assert clean.evaluate("pc").value is not None
        with pytest.raises(DebugError):
            clean.evaluate("no_such_thing")

    def test_every_digest_verifies(self, clean):
        # the acceptance guarantee: at every recorded digest point the
        # reconstructed world folds to the exact recorded digest —
        # every register and byte equal to the original run
        positions = clean.digest_positions()
        assert len(positions) > 5
        for index, _pos in positions:
            assert clean.verify_digest(index), \
                f"digest #{index} does not verify"

    def test_current_digest_rides_the_session_state(self, clean):
        # one long-lived digest state per reconstructed world: it must
        # agree with the from-scratch fold across steps (same world,
        # memo warm) and across seeks (new world, new state)
        from repro.replay.digest import machine_digest
        clean.seek(clean.start_position())
        seen = set()
        for _ in range(6):
            clean.step()
            digest = clean.current_digest()
            assert digest == machine_digest(clean.machines)
            assert clean.current_digest() == digest
            seen.add(digest)
        assert len(seen) == 6
        old_world = set(clean._digest_state._leaves)
        clean.seek_instr(clean.total_instructions // 2)
        assert clean.current_digest() == machine_digest(clean.machines)
        assert not old_world & set(clean._digest_state._leaves)

    def test_rejects_unsupported_scenarios(self, loop_recording):
        bad = Journal.from_bytes(loop_recording.journal.to_bytes())
        bad.header["scenario"] = "fleet"
        with pytest.raises(DebugError):
            DebugSession(bad)


class TestWatchpoints:
    def test_reverse_continue_finds_corrupting_write(
            self, corrupt_recording):
        session = DebugSession(corrupt_recording.journal,
                               snapshot_every=16)
        addr = None
        for machine in session.machines:
            for process in machine.processes.values():
                addr = process.binary.symtab.lookup("sentinel").addr
                pid = process.pid
        session.seek(session.end_position())
        session.add_watchpoint(pid, addr, 8)
        stop = session.reverse_continue()
        assert stop.reason == "watchpoint"
        assert "666" in stop.detail or "0x29a" in stop.detail
        # the write is old: bisection crossed many snapshot segments
        value = session.read_memory(addr, 8, pid=pid)
        assert int.from_bytes(value, "little") == 666
        # one step back: the value is the pre-corruption sentinel
        session.step_back()
        value = session.read_memory(addr, 8, pid=pid)
        assert int.from_bytes(value, "little") == 12345

    def test_forward_watch_stop(self, corrupt_recording):
        session = DebugSession(corrupt_recording.journal,
                               snapshot_every=16)
        process = next(iter(session.machines[0].processes.values()))
        addr = process.binary.symtab.lookup("sentinel").addr
        session.add_watchpoint(process.pid, addr, 8)
        stop = session.continue_forward()  # sentinel = 12345
        assert stop.reason == "watchpoint"
        assert "0x3039" in stop.detail  # 12345


class TestCrossIsaMigration:
    def test_inspect_both_sides(self, migrate_session):
        s = migrate_session
        s.pc_breakpoints = set()
        s.quantum_breakpoints = set()
        s.clear_watchpoints()
        restore_at = next(k for k, e in enumerate(s.events)
                          if e["kind"] == jn.EV_RESTORE)
        s.seek((restore_at, 0))
        pre = s.focused_thread()
        pre_frames = s.stack_frames(pre)
        pre_vars = {v.name: v.value for v in s.frame_variables(pre)}
        assert pre.isa == "x86_64"
        assert all(f.isa == "x86_64" for f in pre_frames)
        migrate_at = next(k for k, e in enumerate(s.events)
                          if e["kind"] == jn.EV_MIGRATE)
        s.seek((migrate_at + 1, 0))
        post = s.focused_thread()
        post_frames = s.stack_frames(post)
        post_vars = {v.name: v.value for v in s.frame_variables(post)}
        assert post.isa == "aarch64"
        assert all(f.isa == "aarch64" for f in post_frames)
        # same logical stack and values, re-decoded per ISA
        assert [f.func for f in pre_frames] == \
            [f.func for f in post_frames]
        assert pre_vars == post_vars

    def test_source_breakpoint_binds_on_both_isas(self, migrate_session):
        func, sites = migrate_session.resolve_line(4)
        assert func == "bump"
        assert {arch for _addr, arch, _line in sites} == \
            {"x86_64", "aarch64"}

    def test_step_back_across_migration_boundary(self, migrate_session):
        s = migrate_session
        s.pc_breakpoints = set()
        s.quantum_breakpoints = set()
        s.clear_watchpoints()
        restore_at = next(k for k, e in enumerate(s.events)
                          if e["kind"] == jn.EV_RESTORE)
        s.seek((restore_at, 0))
        forward = [s.position]
        for _ in range(6):  # steps through restore/exit/ckpt/rewrite/
            s.step()        # migrate events and into dst execution
            forward.append(s.position)
        for expected in reversed(forward[:-1]):
            s.step_back()
            assert s.position == expected
        assert s.focused_thread().isa == "x86_64"

    def test_every_digest_verifies_across_migration(
            self, migrate_session):
        for index, _pos in migrate_session.digest_positions():
            assert migrate_session.verify_digest(index), \
                f"digest #{index} does not verify"


# -- divergence helper ---------------------------------------------------


class TestBisectLastTransition:
    def test_finds_transition(self):
        samples = [0, 0, 0, 7, 7]
        calls = []

        def probe(i):
            calls.append(i)
            return samples[i]

        assert bisect_last_transition(probe, 0, 4) == 3
        assert len(calls) <= 5

    def test_no_transition(self):
        assert bisect_last_transition(lambda i: 1, 0, 4) is None
        assert bisect_last_transition(lambda i: 1, 2, 2) is None


# -- the DAP server, end to end ------------------------------------------


@pytest.fixture(scope="module")
def dap(migrate_session):
    """A live TCP DAP server over the migrate session, plus a
    connected scripted client through the full handshake."""
    migrate_session.pc_breakpoints = set()
    migrate_session.quantum_breakpoints = set()
    migrate_session.clear_watchpoints()
    migrate_session.seek(migrate_session.start_position())
    address = {}
    ready = threading.Event()

    def announce(host, port):
        address["host"], address["port"] = host, port
        ready.set()

    thread = threading.Thread(target=run_tcp, args=(migrate_session,),
                              kwargs={"announce": announce},
                              daemon=True)
    thread.start()
    assert ready.wait(30)
    client = DapClient(address["host"], address["port"])
    client.initialize()
    client.launch()
    yield client
    try:
        client.disconnect()
    except DebugError:
        pass
    client.close()
    thread.join(timeout=30)


class TestDapServer:
    """The acceptance scenario, over the wire, on a cross-ISA migrate
    journal: source-line breakpoint, frames/variables on both sides of
    the migration, reverse execution, memory reads."""

    def test_scripted_session(self, dap):
        bps = dap.set_breakpoints([4])
        assert bps[0]["verified"]
        stop = dap.configuration_done()
        assert stop["body"]["reason"] == "entry"

        # hit the source-line breakpoint pre-migration (x86_64)
        stop = dap.continue_()
        assert stop["body"]["reason"] == "breakpoint"
        tid = stop["body"]["threadId"]
        frames = dap.stack_trace(tid)
        assert frames[0]["name"] == "bump"
        assert frames[0]["line"] == 3
        pre_locals = dap.locals_of(frames[0]["id"])
        assert pre_locals["i"] == "0"
        threads = dap.threads()
        assert any("x86_64" in t["name"] for t in threads)

        # jump past the migration; same logical frame on aarch64
        info = dap.time_travel()
        dap.set_breakpoints([])
        dap.set_quantum_breakpoints([info["totalSlices"] - 10])
        stop = dap.continue_()
        threads = dap.threads()
        assert any("aarch64" in t["name"] for t in threads)
        tid = stop["body"]["threadId"]
        frames = dap.stack_trace(tid)
        assert frames[-1]["name"] == "_start"

        # step backward twice across a snapshot boundary and verify
        # the instruction counter walks back exactly
        dap.set_quantum_breakpoints([])
        before = dap.time_travel()["instruction"]
        dap.step_back()
        dap.step_back()
        after = dap.time_travel()["instruction"]
        assert after == before - 2

        # a variable read over the wire matches the live evaluate
        stop = dap.set_function_breakpoints(["bump"])
        stop = dap.reverse_continue()
        assert stop["body"]["reason"] == "breakpoint"
        tid = stop["body"]["threadId"]
        frames = dap.stack_trace(tid)
        values = dap.locals_of(frames[0]["id"])
        assert values["i"] == dap.evaluate("i", frames[0]["id"])

        # readMemory round-trips through base64
        dap.set_function_breakpoints([])
        info = dap.data_breakpoint_info("i", frames[0]["id"])
        assert info["dataId"]
        _pid, addr, _size = info["dataId"].split(":")
        body = dap.read_memory(int(addr, 0), 8)
        assert body["data"]

    def test_unknown_command_fails_cleanly(self, dap):
        with pytest.raises(DebugError):
            dap.request("teleport")

    def test_source_request_serves_embedded_text(self, dap):
        body = dap.request("source", {"sourceReference": 1})
        assert "func bump" in body["content"]


# -- CLI error contract --------------------------------------------------


class TestDebugCli:
    def test_missing_journal_is_handled(self, capsys):
        assert debug_cli.main(["/nonexistent/path.jrn"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-debug: error:")
        assert "Traceback" not in err

    def test_garbage_journal_is_handled(self, tmp_path, capsys):
        path = tmp_path / "garbage.jrn"
        path.write_bytes(b"not a journal at all")
        assert debug_cli.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-debug: error:")
        assert "Traceback" not in err
