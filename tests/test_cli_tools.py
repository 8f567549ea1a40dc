"""Tests for the command-line tools (dapperc, crit, run, migrate,
store, chaos, replay, repro-verify) and their shared error contract:
a typed failure is one ``<prog>: error: <msg>`` line on stderr and a
nonzero exit — never a traceback."""

import json
import os

import pytest

from repro.core.migration import exe_path_for, install_program
from repro.core.runtime import DapperRuntime
from repro.criu.images import DIGEST_FORMAT
from repro.isa import X86_ISA
from repro.store import CheckpointStore, IncrementalCheckpointer
from repro.tools import chaos as chaos_cli
from repro.tools import crit as crit_cli
from repro.tools import fleet as fleet_cli
from repro.tools import group as group_cli
from repro.tools import dapperc, migrate, run as run_cli
from repro.tools import replay as replay_cli
from repro.tools import store as store_cli
from repro.tools import verify as verify_cli
from repro.tools.crit import save_image_set
from repro.vm import Machine

SOURCE = """
global int total;
func square(int x) -> int { return x * x; }
func main() -> int {
    int i;
    i = 0;
    while (i < 40) {
        total = (total + square(i)) % 100000;
        print(total);
        i = i + 1;
    }
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.dc"
    path.write_text(SOURCE)
    return str(path)


class TestDapperc:
    def test_compiles_both_isas(self, source_file, tmp_path, capsys):
        prefix = str(tmp_path / "build" / "demo")
        assert dapperc.main([source_file, "-o", prefix]) == 0
        assert os.path.exists(f"{prefix}.x86_64.delf")
        assert os.path.exists(f"{prefix}.aarch64.delf")
        out = capsys.readouterr().out
        assert "eqpoints=" in out

    def test_single_arch(self, source_file, tmp_path):
        prefix = str(tmp_path / "demo")
        assert dapperc.main([source_file, "-o", prefix,
                             "--arch", "aarch64"]) == 0
        assert os.path.exists(f"{prefix}.aarch64.delf")
        assert not os.path.exists(f"{prefix}.x86_64.delf")

    def test_dump_ir(self, source_file, capsys):
        assert dapperc.main([source_file, "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "func main" in out
        assert "eqpoint.entry" in out

    def test_symbols_and_stackmaps(self, source_file, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        assert dapperc.main([source_file, "-o", prefix, "--symbols",
                             "--stackmaps"]) == 0
        out = capsys.readouterr().out
        assert "main" in out and "entry" in out

    def test_missing_file(self, capsys):
        assert dapperc.main(["/nonexistent.dc"]) == 2

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dc"
        bad.write_text("func main() -> int { return undefined_var; }")
        assert dapperc.main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_runs_binary(self, source_file, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        dapperc.main([source_file, "-o", prefix])
        capsys.readouterr()
        assert run_cli.main([f"{prefix}.x86_64.delf", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "0"
        assert "instructions=" in captured.err

    def test_both_archs_same_output(self, source_file, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        dapperc.main([source_file, "-o", prefix])
        capsys.readouterr()
        run_cli.main([f"{prefix}.x86_64.delf"])
        x86_out = capsys.readouterr().out
        run_cli.main([f"{prefix}.aarch64.delf"])
        arm_out = capsys.readouterr().out
        assert x86_out == arm_out

    def test_missing_binary(self, capsys):
        assert run_cli.main(["/nonexistent.delf"]) == 1


class TestMigrate:
    def test_end_to_end(self, source_file, tmp_path, capsys):
        images_dir = str(tmp_path / "imgs")
        code = migrate.main([source_file, "--warmup", "1200",
                             "--keep-images", images_dir, "--quiet"])
        captured = capsys.readouterr()
        assert code == 0
        assert "output identical to native run: True" in captured.err
        assert os.path.exists(os.path.join(images_dir, "core-1.img"))
        assert os.path.exists(os.path.join(images_dir, "pages-1.img"))

    def test_lazy_flag(self, source_file, capsys):
        code = migrate.main([source_file, "--warmup", "1200", "--lazy",
                             "--quiet"])
        assert code == 0
        assert "lazy" in capsys.readouterr().err

    def test_same_arch_rejected(self, source_file, capsys):
        assert migrate.main([source_file, "--from", "x86_64",
                             "--to", "x86_64"]) == 2


class TestCrit:
    @pytest.fixture
    def images_dir(self, source_file, tmp_path, capsys):
        images = str(tmp_path / "imgs")
        migrate.main([source_file, "--warmup", "1200",
                      "--keep-images", images, "--quiet"])
        capsys.readouterr()
        return images

    def test_show(self, images_dir, capsys):
        assert crit_cli.main(["show", images_dir]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "inventory.img" in parsed

    def test_decode(self, images_dir, capsys):
        path = os.path.join(images_dir, "files.img")
        assert crit_cli.main(["decode", path]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["kind"] == "files"
        assert decoded["exe_arch"] == "aarch64"

    def test_encode_roundtrip(self, images_dir, tmp_path, capsys):
        path = os.path.join(images_dir, "files.img")
        crit_cli.main(["decode", path])
        decoded = json.loads(capsys.readouterr().out)
        decoded.pop("kind")
        json_path = str(tmp_path / "files.json")
        with open(json_path, "w") as handle:
            json.dump(decoded, handle)
        out_path = str(tmp_path / "files.img")
        assert crit_cli.main(["encode", json_path, out_path]) == 0
        with open(out_path, "rb") as handle:
            re_encoded = handle.read()
        with open(path, "rb") as handle:
            original = handle.read()
        assert re_encoded == original

    def test_empty_directory(self, tmp_path, capsys):
        assert crit_cli.main(["show", str(tmp_path)]) == 1


class TestReproVerify:
    @pytest.fixture
    def guarded_setup(self, source_file, tmp_path, capsys):
        """Images from a real migration plus the dst binary and the
        sender's fingerprint."""
        images = str(tmp_path / "imgs")
        migrate.main([source_file, "--warmup", "1200",
                      "--keep-images", images, "--quiet"])
        prefix = str(tmp_path / "demo")
        dapperc.main([source_file, "-o", prefix])
        fingerprint = str(tmp_path / "images.fp")
        verify_cli.main(["fingerprint", images, "-o", fingerprint])
        capsys.readouterr()
        return {"images": images, "fingerprint": fingerprint,
                "binary": f"{prefix}.aarch64.delf",
                "quarantine": str(tmp_path / "q")}

    def _flip(self, setup, index):
        path = os.path.join(setup["images"], "pages-1.img")
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[index] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

    def test_clean_images_verify_ok(self, guarded_setup, capsys):
        code = verify_cli.main(["verify", guarded_setup["images"],
                                "--binary", guarded_setup["binary"],
                                "--digests",
                                guarded_setup["fingerprint"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out

    def test_fingerprint_is_json_manifest(self, guarded_setup, capsys):
        assert verify_cli.main(["fingerprint",
                                guarded_setup["images"]]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert "content_digest" in manifest
        assert all(vaddr.startswith("0x") for vaddr in manifest["pages"])

    @pytest.mark.parametrize("command", ["verify", "doctor"])
    def test_fingerprint_of_another_digest_format_is_refused(
            self, guarded_setup, command, capsys):
        """A manifest without the current digest-format marker holds a
        content digest no healthy set matches: refuse it with a typed
        error instead of judging (doctor would quarantine) the set."""
        with open(guarded_setup["fingerprint"]) as handle:
            manifest = json.load(handle)
        assert manifest.pop("digest_format") == DIGEST_FORMAT
        with open(guarded_setup["fingerprint"], "w") as handle:
            json.dump(manifest, handle)
        code = verify_cli.main(
            [command, guarded_setup["images"],
             "--binary", guarded_setup["binary"],
             "--digests", guarded_setup["fingerprint"]]
            + (["--quarantine", guarded_setup["quarantine"]]
               if command == "doctor" else []))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("repro-verify: error: ")
        assert "re-fingerprint" in captured.err
        assert not os.path.exists(guarded_setup["quarantine"])

    def test_corruption_detected(self, guarded_setup, capsys):
        self._flip(guarded_setup, 100)
        code = verify_cli.main(["verify", guarded_setup["images"],
                                "--digests",
                                guarded_setup["fingerprint"]])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out and "page-digest" in out

    def test_doctor_repairs_text_page_in_place(self, guarded_setup,
                                               capsys):
        self._flip(guarded_setup, 100)  # byte 100 is in the first
        code = verify_cli.main(        # (text) page: binary-backed
            ["doctor", guarded_setup["images"],
             "--binary", guarded_setup["binary"],
             "--digests", guarded_setup["fingerprint"],
             "--quarantine", guarded_setup["quarantine"]])
        assert code == 0
        assert "repaired" in capsys.readouterr().out
        assert verify_cli.main(["verify", guarded_setup["images"],
                                "--binary", guarded_setup["binary"],
                                "--digests",
                                guarded_setup["fingerprint"]]) == 0

    def test_doctor_repairs_from_a_store_that_put_made(
            self, guarded_setup, tmp_path, capsys):
        """``store put`` writes the crash-consistent store and
        ``--store`` opens it: a flipped stack page (no binary source)
        is re-fetched from the store by digest."""
        store = str(tmp_path / "store")
        assert store_cli.main(["put", store, guarded_setup["images"]]) == 0
        assert os.path.isfile(os.path.join(store, "wal"))
        self._flip(guarded_setup, -10)
        code = verify_cli.main(
            ["doctor", guarded_setup["images"],
             "--digests", guarded_setup["fingerprint"],
             "--store", store,
             "--quarantine", guarded_setup["quarantine"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "repaired 1 page(s) in place" in out
        assert verify_cli.main(["verify", guarded_setup["images"],
                                "--digests",
                                guarded_setup["fingerprint"]]) == 0
        assert not os.path.exists(guarded_setup["quarantine"])

    def test_doctor_quarantines_unrepairable(self, guarded_setup,
                                             capsys):
        self._flip(guarded_setup, -10)  # stack page: no repair source
        code = verify_cli.main(
            ["doctor", guarded_setup["images"],
             "--binary", guarded_setup["binary"],
             "--digests", guarded_setup["fingerprint"],
             "--quarantine", guarded_setup["quarantine"]])
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined as" in out
        qid = out.split("quarantined as ")[1].split()[0]
        diagnosis_path = os.path.join(guarded_setup["quarantine"], qid,
                                      "diagnosis.json")
        with open(diagnosis_path) as handle:
            diagnosis = json.load(handle)
        assert diagnosis["failing_pass"] == "structural"

        assert verify_cli.main(["quarantine", "ls",
                                guarded_setup["quarantine"]]) == 0
        assert qid in capsys.readouterr().out
        assert verify_cli.main(["quarantine", "rm",
                                guarded_setup["quarantine"],
                                qid[:6]]) == 0
        capsys.readouterr()
        verify_cli.main(["quarantine", "ls", guarded_setup["quarantine"]])
        assert "empty" in capsys.readouterr().out


class TestStoreCli:
    """One store directory driven through every ``repro-store``
    command, and the directories the tool must refuse."""

    @pytest.fixture
    def dumps(self, counter_program, tmp_path):
        """Image directories of a full dump and of a delta against it."""
        machine = Machine(X86_ISA, name="src")
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.step_all(2500)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        ckpt = IncrementalCheckpointer(CheckpointStore(), process,
                                       runtime=runtime)
        full, delta = str(tmp_path / "full"), str(tmp_path / "delta")
        ckpt.checkpoint()
        save_image_set(ckpt.last_images, full)
        runtime.resume()
        machine.step_all(3000)
        runtime.pause_at_equivalence_points()
        ckpt.checkpoint()
        save_image_set(ckpt.last_images, delta)
        return full, delta

    @staticmethod
    def _ok(capsys, *argv) -> str:
        code = store_cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_lifecycle_on_one_directory(self, dumps, tmp_path, capsys):
        full, delta = dumps
        store = str(tmp_path / "store")
        root, kind = self._ok(capsys, "put", store, full).split()[:2]
        assert kind == "full"
        assert os.path.isfile(os.path.join(store, "wal"))
        assert not os.path.exists(os.path.join(store, "index.json"))
        leaf, kind = self._ok(capsys, "put", store, delta,
                              "--parent", root[:12]).split()[:2]
        assert kind == "delta"
        listing = self._ok(capsys, "ls", store).splitlines()
        assert [line.split()[0] for line in listing] == [root, leaf]
        assert f"parent={root[:12]}" in listing[1]
        assert "checkpoints     2" in self._ok(capsys, "stat", store)
        out = str(tmp_path / "out")
        self._ok(capsys, "get", store, root[:12], out)
        assert sorted(os.listdir(out)) == sorted(os.listdir(full))
        for name in os.listdir(full):
            with open(os.path.join(out, name), "rb") as got, \
                    open(os.path.join(full, name), "rb") as want:
                assert got.read() == want.read(), name
        assert self._ok(capsys, "verify", store) == "store is clean\n"
        assert self._ok(capsys, "recover", store) == \
            "recovered 2 checkpoint(s) (clean)\n"
        assert ": 0 corrupt," in self._ok(capsys, "scrub", store)
        # The delta pins its parent: delete the leaf, then the root.
        for cid in (leaf, root):
            out_gc = self._ok(capsys, "gc", store, "--delete", cid[:12])
            assert out_gc.startswith(f"deleted {cid}\ngc: reclaimed ")
        assert self._ok(capsys, "ls", store) == "(no checkpoints)\n"
        assert self._ok(capsys, "verify", store) == "store is clean\n"

    def test_index_json_layout_is_refused(self, dumps, tmp_path, capsys):
        old = tmp_path / "old"
        (old / "chunks").mkdir(parents=True)
        (old / "index.json").write_text(
            '{"codec": "zlib", "chunks": {}, "checkpoints": []}')
        for argv in (["ls", str(old)], ["recover", str(old)],
                     ["put", str(old), dumps[0]]):
            assert store_cli.main(argv) == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("store: error: ")
            assert "index.json" in lines[0]
        assert sorted(os.listdir(old)) == ["chunks", "index.json"]

    def test_read_on_a_missing_path_creates_nothing(self, tmp_path,
                                                    capsys):
        missing = tmp_path / "nowhere"
        for command in ("ls", "stat", "verify", "recover", "scrub"):
            assert store_cli.main([command, str(missing)]) == 1
            assert capsys.readouterr().err.startswith(
                "store: error: no store at ")
        assert not missing.exists()


class TestUnifiedErrorHandling:
    """Every tool fails the same way on typed errors: one
    ``<prog>: error: <msg>`` line on stderr, exit 1, no traceback."""

    CASES = [
        (run_cli, "dapper-run", ["/nonexistent.delf"]),
        (crit_cli, "crit", ["show", "/nonexistent-dir"]),
        (store_cli, "store", ["ls", "/nonexistent-store"]),
        (replay_cli, "repro-replay", ["show", "/nonexistent.jrn"]),
        (verify_cli, "repro-verify", ["verify", "/nonexistent-dir"]),
        (verify_cli, "repro-verify",
         ["quarantine", "rm", "/nonexistent-q", "feedbeef"]),
        (chaos_cli, "dapper-chaos",
         ["--app", "no-such-app", "--trials", "1", "--crash", "0.1"]),
        (fleet_cli, "repro-fleet", ["--nodes", "0"]),
        (fleet_cli, "repro-fleet", ["--nodes", "4", "--shards", "9"]),
        (group_cli, "repro-group", ["--workers", "0"]),
        (group_cli, "repro-group", ["--fault", "bogus"]),
        (group_cli, "repro-group", ["--chaos", "--trials", "2"]),
    ]

    @pytest.mark.parametrize("tool,prog,argv", CASES,
                             ids=lambda c: getattr(c, "__name__", str(c)))
    def test_typed_error_is_one_clean_line(self, tool, prog, argv,
                                           capsys):
        assert tool.main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{prog}: error: ")
        assert "Traceback" not in captured.err

    def test_usage_errors_still_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            verify_cli.main(["no-such-command"])
        assert err.value.code == 2
