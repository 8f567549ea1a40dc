"""repro-verify — the restore guard as a CLI: verify / doctor / quarantine.

Judges a directory of ``.img`` files (as written by ``dapper-migrate
--keep-images`` or ``store get``) with the multi-pass image verifier,
repairs what it can, and quarantines what it cannot.

Examples::

    # snapshot the sender-side ground truth next to a healthy dump
    python -m repro.tools.verify fingerprint images/ -o images.fp

    # judge an image set (semantic pass needs the linked binary)
    python -m repro.tools.verify verify images/ --binary app.aarch64.delf

    # repair in place, or quarantine with a machine-readable diagnosis
    python -m repro.tools.verify doctor images/ --binary app.aarch64.delf \\
        --digests images.fp --quarantine quarantine/

    # inspect / drop quarantined images
    python -m repro.tools.verify quarantine ls quarantine/
    python -m repro.tools.verify quarantine rm quarantine/ <id>
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional

from ..binfmt.delf import DelfBinary
from ..criu.images import DIGEST_FORMAT
from ..errors import VerifyError
from ..store import CheckpointStore
from ..verify import (DIAGNOSIS_FILE, ImageVerifier, Quarantine,
                      image_page_digests)
from ._cli import guarded
from .crit import load_image_set, save_image_set


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Multi-pass state-image verifier with auto-repair "
                    "and quarantine (the restore guard).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sources(p):
        p.add_argument("--binary", metavar="DELF",
                       help="linked DELF binary: enables the semantic "
                            "pass and binary-sourced page repair")
        p.add_argument("--digests", metavar="FILE",
                       help="fingerprint file (see the fingerprint "
                            "command): per-page digest manifest to "
                            "check the bytes against")
        p.add_argument("--expect", metavar="DIGEST",
                       help="expected whole-set content digest")
        p.add_argument("--store", metavar="DIR",
                       help="checkpoint store directory: resolves delta "
                            "parents and re-fetches repair pages by "
                            "digest")

    verify = sub.add_parser("verify", help="judge an image directory")
    verify.add_argument("image_dir")
    add_sources(verify)

    doctor = sub.add_parser(
        "doctor", help="verify, repair in place what has a known-good "
                       "source, quarantine the rest")
    doctor.add_argument("image_dir")
    add_sources(doctor)
    doctor.add_argument("--quarantine", metavar="DIR",
                        help="quarantine directory (default: a "
                             "'quarantine' sibling of the image dir)")

    fp = sub.add_parser(
        "fingerprint", help="print (or save) the whole-set digest and "
                            "per-page manifest of a healthy dump")
    fp.add_argument("image_dir")
    fp.add_argument("-o", "--output", help="write JSON here instead of "
                                           "stdout")

    q = sub.add_parser("quarantine", help="inspect the quarantine area")
    q.add_argument("action", choices=["ls", "rm"])
    q.add_argument("quarantine_dir")
    q.add_argument("qid", nargs="?",
                   help="quarantined image id (rm; prefixes allowed)")
    return parser


def _verifier_from(args: argparse.Namespace) -> ImageVerifier:
    binary = None
    if args.binary:
        with open(args.binary, "rb") as fh:
            binary = DelfBinary.from_bytes(fh.read())
    digests: Optional[Dict[int, str]] = None
    if args.digests:
        with open(args.digests) as fh:
            manifest = json.load(fh)
        if manifest.get("digest_format") != DIGEST_FORMAT:
            # Its content digest would not match a healthy set and
            # doctor would quarantine it: refuse instead.
            raise VerifyError(
                f"{args.digests}: fingerprint is not digest format "
                f"{DIGEST_FORMAT!r} (it says "
                f"{manifest.get('digest_format')!r}); re-fingerprint "
                f"the healthy image set with 'repro-verify "
                f"fingerprint'")
        digests = {int(vaddr, 0): digest
                   for vaddr, digest in manifest.get("pages", {}).items()}
        if args.expect is None and "content_digest" in manifest:
            args.expect = manifest["content_digest"]
    store = (CheckpointStore.open_dir(args.store)[0] if args.store
             else None)
    return ImageVerifier(binary=binary, store=store, page_digests=digests,
                         expected_digest=args.expect)


def _print_report(report) -> None:
    for finding in report.findings + report.notes:
        where = (f" @{finding.vaddr:#x}" if finding.vaddr is not None
                 else "")
        print(f"  [{finding.pass_name}/{finding.code}] "
              f"{finding.severity}{where}: {finding.message}")
    print(report.summary())


def _resolve_qid(quarantine: Quarantine, prefix: str) -> str:
    matches = [qid for qid in quarantine.ids() if qid.startswith(prefix)]
    if not matches:
        raise VerifyError(f"no quarantined image matching {prefix!r}")
    if len(matches) > 1:
        raise VerifyError(f"ambiguous quarantine id {prefix!r} "
                          f"({len(matches)} matches)")
    return matches[0]


def _cmd_verify(args: argparse.Namespace) -> int:
    images = load_image_set(args.image_dir)
    report = _verifier_from(args).verify(images)
    _print_report(report)
    return 0 if report.ok else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    images = load_image_set(args.image_dir)
    fixed, report = _verifier_from(args).repair(images)
    if fixed is not None and not report.repaired:
        print(f"image is healthy ({report.checks} checks, passes: "
              f"{'+'.join(report.passes_run)})")
        return 0
    if fixed is not None:
        save_image_set(fixed, args.image_dir)
        pages = ", ".join(f"{f.vaddr:#x}" for f in report.repaired)
        print(f"repaired {len(report.repaired)} page(s) in place "
              f"({pages}); image verifies clean")
        return 0
    qdir = args.quarantine or os.path.join(
        os.path.dirname(os.path.abspath(args.image_dir.rstrip("/"))),
        "quarantine")
    quarantine = Quarantine.at_dir(qdir)
    qid = quarantine.add(images, report,
                         reason=f"doctor {args.image_dir}")
    _print_report(report)
    print(f"unrepairable: quarantined as {qid} under {qdir} "
          f"(diagnosis: {os.path.join(qdir, qid, DIAGNOSIS_FILE)})")
    return 1


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    images = load_image_set(args.image_dir)
    manifest = {
        "digest_format": DIGEST_FORMAT,
        "content_digest": images.content_digest(),
        "pages": {f"{vaddr:#x}": digest
                  for vaddr, digest in
                  sorted(image_page_digests(images).items())},
    }
    blob = json.dumps(manifest, indent=1, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
        print(f"fingerprint of {len(manifest['pages'])} page(s) -> "
              f"{args.output}")
    else:
        print(blob)
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    quarantine = Quarantine.at_dir(args.quarantine_dir)
    if args.action == "ls":
        qids = quarantine.ids()
        for qid in qids:
            diagnosis = quarantine.diagnosis(qid)
            findings = diagnosis.get("findings", [])
            first = findings[0]["message"] if findings else "?"
            print(f"{qid} pass={diagnosis.get('failing_pass', '?')} "
                  f"findings={len(findings)}: {first}")
        if not qids:
            print("(quarantine is empty)")
        return 0
    if not args.qid:
        raise VerifyError("quarantine rm needs an image id")
    qid = _resolve_qid(quarantine, args.qid)
    removed = quarantine.remove(qid)
    print(f"removed {qid} ({removed} files)")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "doctor": _cmd_doctor,
    "fingerprint": _cmd_fingerprint,
    "quarantine": _cmd_quarantine,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("repro-verify", lambda: _COMMANDS[args.command](args))


if __name__ == "__main__":
    raise SystemExit(main())
