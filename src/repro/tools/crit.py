"""crit — the CRIU image tool CLI (paper §II: decode / encode / show).

Operates on a directory of ``.img`` files (as written by
``repro.tools.migrate --keep-images`` or by saving an ImageSet to disk).

Examples::

    python -m repro.tools.crit show images/
    python -m repro.tools.crit decode images/core-1.img
    python -m repro.tools.crit encode core-1.json images/core-1.img
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..criu import crit as critlib
from ..criu.images import ImageSet
from ..errors import ReproError
from ._cli import guarded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crit", description="CRIU image tool: decode, encode, show.")
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="pretty-print an image directory")
    show.add_argument("directory")

    decode = sub.add_parser("decode", help="one image file → JSON on stdout")
    decode.add_argument("image")

    encode = sub.add_parser("encode", help="JSON file → image file")
    encode.add_argument("json_file")
    encode.add_argument("image")
    return parser


def load_image_set(directory: str) -> ImageSet:
    files = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".img"):
            with open(os.path.join(directory, entry), "rb") as handle:
                files[entry] = handle.read()
    if not files:
        raise ReproError(f"no .img files in {directory!r}")
    return ImageSet(files)


def save_image_set(images: ImageSet, directory: str) -> None:
    """Write ``images`` as ``.img`` files (what :func:`load_image_set`
    reads back), making ``directory`` if need be."""
    os.makedirs(directory, exist_ok=True)
    for name, blob in sorted(images.files.items()):
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(blob)


def _run(args: argparse.Namespace) -> int:
    if args.command == "show":
        print(critlib.show(load_image_set(args.directory)))
    elif args.command == "decode":
        with open(args.image, "rb") as handle:
            blob = handle.read()
        decoded = critlib.decode_image(os.path.basename(args.image),
                                       blob)
        print(json.dumps(decoded, indent=2, sort_keys=True))
    elif args.command == "encode":
        with open(args.json_file) as handle:
            data = json.load(handle)
        blob = critlib.encode_image(os.path.basename(args.image), data)
        with open(args.image, "wb") as handle:
            handle.write(blob)
        print(f"wrote {args.image} ({len(blob)} bytes)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("crit", lambda: _run(args))


if __name__ == "__main__":
    raise SystemExit(main())
