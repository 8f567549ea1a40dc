"""Generator for ``bigheap.dc``: footprint, dirty fraction and salt.

``bigheap.dc`` is valid DapperC as committed (the 1 MB / 10 % shape,
salt 0); this module only rewrites the four ``// @param`` assignments
at the top of its ``main``.
"""

from __future__ import annotations

import os
import re

_TEMPLATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "bigheap.dc")

#: shape name -> (pages, touches per round, rounds). One round is
#: ~110 instructions per touch, so a checkpoint every round sees
#: touches/pages of the heap dirty.
SHAPES = {
    "1m10": (256, 26, 150),     # 1 MB populated, 10 % dirty per round
    "144k100": (36, 36, 150),   # 144 KB, every page dirty: no dedup
}


def source(shape: str, salt: int = 0) -> str:
    pages, touches, rounds = SHAPES[shape]
    with open(_TEMPLATE) as handle:
        text = handle.read()
    for name, value in (("pages", pages), ("touches", touches),
                        ("rounds", rounds), ("salt", salt)):
        text, hits = re.subn(rf"(\b{name} = )\d+(;\s*// @param)",
                             rf"\g<1>{value}\g<2>", text)
        if hits != 1:
            raise ValueError(f"bigheap.dc: no '// @param' line for {name}")
    return text


def round_steps(shape: str) -> int:
    """Roughly the instructions one round retires (both ISAs within
    10 %): the gap that dirties touches/pages of the heap."""
    return 109 * SHAPES[shape][1]


def fill_steps(shape: str) -> int:
    """Upper bound on the instructions retired before the first round:
    running this many steps leaves the heap fully populated."""
    return 4000 * SHAPES[shape][0]
