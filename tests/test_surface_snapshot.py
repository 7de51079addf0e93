"""Snapshot of the Goldman bracket and Turaev cobracket tables.

tests/data/surfaces/snapshot.json holds, per key, a digest of the exact
`goldman_terms` / `turaev_terms` tables of one family of inputs:

* on every surface below, the bracket on every ordered pair of classes
  of length <= 3 (one key per first argument), the bracket on seeded
  pairs of classes of length <= PAIR_LEN (one key per pair), and the
  cobracket on every class of length <= 5 (one key per length and first
  letter);
* genus 2 closed, and (g, b) = (1, 1), (2, 1), (0, 3) with boundary.

A change to the ray or class machinery of `surfaces` must leave every
digest unchanged.  Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_surface_snapshot.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from sftstring.surfaces import Surface, format_word

SNAPSHOT = Path(__file__).parent / "data" / "surfaces" / "snapshot.json"
SURFACES = {"g2b0": (2, 0), "g1b1": (1, 1), "g2b1": (2, 1), "g0b3": (0, 3)}
TABLES = ("bracket", "pairs", "cobracket")
ALL_PAIRS_LEN = 3
PAIR_LEN = {"g2b0": 6}
PAIRS = 200
COBRACKET_LEN = 5


def _digest(table) -> str:
    text = repr(sorted((k, str(v)) for k, v in table.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeded_pairs(S: Surface, max_len: int, n: int):
    """n pairs of nontrivial classes of random words of length <= max_len."""
    rng = random.Random(20071)
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]

    def pick():
        while True:
            w = [rng.choice(letters) for _ in range(rng.randint(1, max_len))]
            c = S.canonical_class(w)
            if c is not None:
                return c

    return [(pick(), pick()) for _ in range(n)]


def tables(label: str, table: str):
    """{key: digest} of one table family on a fresh surface."""
    S = Surface(*SURFACES[label])
    out = {}
    if table == "bracket":
        pool = S.classes_up_to(ALL_PAIRS_LEN)
        for x in pool:
            row = "".join(_digest(S.goldman_terms(x, y)) for y in pool)
            out["%s bracket %s" % (label, format_word(x, S))] = _digest({0: row})
    elif table == "pairs":
        pairs = _seeded_pairs(S, PAIR_LEN.get(label, 5), PAIRS)
        for k, (x, y) in enumerate(pairs):
            out["%s pair %03d %s | %s" % (label, k, format_word(x, S),
                                          format_word(y, S))] = \
                _digest(S.goldman_terms(x, y))
    else:
        groups = {}
        for x in S.classes_up_to(COBRACKET_LEN):
            key = "%s cobracket len %d first %s" % (
                label, len(x), format_word(x[:1], S))
            groups.setdefault(key, []).append(_digest(S.turaev_terms(x)))
        out = {k: _digest({0: "".join(v)}) for k, v in groups.items()}
    return out


def _load():
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("label", sorted(SURFACES))
def test_surface_tables_match_snapshot(label, table):
    got = tables(label, table)
    prefix = "%s %s " % (label, {"pairs": "pair"}.get(table, table))
    want = {k: v for k, v in _load().items() if k.startswith(prefix)}
    assert want, "snapshot has no %r keys" % prefix
    assert sorted(got) == sorted(want)
    bad = [k for k in want if got[k] != want[k]]
    assert not bad, bad[:10]


if __name__ == "__main__":
    snap = {}
    for label in sorted(SURFACES):
        for table in TABLES:
            snap.update(tables(label, table))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
