"""Count the det_eval calls of acceptance criteria 7, 8 and 11 per input class.

    python3 perfbench/traffic_mix.py      # from the repo root; takes about a minute

The det-stream round in stream.py is sized from these counts (see
NOTES.md).  Each call is classed by d, field, whether any entry is a
proper fraction, and the path it takes in det_eval: GF(p), the int64
fast path (one segment), the segmented/object path, or plain Python.
"""

import collections
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import treedet.algebra as algebra  # noqa: E402

CRITERIA = ("test_criterion_07", "test_criterion_08", "test_criterion_11")


class Counter:
    """Wraps det_eval and _segments in treedet.algebra before the tests import them."""

    def __init__(self):
        self.counts = collections.Counter()
        self.test = None
        self._segments = None
        self._det_eval, self._split = algebra.det_eval, algebra._segments
        algebra.det_eval, algebra._segments = self.det_eval, self.segments

    def segments(self, E, max_abs):
        out = self._split(E, max_abs)
        self._segments = len(out)
        return out

    def det_eval(self, vectors, pset, table, p=None):
        self._segments = None
        value = self._det_eval(vectors, pset, table, p=p)
        tensor = algebra.as_tensor(vectors, pset.d, pset.n)
        if p is not None:
            kind, path = f"GF({p})", "gfp"
        else:
            kind = "Q, fractions" if any(x.denominator != 1 for v in tensor for x in v) else "Q, integers"
            path = {None: "python", 1: "int64"}.get(self._segments, "segmented")
        self.counts[(self.test, pset.d, kind, path)] += 1
        return value

    def pytest_runtest_setup(self, item):
        self.test = item.name[: len(CRITERIA[0])]


def main() -> int:
    counter = Counter()
    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py"),
         "-k", " or ".join(CRITERIA)],
        plugins=[counter],
    )
    print("criterion | d | input | path | calls")
    for (test, d, kind, path), n in sorted(counter.counts.items()):
        print(f"{test[-2:]} | {d} | {kind} | {path} | {n}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
