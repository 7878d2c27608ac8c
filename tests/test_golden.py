"""The console commands and scripts still write the golden reports.

tests/record_golden.py wrote tests/golden/; here the same reports are
written to a temporary directory and compared file by file. The text
between numbers must match exactly. Each number must match within
RTOL relative plus ATOL absolute: room for last-bit differences between
BLAS builds, but a consensus moved in its 10th digit fails.
"""

import re
import runpy
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
RECORD = runpy.run_path(str(Path(__file__).parent / "record_golden.py"))["record"]

RTOL = 1e-11
ATOL = 1e-13

# A decimal literal that is not part of a word, so the digits in "layer1"
# or in a hash stay text.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


def files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def mismatch(expected: str, actual: str) -> str | None:
    """Where actual first leaves expected, or None if it matches."""
    texts = NUMBER.split(expected), NUMBER.split(actual)
    if texts[0] != texts[1]:
        for want, got in zip(*texts):
            if want != got:
                return f"text {got!r} where {want!r} was recorded"
        return f"{len(texts[1]) - 1} numbers where {len(texts[0]) - 1} were recorded"
    for want, got in zip(NUMBER.findall(expected), NUMBER.findall(actual)):
        if not abs(float(got) - float(want)) <= ATOL + RTOL * abs(float(want)):
            return f"{got} where {want} was recorded"
    return None


def test_reports_match_the_golden_corpus(tmp_path):
    RECORD(tmp_path)
    assert files(tmp_path) == files(GOLDEN_DIR)
    for name in files(GOLDEN_DIR):
        problem = mismatch((GOLDEN_DIR / name).read_text(), (tmp_path / name).read_text())
        assert problem is None, f"{name}: {problem}"


def test_comparison_tolerates_rounding_only():
    assert mismatch("slem 0.5, layer1", "slem 0.50000000000001, layer1") is None
    assert mismatch("err 1e-14", "err 5e-14") is None
    assert mismatch("value 0.4605546600", "value 0.4605546601") is not None
    assert mismatch("period 2", "period 3") is not None
    assert mismatch("layer1 ok", "layer2 ok") is not None
    assert mismatch("[1, 2]", "[1, 2, 3]") is not None
