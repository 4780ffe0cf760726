"""The package declares numpy>=1.24, so src/ may not use names that numpy 2.0 added."""
import re
from pathlib import Path

import whitebench

SRC = Path(whitebench.__file__).resolve().parent

# numpy 2.0 additions, each with a 1.24 spelling: .mT -> np.swapaxes(a, -1, -2),
# np.concat -> np.concatenate, np.pow -> np.power, np.permute_dims -> np.transpose,
# np.trapezoid -> np.trapz, np.vecdot -> np.einsum
NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bmatrix_transpose\b|\bnp\.(linalg\.)?(concat|pow|permute_dims|vecdot|unstack|astype|isdtype|trapezoid"
    r"|cumulative_sum|cumulative_prod)\("
)


def test_pattern_catches_numpy_2_only_names():
    for line in ("W.mT @ dZ", "np.matrix_transpose(W)", "np.concat([a, b])", "np.linalg.vecdot(a, b)"):
        assert NUMPY_2_ONLY.search(line), line
    for line in ("np.swapaxes(W, -1, -2)", "np.concatenate([a, b])", "np.power(a, 2)", "a.mTx"):
        assert not NUMPY_2_ONLY.search(line), line


def test_src_uses_no_numpy_2_only_names():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NUMPY_2_ONLY.search(line)
    ]
    assert not hits, hits
