"""The package declares numpy>=1.24, so src/ may not use names that numpy 2.0 added."""
import re
from pathlib import Path

import whitebench

SRC = Path(whitebench.__file__).resolve().parent

# numpy 2.0 additions, each with a 1.24 spelling: .mT -> np.swapaxes(a, -1, -2),
# np.concat -> np.concatenate, np.pow -> np.power, np.permute_dims -> np.transpose,
# np.trapezoid -> np.trapz, np.vecdot -> np.einsum, cholesky(A, upper=True) -> cholesky(A).T,
# np.linalg.matrix_norm/vector_norm -> np.linalg.norm, np.linalg.svdvals -> np.linalg.svd(A, compute_uv=False),
# np.linalg.trace/diagonal/outer/cross/tensordot -> np.trace/diagonal/outer/cross/tensordot
NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bmatrix_transpose\b|\bnp\.(linalg\.)?(concat|pow|permute_dims|vecdot|unstack|astype|isdtype|trapezoid"
    r"|cumulative_sum|cumulative_prod)\(|\bcholesky\([^)]*\bupper\s*="
    r"|\bnp\.linalg\.(matrix_norm|vector_norm|svdvals|trace|diagonal|outer|cross|tensordot)\("
)


def test_pattern_catches_numpy_2_only_names():
    for line in ("W.mT @ dZ", "np.matrix_transpose(W)", "np.concat([a, b])", "np.linalg.vecdot(a, b)",
                 "np.linalg.cholesky(A, upper=True)", "np.linalg.cholesky(A - s * I, upper = False)",
                 "np.linalg.matrix_norm(A)", "np.linalg.vector_norm(x)", "np.linalg.svdvals(A)", "np.linalg.trace(A)",
                 "np.linalg.diagonal(A)", "np.linalg.outer(a, b)", "np.linalg.cross(a, b)", "np.linalg.tensordot(a, b)"):
        assert NUMPY_2_ONLY.search(line), line
    for line in ("np.swapaxes(W, -1, -2)", "np.concatenate([a, b])", "np.power(a, 2)", "a.mTx", "np.trace(A)",
                 "np.linalg.cholesky(A)", "np.linalg.cholesky(shifted)", "np.linalg.norm(A)", "np.outer(a, b)",
                 "np.diagonal(A)", "np.tensordot(a, b)", "np.linalg.svd(A, compute_uv=False)"):
        assert not NUMPY_2_ONLY.search(line), line


def test_src_uses_no_numpy_2_only_names():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NUMPY_2_ONLY.search(line)
    ]
    assert not hits, hits
