"""Correctness checks computed apart from the program under test.

Each check rebuilds what it needs with numpy/scipy from the inputs the
benchmark generated and the outputs the program returned; none of them
calls back into ``repro``.  A check returns a list of problems (empty
when the output is correct).

- :func:`kkt_certificate` — an SVM dual solution is optimal to ε: box
  constraints, the equality constraint, the maximal KKT violation of
  the gradient γ = K(αy) − y rebuilt from scratch, and β inside the
  violator bounds;
- :func:`model_matches_dual` — the returned model is the dual solution
  it claims to be (support vectors, coefficients);
- :func:`served_scores` — every served score equals the model version
  that served it, evaluated with numpy;
- :func:`bitwise_equal_solves` and :func:`planned_faults_fired` — the
  fault layer's invariant and proof that the fault plan really ran.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

#: slack on top of 2ε for the KKT gap: the gradient here is summed in
#: another order than the solver's, which moves it by ~n_sv·C·1e-16
KKT_SLACK = 1e-6
#: relative tolerance of a served score against numpy's evaluation
SCORE_RTOL = 1e-9
#: rows per block when rebuilding γ, so the oracle's scratch memory stays
#: far below the program's own peak
ORACLE_BLOCK_ROWS = 512


def to_scipy(X) -> sp.csr_matrix:
    """The benchmark's CSR input as a scipy matrix (arrays shared)."""
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def rbf_block(A: sp.csr_matrix, B: sp.csr_matrix, gamma: float) -> np.ndarray:
    """exp(−γ‖a − b‖²) for every row pair, dense (rows of A × rows of B)."""
    na = np.asarray(A.multiply(A).sum(axis=1)).ravel()
    nb = np.asarray(B.multiply(B).sum(axis=1)).ravel()
    dots = (A @ B.T).toarray()
    dist = na[:, None] + nb[None, :] - 2.0 * dots
    return np.exp(-gamma * np.maximum(dist, 0.0))


def gradient(X: sp.csr_matrix, y: np.ndarray, alpha: np.ndarray,
             gamma: float) -> np.ndarray:
    """γ = K(X, X_sv)·(αy)_sv − y, rebuilt block by block."""
    sv = np.flatnonzero(alpha > 0)
    coef = alpha[sv] * y[sv]
    Xsv = X[sv]
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], ORACLE_BLOCK_ROWS):
        hi = min(lo + ORACLE_BLOCK_ROWS, X.shape[0])
        out[lo:hi] = rbf_block(X[lo:hi], Xsv, gamma) @ coef - y[lo:hi]
    return out


def kkt_certificate(X: sp.csr_matrix, y: np.ndarray, alpha: np.ndarray,
                    beta: float, C: float, gamma: float,
                    eps: float) -> List[str]:
    """Problems with the claim "α solves the SVM dual to ε, with
    threshold β" (Keerthi et al. maximal-violating-pair criterion)."""
    problems = []
    n = y.shape[0]
    if alpha.shape != (n,):
        return [f"alpha has shape {alpha.shape}, expected ({n},)"]
    box_tol = 1e-12 * C
    if np.any(alpha < -box_tol) or np.any(alpha > C + box_tol):
        problems.append(
            f"box violated: alpha in [{alpha.min()}, {alpha.max()}], C={C}"
        )
    residual = abs(float(np.dot(alpha, y)))
    if residual > 1e-9 * C * max(1.0, np.sqrt(n)):
        problems.append(f"|sum(alpha*y)| = {residual:.3e}")
    g = gradient(X, y, alpha, gamma)
    at_zero = alpha <= box_tol
    at_c = alpha >= C - box_tol
    pos = y > 0
    up = (pos & ~at_c) | (~pos & ~at_zero)
    low = (pos & ~at_zero) | (~pos & ~at_c)
    b_up = float(g[up].min()) if up.any() else np.inf
    b_low = float(g[low].max()) if low.any() else -np.inf
    if b_low - b_up > 2.0 * eps + KKT_SLACK:
        problems.append(
            f"maximal KKT violation {b_low - b_up:.6e} > 2*eps={2 * eps}"
        )
    lo, hi = min(b_up, b_low), max(b_up, b_low)
    if not (lo - KKT_SLACK <= beta <= hi + KKT_SLACK):
        problems.append(f"beta={beta} outside [{lo}, {hi}]")
    return problems


def model_matches_dual(model, alpha: np.ndarray, y: np.ndarray) -> List[str]:
    """The model's support vectors and coefficients are exactly α > 0."""
    sv = np.flatnonzero(alpha > 0)
    if not np.array_equal(np.asarray(model.sv_indices), sv):
        return [f"model has {model.n_sv} SVs, alpha has {sv.size} nonzeros"]
    if not np.array_equal(model.sv_coef, alpha[sv] * y[sv]):
        return ["model sv_coef differs from alpha*y at the SVs"]
    return []


def same_model(a, b) -> List[str]:
    """Two model objects hold bitwise the same parameters."""
    if (
        a.sv_coef.tobytes() != b.sv_coef.tobytes()
        or float(a.beta).hex() != float(b.beta).hex()
        or a.sv_X.data.tobytes() != b.sv_X.data.tobytes()
        or a.sv_X.indices.tobytes() != b.sv_X.indices.tobytes()
        or a.kernel.params() != b.kernel.params()
    ):
        return ["model differs after the save/load round trip"]
    return []


def served_scores(
    X_requests: sp.csr_matrix,
    scores: np.ndarray,
    versions: np.ndarray,
    models: Dict[int, Tuple[sp.csr_matrix, np.ndarray, float, float]],
) -> List[str]:
    """Every score equals ``K(x, SV)·coef − β`` of the version that
    served it, within :data:`SCORE_RTOL` of the coefficients' scale.
    ``models`` maps version -> (SV rows, coef, β, RBF γ)."""
    problems = []
    if not np.all(np.isfinite(scores)):
        problems.append(f"{int(np.sum(~np.isfinite(scores)))} scores missing")
    for version in np.unique(versions):
        ids = np.flatnonzero(versions == version)
        if int(version) not in models:
            problems.append(f"{ids.size} requests served by unknown "
                            f"version {int(version)}")
            continue
        sv, coef, beta, gamma = models[int(version)]
        expected = rbf_block(X_requests[ids], sv, gamma) @ coef - beta
        scale = 1.0 + float(np.abs(coef).sum()) + abs(beta)
        err = np.abs(scores[ids] - expected)
        if np.any(err > SCORE_RTOL * scale):
            problems.append(
                f"version {int(version)}: {int(np.sum(err > SCORE_RTOL * scale))}"
                f" scores off by up to {err.max():.3e}"
            )
    return problems


def bitwise_equal_solves(clean, faulted) -> List[str]:
    """α, β, iteration count and vtime of two fits are bitwise equal."""
    problems = []
    if clean.alpha.tobytes() != faulted.alpha.tobytes():
        problems.append("alpha differs from the fault-free solve")
    if float(clean.model.beta).hex() != float(faulted.model.beta).hex():
        problems.append("beta differs from the fault-free solve")
    if clean.iterations != faulted.iterations:
        problems.append(
            f"iterations {faulted.iterations} != {clean.iterations} fault-free"
        )
    if float(clean.vtime).hex() != float(faulted.vtime).hex():
        problems.append(f"vtime {faulted.vtime} != {clean.vtime} fault-free")
    return problems


def planned_faults_fired(
    report: dict, planned: Sequence[Tuple[str, int, int, int]]
) -> List[str]:
    """Every planned (kind, src, dest, nth) message fault appears in the
    fault engine's fired schedule."""
    if report is None:
        return ["solve ran without a fault engine"]
    fired = {(k, s, d, n) for k, s, d, _tag, n in report["schedule"]}
    missing = [f for f in planned if tuple(f) not in fired]
    return [f"planned fault {m} never fired" for m in missing]
