"""Bipartite entanglement entropies and the topological entropy gamma.

Entropies are von Neumann entropies in natural log.  A bipartition groups
the basis configurations by their restriction to the region; the squared
singular values of the resulting coefficient matrix are the Schmidt weights.
The smaller-side Gram matrix is diagonalized instead of the full rectangular
matrix, with an iterative top-k fallback when even the smaller side is large.

gamma combines seven entropies of three mutually adjacent regions:
gamma = S_AB + S_BC + S_AC - S_A - S_B - S_C - S_ABC; a value close to ln 2
signals Z2 topological order, while trivial states give gamma near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_SIDE_LIMIT = 2 ** 14
TOPK = 256
WEIGHT_TOL = 1e-10


class EntangleError(ValueError):
    pass


@dataclass
class EntropyReport:
    region: tuple                     # sorted atom ids
    n_atoms: int
    entropy: float
    schmidt: np.ndarray               # descending Schmidt coefficients (top-k)
    schmidt_rank: int                 # number of weights retained
    tail_bound: float = 0.0           # entropy bound on truncated weights
    gamma: float = None               # set by the seven-region combination
    components: dict = field(default_factory=dict)


def _region_mask(region, n_atoms):
    region = sorted(set(int(a) for a in region))
    if not region:
        raise EntangleError("region is empty")
    if region[0] < 0 or region[-1] >= n_atoms:
        raise EntangleError("region contains atom ids outside the cluster")
    if len(region) == n_atoms:
        raise EntangleError("region must be a proper subset of the atoms")
    mask = np.uint64(0)
    for a in region:
        mask |= np.uint64(1) << np.uint64(a)
    return tuple(region), mask


def _schmidt_weights(psi, mask, budget_gib=4.0):
    """Descending squared Schmidt coefficients and an entropy tail bound."""
    configs = psi.basis.configs
    amps = psi.normalized().amplitudes
    full = (np.uint64(1) << np.uint64(psi.basis.n_atoms)) - np.uint64(1)
    rvals, ridx = np.unique(configs & mask, return_inverse=True)
    cvals, cidx = np.unique(configs & (full & ~mask), return_inverse=True)
    nr, nc = len(rvals), len(cvals)
    # work with the smaller side so the Gram matrix stays small
    if nc < nr:
        ridx, cidx, nr, nc = cidx, ridx, nc, nr
    mat = sp.csr_matrix((amps, (ridx, cidx)), shape=(nr, nc))
    if nr <= DENSE_SIDE_LIMIT:
        if nr * nr * 16 > budget_gib * 2 ** 30:
            raise EntangleError(
                "Gram matrix of side %d exceeds the %.1f GiB budget"
                % (nr, budget_gib))
        gram = (mat @ mat.conj().T).toarray()
        w = np.linalg.eigvalsh(gram)[::-1]
        tail = 0.0
    else:
        k = min(TOPK, nr - 1)
        s = spla.svds(mat, k=k, return_singular_vectors=False)
        w = np.sort(s ** 2)[::-1]
        missing = max(0.0, 1.0 - float(w.sum()))
        n_rest = nr - k
        # truncated weights carry at most the entropy of the uniform split
        tail = 0.0
        if missing > 1e-14 and n_rest > 0:
            tail = missing * np.log(n_rest / missing)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if tail == 0.0 and abs(total - 1.0) > WEIGHT_TOL:
        raise EntangleError(
            "Schmidt weights sum to %.12f instead of 1" % total)
    return w, tail


def entanglement_entropy(psi, region, budget_gib=4.0, top_k=8):
    """EntropyReport for the bipartition (region, complement)."""
    region, mask = _region_mask(region, psi.basis.n_atoms)
    w, tail = _schmidt_weights(psi, mask, budget_gib)
    nz = w[w > 1e-16]
    entropy = float(-np.sum(nz * np.log(nz)))
    return EntropyReport(region=region, n_atoms=len(region),
                         entropy=entropy, schmidt=np.sqrt(w[:top_k]),
                         schmidt_rank=len(nz), tail_bound=tail)


def topological_entropy_report(psi, regions, budget_gib=4.0):
    """EntropyReport of ABC with gamma and the component entropies attached."""
    a, b, c = (frozenset(r) for r in regions)
    if a & b or b & c or a & c:
        raise EntangleError("regions A, B, C must be disjoint")
    combos = {"A": a, "B": b, "C": c, "AB": a | b, "BC": b | c,
              "AC": a | c, "ABC": a | b | c}
    reports = {k: entanglement_entropy(psi, r, budget_gib)
               for k, r in combos.items()}
    s = {k: r.entropy for k, r in reports.items()}
    gamma = (s["AB"] + s["BC"] + s["AC"] - s["A"] - s["B"] - s["C"]
             - s["ABC"])
    out = reports["ABC"]
    out.gamma = gamma
    out.components = s
    return out


def reports_to_csv(labeled_reports, path):
    """Write (label, EntropyReport) pairs as an entropy table."""
    with open(path, "w") as fh:
        fh.write("region_label,n_atoms,entropy,top8_schmidt\n")
        for label, rep in labeled_reports:
            tops = ";".join("%.17g" % s for s in rep.schmidt[:8])
            fh.write("%s,%d,%.17g,%s\n"
                     % (label, rep.n_atoms, rep.entropy, tops))
