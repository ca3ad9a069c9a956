"""Bipartite entanglement entropies and the topological entropy gamma.

Entropies are von Neumann entropies in natural log.  A bipartition groups
the basis configurations by their restriction to the region and to its
complement (``ConstrainedBasis.cut``, computed once per basis and region);
the amplitudes fill a dense coefficient matrix, smaller side first, whose
squared singular values are the Schmidt weights.  They are the eigenvalues
of its Gram matrix, formed by BLAS in real arithmetic when every amplitude
is real and in complex arithmetic otherwise.

gamma combines seven entropies of three mutually adjacent regions:
gamma = S_AB + S_BC + S_AC - S_A - S_B - S_C - S_ABC; a value close to ln 2
signals Z2 topological order, while trivial states give gamma near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRAM_BUDGET_GIB = 4.0
WEIGHT_TOL = 1e-10


class EntangleError(ValueError):
    pass


@dataclass
class EntropyReport:
    region: tuple                     # sorted atom ids
    n_atoms: int
    entropy: float
    schmidt: np.ndarray               # 8 largest Schmidt coefficients
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


def _schmidt_weights(psi, mask):
    """Descending squared Schmidt coefficients."""
    ridx, cidx, nr, nc = psi.basis.cut(mask)
    amps = psi.normalized().amplitudes
    if not amps.imag.any():
        amps = amps.real
    if nr * nc * amps.itemsize > GRAM_BUDGET_GIB * 2 ** 30:
        raise EntangleError(
            "coefficient matrix of %d x %d exceeds the %.1f GiB budget"
            % (nr, nc, GRAM_BUDGET_GIB))
    # each configuration is one (region, complement) pair: nothing collides
    mat = np.zeros((nr, nc), dtype=amps.dtype)
    mat[ridx, cidx] = amps
    gram = mat @ mat.conj().T
    w = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise EntangleError(
            "Schmidt weights sum to %.12f instead of 1" % total)
    return w


def entanglement_entropy(psi, region):
    """EntropyReport for the bipartition (region, complement)."""
    region, mask = _region_mask(region, psi.basis.n_atoms)
    w = _schmidt_weights(psi, mask)
    nz = w[w > 1e-16]
    entropy = float(-np.sum(nz * np.log(nz)))
    return EntropyReport(region=region, n_atoms=len(region),
                         entropy=entropy, schmidt=np.sqrt(w[:8]))


def topological_entropy_report(psi, regions):
    """EntropyReport of ABC with gamma and the component entropies attached."""
    a, b, c = (frozenset(r) for r in regions)
    if a & b or b & c or a & c:
        raise EntangleError("regions A, B, C must be disjoint")
    combos = {"A": a, "B": b, "C": c, "AB": a | b, "BC": b | c,
              "AC": a | c, "ABC": a | b | c}
    reports = {k: entanglement_entropy(psi, r) for k, r in combos.items()}
    s = {k: r.entropy for k, r in reports.items()}
    gamma = (s["AB"] + s["BC"] + s["AC"] - s["A"] - s["B"] - s["C"]
             - s["ABC"])
    out = reports["ABC"]
    out.gamma = gamma
    out.components = s
    return out
