"""Locate the spin-liquid window of the PXP groundstate.

Scans the groundstate of the blockade-constrained Hamiltonian along
lambda = Omega/Delta at fixed Omega = 1 and records the fidelity
susceptibility F(lambda) = (1 - |<GS(lambda)|GS(lambda+d)>|)/d together with
the overlap onto the RVB state.  The susceptibility peaks where the
groundstate changes character; the RVB overlap is largest in the window at
small lambda and collapses beyond the dominant peak.

This demo runs the 24-atom preset, where the upper transition shows up as a
clear interior peak while the lower boundary is only a soft shoulder --
a finite-size precursor.  The full-scale version of this scan (N = 36,
d-lambda = 0.0025) is the `fig1c_scan` experiment, where two dominant peaks
bracket the liquid window.  Passing the cluster lets every ground state be
solved in the sector symmetric under its torus's whole symmetry group (74
of the 2649 states); the demo takes under 1 s at one BLAS thread.
"""
import numpy as np

from rvbprep import geometry, hilbert, model, spectrum

cluster = geometry.cluster_preset(24)
graph = geometry.constraint_graph(cluster, r_c=2.0)
basis = hilbert.enumerate_basis(graph)
covers = hilbert.enumerate_maximal_covers(cluster)
rvb = hilbert.rvb_state(covers, basis)
op = model.HamiltonianOperator(model.HamiltonianSpec(), basis, cluster)

lambdas = np.linspace(0.15, 1.2, 43)
scan = spectrum.fidelity_susceptibility_scan(op, lambdas, rvb=rvb)

peaks = spectrum.interior_peaks(scan.susceptibilities)
print("%8s %12s %14s %8s" % ("lambda", "|<RVB|GS>|", "susceptibility", ""))
for i in range(len(lambdas)):
    mark = "  <-- susceptibility peak" if i in peaks else ""
    print("%8.3f %12.6f %14.6f %s"
          % (lambdas[i], scan.rvb_overlaps[i], scan.susceptibilities[i], mark))

i_best = int(np.argmax(scan.rvb_overlaps))
i_top = max(peaks, key=lambda i: scan.susceptibilities[i])
print("\nRVB overlap is maximal (%.4f) at lambda = %.3f, inside the window;"
      % (scan.rvb_overlaps[i_best], lambdas[i_best]))
print("beyond the dominant peak at lambda = %.3f it collapses to %.4f."
      % (lambdas[i_top], scan.rvb_overlaps[-1]))
