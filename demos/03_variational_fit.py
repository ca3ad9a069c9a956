"""Fit swept states with the two-parameter monomer ansatz.

The ansatz dresses the RVB state with monomer defects: z1 weights adjacent
monomer pairs, z2 their separation; (z1, z2) = (0, 0) is the pure RVB state
and the large-z1 limb reduces to the vacuum.  Here the vacuum is swept with
the default protocol at several total times and each final state is fitted.
Short sweeps land near the vacuum limb; near-optimal sweeps fit the liquid
with small |z1|, |z2| and high overlap, showing that the dynamically prepared
state stays inside the two-parameter family.

Runs in about a minute on the 12-atom preset.
"""
from rvbprep import ansatz, evolve, geometry, hilbert, model

cluster = geometry.cluster_preset(12)
graph = geometry.constraint_graph(cluster, r_c=2.0)
basis = hilbert.enumerate_basis(graph)
covers = hilbert.enumerate_maximal_covers(cluster)
rvb = hilbert.rvb_state(covers, basis)
# with its cluster the operator sweeps in the sector symmetric under
# the torus's whole symmetry group
op = model.HamiltonianOperator(model.HamiltonianSpec(), basis, cluster)

print("%8s %8s %10s %10s %10s" % ("T", "limb", "|z1|", "|z2|", "overlap"))
for total_time in (0.5, 2.0, 8.0, 16.0):
    schedule = model.SweepSchedule.default_protocol(total_time)
    traj = evolve.evolve_sweep(op, schedule, rvb=rvb)
    fit = ansatz.fit_to_state(traj.final_state, covers, basis)
    print("%8.1f %8s %10.4f %10.4f %10.6f"
          % (total_time, fit.limb, abs(fit.params.z1), abs(fit.params.z2),
             fit.overlap))

print("\nsanity check: fitting the RVB state itself returns (0, 0)")
fit = ansatz.fit_to_state(rvb, covers, basis)
print("limb=%s  |z1|=%.2e  |z2|=%.2e  overlap=%.12f"
      % (fit.limb, abs(fit.params.z1), abs(fit.params.z2), fit.overlap))
