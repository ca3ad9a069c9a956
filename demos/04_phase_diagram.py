"""Map the monomer-ansatz phase diagram on an infinite cylinder.

The ansatz family has an exact tensor-network form, so its observables can be
evaluated directly in the thermodynamic limit on a cylinder of fixed
circumference via the row-to-row transfer matrix.  This demo walks z1 at fixed
z2 and prints the excitation density, its derivative dn/dz1 (whose ridge marks
the transition out of the liquid), the transfer-matrix correlation length,
and the closed/open diagonal string expectations feeding the BFFM confinement
diagnostic.

Runs in a couple of minutes at circumference L = 4.
"""
import numpy as np

from rvbprep import geometry, tnet

L = 4
z2 = 0.1
loop = geometry.hexagon_loop("z", 1)

print("at (z1, z2) = (0, 0) the state is the exact RVB fixed point:")
tm = tnet.cylinder_transfer(0.0, 0.0, L)
b = tnet.dominant_eigenpair(tm)
print("  mean density = %.12f (exactly 1/4: one dimer per kagome vertex)"
      % tnet.mean_density(tm, b))

print("\n%6s %10s %10s %10s %12s" % ("z1", "density", "dn/dz1", "xi", "bffm_z"))
warm = None
for z1 in np.arange(0.1, 1.01, 0.1):
    rec, warm = tnet.phase_diagram_point(
        z1, z2, L, loops={"bffm_z": (loop, False)}, warm=warm)
    print("%6.2f %10.6f %10.4f %10.4f %12.6f"
          % (rec["z1"], rec["density"], rec["dn_dz1"], rec["xi"],
             rec["bffm_z"]))

print("\nthe dn/dz1 ridge and the growth of xi locate the transition; the "
      "BFFM value is small in the liquid and rises once monomers condense.")
