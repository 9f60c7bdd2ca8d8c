"""Reconstruct the device's output states from simulated click counts.

Sweeps the 16-point characterisation grid, reconstructing each 3x3
output density matrix by maximum likelihood from four fixed analysis
couplers, with the no-photon corner taken from the feedback-port rate.
Reports fidelity and purity per point, compares against the bundled
reference table, and round-trips the fitted rail-length phase offset.
"""

import numpy as np

from qumem.fock import fidelity
from qumem.tomography import (
    fit_global_phase,
    project_physical,
    reconstruction_roundtrip,
    reference_table,
    table_fixtures,
)


def main():
    print("=== exact-statistics round trip over the 16-point grid ===")
    print(" beta2    R    fidelity   purity   ref purity")
    for fx, row in zip(table_fixtures(), reference_table()):
        rep = reconstruction_roundtrip(fx.beta2, fx.reflectivity, shots=None)
        print(f"  {fx.beta2:4.1f} {fx.reflectivity:5.1f}"
              f"   {rep.fidelity_to_theory:8.5f} {rep.purity:8.4f}"
              f" {row['purity_theory']:10.2f}")

    print("\n=== finite statistics (10^4 detected photons per setting) ===")
    fids = [
        reconstruction_roundtrip(fx.beta2, fx.reflectivity,
                                 shots=10_000, seed=3).fidelity_to_theory
        for fx in table_fixtures()
    ]
    print(f"mean fidelity {np.mean(fids):.4f}, worst {min(fids):.4f}")

    print("\n=== published reconstructions vs the theory model ===")
    devs = []
    for row in reference_table():
        f = fidelity(row["rho_theory"],
                     project_physical(row["rho_reconstructed"]))
        devs.append(abs(f - row["fidelity"]))
    print(f"per-point |fidelity - published| stays below {max(devs):.4f} "
          "(two-decimal rounding of the published matrices)")

    samples = [
        (fx.reflectivity, fx.rho[1, 2])
        for fx in table_fixtures()
        if abs(fx.rho[1, 2]) > 1e-9
    ]
    print(f"\nfitted rail-length phase offset: "
          f"{fit_global_phase(samples):.3f} rad (model value 5.6)")


if __name__ == "__main__":
    main()
