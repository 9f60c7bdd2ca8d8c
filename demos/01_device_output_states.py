"""Walk through the memristive splitter's device equations.

Shows the mean-field output relation, the single- and dual-rail output
density matrices, the purity landscape over (input power, reflectivity),
and the equivalence between the closed forms and a full Fock-space
simulation of the three-rail circuit.

Writes purity_map.csv next to this script (and a PNG when matplotlib is
available).
"""

from pathlib import Path

import numpy as np

from qumem.fock import (
    QuantumState,
    apply,
    coupler,
    enumerate_basis,
    lift_unitary,
    partial_trace,
    purity,
)
from qumem.memristor import (
    QubitInput,
    dual_rail_purity,
    mz_reflectivity,
    output_expectation,
    output_state_dual_rail,
    output_state_single_rail,
    purity_closed_form,
)

OUT = Path(__file__).resolve().parent


def main():
    print("=== mean-field relation <n_out> = (1 - R) <n_in> ===")
    for theta in (0.0, np.pi / 2, np.pi):
        refl = mz_reflectivity(theta)
        print(f"  phase {theta:5.3f} rad -> R = {refl:.3f}, "
              f"n_out(0.8) = {output_expectation(0.8, refl):.3f}")

    print("\n=== output states at |beta|^2 = 0.3, R = 0.7 ===")
    q = QubitInput.from_beta2(0.3)
    rho2 = output_state_single_rail(q, 0.7)
    rho3 = output_state_dual_rail(q, 0.7)
    print("single-rail 2x2:\n", np.round(rho2, 4))
    print("dual-rail 3x3:\n", np.round(rho3, 4))
    print(f"purities: single {purity(rho2):.4f} "
          f"(closed form {purity_closed_form(0.3, 0.7):.4f}), "
          f"dual {purity(rho3):.4f} "
          f"(closed form {dual_rail_purity(0.3, 0.7):.4f})")
    print("note: the dual-rail purity sits below the single-rail one by "
          "2 |alpha|^2 |beta|^2 R (an extra incoherent branch)")

    print("\n=== same state from the full three-rail Fock simulation ===")
    basis = enumerate_basis(3, 1)
    state = QuantumState.pure(basis, [q.alpha, q.beta, 0.0])
    mode_u = np.eye(3, dtype=complex)
    mode_u[1:, 1:] = coupler(0.7)
    joint = apply(state, lift_unitary(mode_u, basis))
    # the reduced density matrix of the two output rails, rows and
    # columns |00>, |10>, |01> as in the closed form
    reduced = partial_trace(joint, keep_modes=(0, 1))
    print("max |closed form - simulated| =",
          f"{np.max(np.abs(reduced - rho3)):.2e}")

    print("\n=== purity map over (|beta|^2, R) ===")
    beta2 = np.linspace(0, 1, 101)
    refl = np.linspace(0, 1, 101)
    grid = np.array([[purity_closed_form(b, r) for r in refl] for b in beta2])
    path = OUT / "purity_map.csv"
    with open(path, "w") as fh:
        fh.write("beta2,R,purity\n")
        for i, b in enumerate(beta2):
            for j, r in enumerate(refl):
                fh.write(f"{b:.4f},{r:.4f},{grid[i, j]:.8f}\n")
    print(f"wrote {path} (minimum {grid.min():.3f} at beta2=1, R=0.5: the "
          "only fully mixed point)")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(5, 4))
        im = ax.imshow(grid, origin="lower", extent=(0, 1, 0, 1),
                       aspect="auto", vmin=0.5, vmax=1.0, cmap="viridis")
        ax.set_xlabel("reflectivity R")
        ax.set_ylabel(r"$|\beta|^2$")
        ax.set_title("output-state purity")
        fig.colorbar(im, ax=ax)
        fig.tight_layout()
        fig.savefig(OUT / "purity_map.png", dpi=150)
        print(f"wrote {OUT / 'purity_map.png'}")
    except ImportError:
        print("matplotlib not available; skipped the PNG")


if __name__ == "__main__":
    main()
