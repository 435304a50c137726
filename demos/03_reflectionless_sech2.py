"""The sech^2 family transmits perfectly at every positive energy.

V(x) = -nu(nu+1) sech^2(x) with integer nu is the classic reflectionless
family: the spectral route reports reflection at numerical zero across the
whole energy window, and the independent transfer-matrix route confirms it.
A reflectionless window scan condenses the sweep into interval form.
"""
import numpy as np

from weylscatter import (
    PoschlTeller,
    reflectionless_scan,
    spectral_reflection,
    sweep,
    transfer_reflection_grid,
    truncated,
)


def main():
    grid = np.linspace(0.5, 8.0, 16)
    for nu in (1, 2):
        p = PoschlTeller(nu=nu)
        print(f"== V(x) = -{nu*(nu+1)} sech^2(x) ==")
        oracle = transfer_reflection_grid(p, np.sqrt(grid), 0.004)
        worst_spec = np.max(spectral_reflection(*sweep(p, grid)).reflect_prob)
        worst_tm = np.max(oracle.reflect_prob)
        print(f"  max spectral reflect_prob over {len(grid)} energies: {worst_spec:.3e}")
        print(f"  max transfer   |r|^2      over {len(grid)} energies: {worst_tm:.3e}")

        windows = reflectionless_scan(truncated(p, 1e-12), grid, zero_tol=1e-6)
        for w in windows:
            print(
                f"  reflectionless window [{w.lam_min:.2f}, {w.lam_max:.2f}]"
                f" with max reflect_prob {w.max_reflect_prob:.3e}"
            )
        print()

    print("contrast: a square barrier of comparable size is reflective everywhere;")
    print("the scan over the same grid returns no window at all.")


if __name__ == "__main__":
    main()
