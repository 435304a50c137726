"""Dynamical reflection measured by evolving an actual wave packet.

A narrow-band Gaussian packet launched from the far left tunnels through a
square barrier under the split-step spectral propagator.  Once the interaction
region empties, the mass left of the origin is the dynamical reflection
probability; it lands on the momentum-averaged spectral prediction
integral |R(k^2)|^2 |phi_hat(k)|^2 dk to a fraction of a percent.
"""
from weylscatter import PacketSpec, SquareBarrier, evolve_packet, predicted_reflection


def main():
    p = SquareBarrier(height=2.0, half_width=0.5)
    spec = PacketSpec(
        x0=-60.0,
        k0=1.0,           # mean energy lambda = 1, below the barrier top
        sigma_x=8.0,
        half_length=200.0,
        n_points=2048,
        dt=0.005,
        t_max=150.0,
    )
    print("evolving: barrier height 2, packet k0 = 1, sigma_x = 8 ...")
    result = evolve_packet(p, spec, trace_stride=8)
    predicted = predicted_reflection(p, spec)

    print("\n    t     left mass   right mass   interaction mass")
    for t, lm, rm, im in result.trace:
        print(f"  {t:6.1f}   {lm:.6f}    {rm:.6f}     {im:.2e}")

    print(f"\nscattering complete at t = {result.t_stop:.1f}")
    print(f"  left mass (dynamical reflection) : {result.left_mass:.6f}")
    print(f"  spectral prediction              : {predicted:.6f}")
    print(f"  |difference|                     : {abs(result.left_mass - predicted):.2e}")
    print(f"  norm drift of the propagator     : {result.norm_drift:.2e}")
    print("\nthe tunneling probability at the band center is 0.41997..., and the")
    print("finite packet bandwidth shifts the average only in the fourth digit.")


if __name__ == "__main__":
    main()
