"""Weyl m-functions: closed forms, boundary values, and Herglotz positivity.

The half-line m-function is the logarithmic derivative at the origin of the
unique square-integrable solution of -u'' + V u = z u.  On a constant
potential it is i sqrt(z - c), which makes the free line the perfect sanity
check; a square barrier shows a genuinely structured boundary value whose
imaginary part is the half-line spectral density.
"""
import numpy as np

from weylscatter import (
    SquareBarrier,
    Step,
    Zero,
    boundary_m,
    interior_m,
)


def main():
    print("== free line: m(z) = i sqrt(z) on both sides ==")
    for z in (1j, 4 + 0.01j, 2 + 2j):
        mv = interior_m("right", Zero(), z)
        print(f"  z = {z!s:>12}   m = {mv.m:.12f}   i*sqrt(z) = {1j*np.sqrt(z):.12f}")

    print("\n== step potential: the right tail shifts the branch point ==")
    p = Step(left_value=0.0, right_value=1.0)
    for z in (4 + 0.01j, 2 + 1j):
        mv = interior_m("right", p, z)
        print(f"  z = {z!s:>12}   m_r = {mv.m:.12f}   i*sqrt(z-1) = {1j*np.sqrt(z-1):.12f}")

    print("\n== square barrier: boundary values m(lambda + i0) ==")
    b = SquareBarrier(height=2.0, half_width=0.5)
    print("  lambda    Re m_r       Im m_r       err estimate")
    for lam in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        mv = boundary_m("right", b, lam)
        print(f"  {lam:6.2f}  {mv.m.real:+.8f}  {mv.m.imag:+.8f}   {mv.err_estimate:.1e}")

    print("\n== a.c. spectral density d rho/d lambda = Im m(lambda + i0) ==")
    for lam in (-1.0, 1.0, 4.0, 9.0):
        free = max(boundary_m("right", Zero(), lam).m.imag, 0.0)
        barrier = max(boundary_m("right", b, lam).m.imag, 0.0)
        print(f"  lambda = {lam:5.1f}   free: {free:.6f}   barrier: {barrier:.6f}")

    print("\nHerglotz check: Im m > 0 everywhere in the upper half-plane,")
    print("so each half line is fully encoded by a single analytic function.")


if __name__ == "__main__":
    main()
