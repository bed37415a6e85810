#!/usr/bin/env python3
"""Certify a marginally stable model and compare against dimension reduction.

The toy keeps x1 frozen (a conserved quantity) while x2 relaxes: the
spectral abscissa is exactly zero, so no stability certificate exists.
Two escape routes:
  * the gap certificate, built on the decay rate of the dissipative mode;
  * substituting the conserved x1(0) by hand and certifying the reduced
    scalar system.
Neither region contains the other, which this script exhibits at a
reference point and along a slice of the (a, b) plane.  It closes by
checking the proven per-block error bound against measured lift errors.

Run:  python3 demos/03_conservative_toy.py
"""

import numpy as np

from carleman_lab.carleman import error_profile
from carleman_lab.conservative import certify_conservative
from carleman_lab.fixtures import conservative_toy, reduced_conservative_rp
from carleman_lab.system import rescale


def main():
    print("reference point: a=0.2, b=0.05, x(0) = (0.3, 0)")
    fx = conservative_toy(a=0.2, b=0.05, x1=0.3, x2=0.0)
    cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
    reduced = reduced_conservative_rp(0.2, 0.05, 0.3, 0.0)
    print(f"  gap R-number      = {cert.value:.4f}  (certified: {cert.certified})")
    print(f"  reduced R-number  = {reduced}  (x2(0)=0 leaves the reduction helpless)")
    print()

    print("slice b = 0.02, x(0) = (0.5, 1/12): gap vs reduction across a")
    for a in (0.05, 0.15, 0.25, 0.35, 0.45):
        fx = conservative_toy(a=a, b=0.02, x1=0.5, x2=1.0 / 12.0)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        reduced = reduced_conservative_rp(a, 0.02, 0.5, 1.0 / 12.0)
        tags = []
        if cert.value < 1:
            tags.append("gap")
        if reduced < 1:
            tags.append("reduction")
        print(
            f"  a={a:4.2f}:  R_delta={cert.value:6.3f}  reduced={reduced:6.3f}"
            f"   certified by: {', '.join(tags) if tags else 'neither'}"
        )
    print()

    print("per-block error bound vs measurement (a=b=0.01, x(0)=(0.5,0), k=6)")
    fx = conservative_toy(a=0.01, b=0.01, x1=0.5, x2=0.0)
    cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
    resc = rescale(fx.system, cert.gamma)
    times = np.array([0.0, 1.0, 2.0, 5.0])
    prof = error_profile(resc, cert.gamma * fx.x0, 6, times, tol=1e-12)
    for j in (1, 3, 6):
        measured = prof.block_norms[:, j - 1].max()
        bound = cert.error_bound(j, 6, times[-1])
        print(f"  block {j}:  measured {measured:.3e}  <=  bound {bound:.3e}")


if __name__ == "__main__":
    main()
