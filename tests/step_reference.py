"""The one-step map and the moment-sine jet in their earlier form, kept as
byte-level references: the step formed the drift and Brownian terms before
the jet terms and held all of them until the sum, and the jet built its
outputs from fresh temporaries."""

import numpy as np

from roughmkv.coefficients import area_tensor, moment_family
from roughmkv.simulate import StepReport


def ref_advance_states(states, coeffs, mu, t0, h, dw, area, db, want_report=False, out=None):
    fam = coeffs.rough
    drift = coeffs.drift(t0, states, mu) * h
    brown = np.einsum("ail,al->ai", coeffs.diffusion(t0, states, mu), db)
    jet = fam.jet(t0, states, mu, 0 if area is None else 1)
    f = jet[0]
    sig = np.einsum("aik,k->ai", f, dw)
    if area is not None:
        areapart = np.einsum("aikl,kl->ai", area_tensor(fam, jet, f), area)
    else:
        areapart = np.zeros_like(states)
    out = np.add(states, drift, out=out)
    out += brown
    out += sig
    out += areapart
    report = None
    if want_report:
        report = StepReport(
            time=t0,
            drift_part=float(np.max(np.abs(drift))),
            brownian_part=float(np.max(np.abs(brown))),
            signal_part=float(np.max(np.abs(sig))),
            area_part=float(np.max(np.abs(areapart))),
        )
    return out, report


def ref_moment_sin_family(a, b):
    def jet(t, x, m):
        sin, cos, th = np.sin(x), np.cos(x), np.tanh(m[0])
        bcos = b * cos
        sech2 = 1.0 / np.cosh(m[0]) ** 2
        return (
            (a * sin + bcos * th)[:, :, None],
            (a * cos - b * sin * th)[:, :, None, None],
            (bcos * sech2)[:, :, None, None],
        )

    return moment_family(1, 1, jet)
