"""Regenerate bench/refs.json: one-period matrices of q'' + beta q = 0.

beta(tau) = beta0 + 2 beta1 cos(tau) on [pi/2, 5pi/2], solved for the 2x2
evolution matrix with mpmath's Taylor-series ODE solver at 30 significant
digits.  This shares no code with the package's integrators.  The four
drive points are the corners of one rectangle, so a single 2x2 `scan`
reproduces all of them.

    python3 bench/make_refs.py      # about 30 s; rewrites bench/refs.json
"""

import json
import os

import mpmath as mp

DIGITS = 30
BETA0 = ("1.217", "1.9")
BETA1 = ("0.844", "1.6")


def one_period(beta0, beta1):
    # the exact binary values the program receives
    b0, b1 = mp.mpf(float(beta0)), mp.mpf(float(beta1))
    t0 = mp.pi / 2
    t1 = 5 * mp.pi / 2

    def rhs(t, y):
        beta = b0 + 2 * b1 * mp.cos(t)
        return [y[2], y[3], -beta * y[0], -beta * y[1]]

    sol = mp.odefun(rhs, t0, [mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)])
    return sol(t1)


def main():
    mp.mp.dps = DIGITS
    points = []
    for beta0 in BETA0:
        for beta1 in BETA1:
            u = one_period(beta0, beta1)
            points.append({
                "beta0": float(beta0),
                "beta1": float(beta1),
                "matrix": [float(x) for x in u],
                "matrix_digits": [mp.nstr(x, DIGITS) for x in u],
            })
    out = {
        "equation": "q'' + (beta0 + 2 beta1 cos tau) q = 0, u(5pi/2, pi/2)",
        "interval": ["pi/2", "5pi/2"],
        "digits": DIGITS,
        "solver": "mpmath.odefun (Taylor series)",
        "points": points,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
