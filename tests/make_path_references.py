"""Print the designed-stage path references of test_evolution:
PATH_REFERENCES.

For each target pair (b, beta0) the three-frequency ansatz

    theta(tau) = a1 sin(tau) + a3 sin(3 tau) + a5 sin(5 tau)

is re-solved in mpmath at 40 significant digits from the exact binary
values the program receives.  The design lemma fixes the whole evolution
matrix u(tau, 0) = [[C, S], [C', S']] of the stage by theta alone: with
CS = theta/2, CS' = (theta' + 2)/4 and C'S = (theta' - 2)/4 (from u(tau,
-tau) = [[theta'/2, theta], [., theta'/2]] and CS' - C'S = 1), the ratio
r = S/C has r' = 1/C^2 = 2 r/theta, so

    r(tau) = tau exp(integral from 0 to tau of (2/theta(s) - 1/s) ds),
    C^2 = theta/(2 r),  S^2 = theta r/2,

with C, S > 0 while theta > 0 on (0, tau], which holds for these targets
on (0, pi/2].  Then C' = (theta' - 2)/(4 S) and S' = (theta' + 2)/(4 C).
The integrand cancels near s = 0, where theta = 2s + O(s^3), and quad's
nodes crowd there; so theta - 2s is summed from its Taylor series, whose
coefficients (-1)^j sum_k k^(2j+1) a_k / (2j+1)! need no ODE, and the
integrand is written -(theta - 2s)/(s theta).  The other half of the stage
follows from beta being even: u(-tau, 0) = D u(tau, 0) D, D = diag(1, -1).

The taus are ten values from 0.1 to 1.45 and pi/2, exact binary values
as the tests write them; their uneven spacing puts the joins of a path
through them at uneven places inside its segments.  The script imports
nothing from softsqueeze, so the constants are an oracle that shares no
code with the package; the test itself does not need mpmath.  The file
name does not match pytest's test_*.py pattern, so it is not collected.

    python tests/make_path_references.py      # about 25 seconds
"""

import math

import mpmath as mp

DIGITS = 40
PRINT_DIGITS = 30
SERIES_TERMS = 80   # terms j of theta - 2s; the last is below 1e-60 for |s| <= pi/2

# (b, beta0): two bench-range stages that chain (same beta0), and two
# stages near opposite corners of the bench range
TARGETS = [("2.0", "0.2"), ("1.5", "0.2"), ("0.8", "0.05"), ("3.0", "0.4")]
TAUS = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15, 1.3, 1.45, math.pi / 2]


def ansatz(b, beta0):
    b, beta0 = mp.mpf(float(b)), mp.mpf(float(beta0))
    m = mp.matrix([[1, 3, 5], [1, -1, 1], [-1, 9, -25]])
    rhs = mp.matrix([2, b, -2 / b - 2 * b * beta0])
    return mp.lu_solve(m, rhs)


def theta_minus_2s(a, s):
    """theta(s) - 2 s from the Taylor series of theta about 0."""
    total = (a[0] + 3 * a[1] + 5 * a[2] - 2) * s
    for j in range(1, SERIES_TERMS):
        n = 2 * j + 1
        coeff = (a[0] + 3**n * a[1] + 5**n * a[2]) / mp.factorial(n)
        total += (-1) ** j * coeff * s**n
    return total


def stage_map(a, tau):
    """(C, S, C', S') of u(tau, 0) for tau in (0, pi/2]."""
    def integrand(s):
        rest = theta_minus_2s(a, s)
        return -rest / (s * (2 * s + rest))

    th = 2 * tau + theta_minus_2s(a, tau)
    th1 = sum(a[i] * k * mp.cos(k * tau) for i, k in enumerate((1, 3, 5)))
    r = tau * mp.exp(mp.quad(integrand, [0, tau]))
    c, s = mp.sqrt(th / (2 * r)), mp.sqrt(th * r / 2)
    return c, s, (th1 - 2) / (4 * s), (th1 + 2) / (4 * c)


def main():
    mp.mp.dps = DIGITS
    print("PATH_REFERENCES = {")
    for b, beta0 in TARGETS:
        a = ansatz(b, beta0)
        print(f"    ({b}, {beta0}): (")
        for tau in TAUS:
            entries = ", ".join(f'"{mp.nstr(x, PRINT_DIGITS)}"'
                                for x in stage_map(a, mp.mpf(tau)))
            print(f"        ({tau!r}, {entries}),")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
