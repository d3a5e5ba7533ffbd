"""Print the designed-pulse references of test_design: BETA_REFERENCES,
BETA_WIDE_REFERENCES and LEMMA_ZERO_REFERENCES.

For each target pair (b, beta0) the three-frequency ansatz

    theta(tau) = a1 sin(tau) + a3 sin(3 tau) + a5 sin(5 tau)

is re-solved in mpmath at 40 significant digits from the exact binary values
the program receives, so theta'(0) = 2 holds to 40 digits rather than to the
rounding of a float solve, and beta = -theta''/(2 theta) + ((theta'/2)^2 -
1)/theta^2 is evaluated at fixed tau on both sides of the zero of theta at
0, from 1e-7 to 1.0 (BETA_REFERENCES).  BETA_WIDE_REFERENCES adds interior
taus and taus near +-pi/2, printed as the binary values of pi/2 - d that
the test passes, and two targets of large coefficients at all these taus.
Near tau = 0 the regular formula cancels: at tau = 1e-7 it loses about 14
of the 40 digits, which still leaves every value good well beyond the 17
digits printed.

For the lemma targets the same re-solved ansatz gives the zeros of theta and
of theta' on [-pi/2, pi/2] at 30 digits: a sign scan brackets each one
(on a slightly wider interval, so that the zeros of theta' at +-pi/2 are
bracketed too), and mpmath.findroot refines it, first by Anderson's
bracketing method, then by secant steps from that root.

The script imports nothing from softsqueeze, so the constants are an oracle
that shares no code with the package; the test itself does not need mpmath.
The file name does not match pytest's test_*.py pattern, so it is not
collected.

    python tests/make_beta_references.py      # about three seconds
"""

import math

import mpmath as mp

DIGITS = 40
PRINT_DIGITS = 17

# (b, beta0): targets inside and outside the benchmark's ranges, one b < 0
TARGETS = [("1.7", "0.2"), ("0.8", "0.05"), ("2.9", "0.37"), ("-1.99", "0.28")]
TAUS = ["1e-7", "1e-6", "3e-6", "1e-5", "1e-4", "1e-3", "4.9e-3", "5.1e-3",
        "0.1", "1.0"]
# BETA_WIDE_REFERENCES: TARGETS at interior taus and at pi/2 - d, and
# targets of large coefficients at those and TAUS
INTERIOR_TAUS = ["0.02", "0.3", "0.7"]
EDGE_OFFSETS = [1e-8, 1e-6, 1e-4, 1e-2, 0.3]
LARGE_TARGETS = [("100", "0"), ("-1e3", "5")]

# (b, beta0) of the lemma zero references: side zeros of bad slope (0.3, 0;
# 0.01, 0.2; 2, 100; -2, 0.1), interior Fourier points (those and 0.8,
# 0.05), only the zeros at 0 and +-pi/2, and large coefficients
LEMMA_TARGETS = [("0.3", "0"), ("2", "0"), ("1.99", "0.28"), ("100", "0.1"),
                 ("0.01", "0.2"), ("2", "100"), ("1e4", "0.1"), ("2.9", "0.37"),
                 ("1.7", "0.2"), ("0.8", "0.05"), ("-2", "0.1")]
ZERO_DIGITS = 30
SCAN_POINTS = 2000      # even, so no scan node falls on tau = 0
SCAN_MARGIN = "0.01"
ZERO_PRINT_DIGITS = 20


def ansatz(b, beta0):
    b, beta0 = mp.mpf(float(b)), mp.mpf(float(beta0))
    m = mp.matrix([[1, 3, 5], [1, -1, 1], [-1, 9, -25]])
    rhs = mp.matrix([2, b, -2 / b - 2 * b * beta0])
    return mp.lu_solve(m, rhs)


def deriv(a, n, tau):
    # n-th derivative of sum a_k sin(k tau), k = 1, 3, 5
    return sum(a[i] * k**n * mp.sin(k * tau + n * mp.pi / 2)
               for i, k in enumerate((1, 3, 5)))


def beta(a, tau):
    th, th1, th2 = (deriv(a, n, tau) for n in range(3))
    return -th2 / (2 * th) + ((th1 / 2) ** 2 - 1) / th**2


def zeros(f):
    """The zeros of f on [-pi/2, pi/2], each bracketed by a sign change."""
    edge = mp.pi / 2
    lo = -edge - mp.mpf(SCAN_MARGIN)
    step = 2 * (edge + mp.mpf(SCAN_MARGIN)) / (SCAN_POINTS - 1)
    grid = [lo + i * step for i in range(SCAN_POINTS)]
    values = [f(x) for x in grid]
    out = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], values, values[1:]):
        if f0 * f1 < 0:
            root = mp.findroot(f, (x0, x1), solver="anderson")
            root = mp.findroot(f, root)
            if abs(root) <= edge + mp.mpf(10) ** (5 - ZERO_DIGITS):
                out.append(root)
    return out


def print_lemma_zeros():
    mp.mp.dps = ZERO_DIGITS
    print("LEMMA_ZERO_REFERENCES = [")
    for b, beta0 in LEMMA_TARGETS:
        a = ansatz(b, beta0)
        print(f"    ({b}, {beta0},")
        for n in (0, 1):
            taus = zeros(lambda tau, n=n: deriv(a, n, tau))
            text = ", ".join(mp.nstr(t, ZERO_PRINT_DIGITS) for t in taus)
            print(f"        ({text},),")
        print("    ),")
    print("]")


def print_betas(targets, taus):
    """One (b, beta0, ((tau, beta), ...)) entry per target, at taus and -taus."""
    for b, beta0 in targets:
        a = ansatz(b, beta0)
        print(f"    ({b}, {beta0}, (")
        for tau in taus:
            for sign in (1, -1):
                t = sign * mp.mpf(float(tau))
                value = mp.nstr(beta(a, t), PRINT_DIGITS, min_fixed=-mp.inf,
                                max_fixed=mp.inf)
                print(f"        ({'-' if sign < 0 else ''}{tau}, {value}),")
        print("    )),")


def main():
    mp.mp.dps = DIGITS
    print("BETA_REFERENCES = [")
    print_betas(TARGETS, TAUS)
    print("]")
    print()
    edge = [repr(math.pi / 2 - d) for d in EDGE_OFFSETS]
    print("BETA_WIDE_REFERENCES = [")
    print_betas(TARGETS, INTERIOR_TAUS + edge)
    print_betas(LARGE_TARGETS, TAUS + INTERIOR_TAUS + edge)
    print("]")
    print()
    print_lemma_zeros()


if __name__ == "__main__":
    main()
