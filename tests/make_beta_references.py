"""Print the designed-pulse beta references of test_design.BETA_REFERENCES.

For each target pair (b, beta0) the three-frequency ansatz

    theta(tau) = a1 sin(tau) + a3 sin(3 tau) + a5 sin(5 tau)

is re-solved in mpmath at 40 significant digits from the exact binary values
the program receives, so theta'(0) = 2 holds to 40 digits rather than to the
rounding of a float solve, and beta = -theta''/(2 theta) + ((theta'/2)^2 -
1)/theta^2 is evaluated at fixed tau on both sides of the zero of theta at
0, at and around the edge of the series window.  Near tau = 0 the regular
formula cancels: at tau = 1e-7 it loses about 14 of the 40 digits, which
still leaves every value good well beyond the 17 digits printed.
The script imports nothing from softsqueeze, so the constants are an oracle
that shares no code with the package; the test itself does not need mpmath.
The file name does not match pytest's test_*.py pattern, so it is not
collected.

    python tests/make_beta_references.py      # under a second
"""

import mpmath as mp

DIGITS = 40
PRINT_DIGITS = 17

# (b, beta0): targets inside and outside the benchmark's ranges, one b < 0
TARGETS = [("1.7", "0.2"), ("0.8", "0.05"), ("2.9", "0.37"), ("-1.99", "0.28")]
TAUS = ["1e-7", "1e-6", "3e-6", "1e-5", "1e-4", "1e-3", "4.9e-3", "5.1e-3",
        "0.1", "1.0"]


def ansatz(b, beta0):
    b, beta0 = mp.mpf(float(b)), mp.mpf(float(beta0))
    m = mp.matrix([[1, 3, 5], [1, -1, 1], [-1, 9, -25]])
    rhs = mp.matrix([2, b, -2 / b - 2 * b * beta0])
    return mp.lu_solve(m, rhs)


def beta(a, tau):
    def deriv(n):
        # n-th derivative of sum a_k sin(k tau), k = 1, 3, 5
        return sum(a[i] * k**n * mp.sin(k * tau + n * mp.pi / 2)
                   for i, k in enumerate((1, 3, 5)))

    th, th1, th2 = deriv(0), deriv(1), deriv(2)
    return -th2 / (2 * th) + ((th1 / 2) ** 2 - 1) / th**2


def main():
    mp.mp.dps = DIGITS
    print("BETA_REFERENCES = [")
    for b, beta0 in TARGETS:
        a = ansatz(b, beta0)
        print(f"    ({b}, {beta0}, (")
        for tau in TAUS:
            for sign in (1, -1):
                t = sign * mp.mpf(float(tau))
                value = mp.nstr(beta(a, t), PRINT_DIGITS, min_fixed=-mp.inf,
                                max_fixed=mp.inf)
                print(f"        ({'-' if sign < 0 else ''}{tau}, {value}),")
        print("    )),")
    print("]")


if __name__ == "__main__":
    main()
