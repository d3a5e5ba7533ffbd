"""Print the locus and double-zero references of test_mathieu:
LOCUS_REFERENCES and DOUBLE_ZERO_REFERENCE.

beta(tau) = beta0 + 2 beta1 cos(tau) on [pi/2, 5pi/2]; the evolution
matrix of q' = p, p' = -beta q is solved with mpmath's Taylor-series ODE
solver at 30 significant digits, as in make_reference_matrices.py.  A locus
point is the beta1 where u12 or u21 vanishes on a fixed beta0 line, found
by secant steps from two starts near the root; its lambda is u11 there.
The double zero, where u12 and u21 vanish together, is found by Newton
steps with forward-difference Jacobians from the documented seed (1.217,
0.844).  Each solve takes a few seconds.

The script imports nothing from softsqueeze, so the constants are an oracle
that shares no code with the package's integrator or root finders; the
test itself does not need mpmath.  The file name does not match pytest's
test_*.py pattern, so it is not collected.

    python tests/make_locus_references.py      # about three minutes
"""

import mpmath as mp

DIGITS = 30
PRINT_DIGITS = 20
STOP = "1e-25"      # a secant or Newton step this small ends the solve
MAX_STEPS = 12
FD_STEP = "1e-12"   # forward-difference step of the Newton Jacobian

# (entry, beta0, two beta1 starts): the u21 crossing of the regression
# anchor's line and the u12 crossing of the u12 det-identity test's first
# line
LOCI = [("u21", "1.054", "0.6228", "0.6229"),
        ("u12", "1.0", "1.3041", "1.3042")]
DZ_SEED = ("1.217", "0.844")
ENTRY = {"u12": 1, "u21": 2}


def one_period(b0, b1):
    """(u11, u12, u21, u22) at mpf drive parameters."""
    def rhs(t, y):
        beta = b0 + 2 * b1 * mp.cos(t)
        return [y[2], y[3], -beta * y[0], -beta * y[1]]

    # y = (q_a, q_b, p_a, p_b) for the solutions starting at (q, p) = (1, 0)
    # and (0, 1), which is the matrix row-major: (u11, u12, u21, u22)
    sol = mp.odefun(rhs, mp.pi / 2, [mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)])
    return sol(5 * mp.pi / 2)


def locus_point(entry, beta0, start0, start1):
    # the exact binary value of the grid line the program receives
    b0 = mp.mpf(float(beta0))
    col = ENTRY[entry]
    x0, x1 = mp.mpf(start0), mp.mpf(start1)
    f0 = one_period(b0, x0)[col]
    for _ in range(MAX_STEPS):
        u = one_period(b0, x1)
        x0, x1, f0 = x1, x1 - u[col] * (x1 - x0) / (u[col] - f0), u[col]
        if abs(x1 - x0) < mp.mpf(STOP):
            break
    else:
        raise RuntimeError(f"{entry} secant on beta0 = {beta0} did not converge")
    return x1, one_period(b0, x1)[0]


def double_zero(seed):
    x = mp.matrix([mp.mpf(float(s)) for s in seed])
    h = mp.mpf(FD_STEP)
    for _ in range(MAX_STEPS):
        u = one_period(x[0], x[1])
        f = mp.matrix([u[1], u[2]])
        jac = mp.matrix(2, 2)
        for k in range(2):
            xk = x.copy()
            xk[k] += h
            uk = one_period(xk[0], xk[1])
            jac[0, k], jac[1, k] = (uk[1] - u[1]) / h, (uk[2] - u[2]) / h
        step = mp.lu_solve(jac, -f)
        x += step
        if mp.norm(step) < mp.mpf(STOP):
            return x[0], x[1]
    raise RuntimeError(f"double-zero Newton from {seed} did not converge")


def fmt(x):
    return mp.nstr(x, PRINT_DIGITS, min_fixed=-mp.inf, max_fixed=mp.inf)


def main():
    mp.mp.dps = DIGITS
    print("# (entry, beta0, beta1, lambda)")
    print("LOCUS_REFERENCES = [")
    for entry, beta0, start0, start1 in LOCI:
        beta1, lam = locus_point(entry, beta0, start0, start1)
        print(f'    ("{entry}", {beta0}, {fmt(beta1)}, {fmt(lam)}),')
    print("]")
    b0, b1 = double_zero(DZ_SEED)
    print(f"DOUBLE_ZERO_REFERENCE = ({fmt(b0)}, {fmt(b1)})")


if __name__ == "__main__":
    main()
