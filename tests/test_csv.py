"""Byte-exact CSV output of every command that writes CSV.

Each writer gets fixed inputs, with the result types built directly where
the library writes them, and its text is compared with a literal.  The
values cover a repeating decimal (1/3), a signed zero, a tiny and a huge
magnitude, a NaN entry of a failed scan node and an init index of two
digits.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from softsqueeze.cli import main
from softsqueeze.mathieu import LocusPoint, ScanRect, ScanResult, write_locus_csv, write_scan_csv
from softsqueeze.packets import (
    CongruenceResult,
    ShadowResult,
    write_congruence_csv,
    write_shadow_csv,
)

NAN = math.nan
BIG = 12345678901234.5


def _text(writer, result) -> str:
    buf = io.StringIO()
    writer(result, buf)
    return buf.getvalue()


def test_scan_csv_bytes():
    u11 = np.array([[1 / 3, NAN, 2.0], [-0.0, 1e-300, -1.5]])
    u12 = np.array([[-0.0, NAN, BIG], [0.25, 1.0, -2.0]])
    u21 = np.array([[1e-300, NAN, -1 / 3], [3.0, 0.0, 7.0]])
    u22 = np.array([[BIG, NAN, 1.0], [1e300, -1e-5, 1 / 7]])
    zone = np.array([[3, 0, 1], [2, 3, 1]], dtype=np.int8)
    res = ScanResult(
        rect=ScanRect(-1.0, 1.0, 0.0, 1.0, n0=2, n1=3),
        beta0s=np.array([1 / 3, -0.0]), beta1s=np.array([1e-300, BIG, 0.5]),
        u11=u11, u12=u12, u21=u21, u22=u22, gamma=u11 + u22,
        zone=zone, failed=zone == 0,
    )
    assert _text(write_scan_csv, res) == (
        "beta0,beta1,u11,u12,u21,u22,Gamma,zone\n"
        "0.333333333333,1e-300,0.333333333333,-0,1e-300,1.23456789012e+13,1.23456789012e+13,III\n"
        "0.333333333333,1.23456789012e+13,nan,nan,nan,nan,nan,failed\n"
        "0.333333333333,0.5,2,1.23456789012e+13,-0.333333333333,1,3,I\n"
        "-0,1e-300,-0,0.25,3,1e+300,1e+300,II\n"
        "-0,1.23456789012e+13,1e-300,1,0,-1e-05,-1e-05,III\n"
        "-0,0.5,-1.5,-2,7,0.142857142857,-1.35714285714,I\n"
    )


def test_locus_csv_bytes():
    points = [LocusPoint(1 / 3, -0.0, "u21", 1e-300, BIG),
              LocusPoint(1.5, 1e-300, "u21", -0.0, NAN)]
    assert _text(write_locus_csv, points) == (
        "beta0,beta1,entry,lambda\n"
        "0.333333333333,-0,u21,1.23456789012e+13\n"
        "1.5,1e-300,u21,nan\n"
    )
    assert _text(write_locus_csv, []) == "beta0,beta1,entry,lambda\n"


def test_shadow_csv_bytes():
    res = ShadowResult(
        taus=np.array([0.0, 1 / 3, BIG]), q_mean=np.array([-0.0, 1e-300, -1 / 3]),
        p_mean=np.array([1.0, NAN, 2.5]), dq=np.array([0.5, 1 / 3, 1e300]),
        dp=np.array([2.0, 1e-300, 0.1]), belt_radius=10.0,
    )
    assert _text(write_shadow_csv, res) == (
        "tau,q_mean,p_mean,delta_q,delta_p\n"
        "0,-0,1,0.5,2\n"
        "0.333333333333,1e-300,nan,0.333333333333,1e-300\n"
        "1.23456789012e+13,-0.333333333333,2.5,1e+300,0.1\n"
    )


def test_congruence_csv_bytes():
    qs = np.array([[-0.0, 1 / 3, 1e-300, NAN, 2, 3, 4, 5, 6, 7, BIG],
                   [1, -1 / 3, 0.1, 1e5, 1e-5, 1e12, 1e-12, 100, 1e16, -2, 0.0]])
    res = CongruenceResult(taus=np.array([1 / 3, BIG]), qs=qs, ps=2 * qs[::-1])
    assert _text(write_congruence_csv, res) == (
        "tau,init_index,q,p\n"
        "0.333333333333,0,-0,2\n"
        "0.333333333333,1,0.333333333333,-0.666666666667\n"
        "0.333333333333,2,1e-300,0.2\n"
        "0.333333333333,3,nan,200000\n"
        "0.333333333333,4,2,2e-05\n"
        "0.333333333333,5,3,2e+12\n"
        "0.333333333333,6,4,2e-12\n"
        "0.333333333333,7,5,200\n"
        "0.333333333333,8,6,2e+16\n"
        "0.333333333333,9,7,-4\n"
        "0.333333333333,10,1.23456789012e+13,0\n"
        "1.23456789012e+13,0,1,-0\n"
        "1.23456789012e+13,1,-0.333333333333,0.666666666667\n"
        "1.23456789012e+13,2,0.1,2e-300\n"
        "1.23456789012e+13,3,100000,nan\n"
        "1.23456789012e+13,4,1e-05,4\n"
        "1.23456789012e+13,5,1e+12,6\n"
        "1.23456789012e+13,6,1e-12,8\n"
        "1.23456789012e+13,7,100,10\n"
        "1.23456789012e+13,8,1e+16,12\n"
        "1.23456789012e+13,9,-2,14\n"
        "1.23456789012e+13,10,0,2.46913578025e+13\n"
    )


def test_design_samples_csv_bytes(tmp_path):
    samples = tmp_path / "beta.csv"
    assert main(["design", "--b", "1.5", "--beta0", "0.1", "--chain", "2.5",
                 "--steps", "2000", "--samples", "7", "--samples-out", str(samples),
                 "--output", str(tmp_path / "report.json")]) == 0
    assert samples.read_text() == (
        "tau,beta\n"
        "-1.57079632679,0.1\n"
        "-0.523598775598,0.321507947409\n"
        "0.523598775598,0.321507947409\n"
        "1.57079632679,0.1\n"
        "2.61799387799,0.342913770673\n"
        "3.66519142919,0.342913770673\n"
        "4.71238898038,0.1\n"
    )


def test_units_table_csv_bytes(capsys):
    assert main(["units", "--table", "--t-list", "0.001,3,12345678901234.5", "--t-ref", "3",
                 "--base-phi", "9.8e-8", "--base-b", "0.5", "--base-ratio", "1e-300"]) == 0
    assert capsys.readouterr().out == (
        "quantity,T=0.001,T=3,T=1.23456789012e+13\n"
        "q [cm],0.000794034162553,0.043491042226,88226.0176645\n"
        "p [g cm/s],1.32811894845e-24,2.42480235705e-26,1.19530705898e-32\n"
        "v [cm/s],0.794034162553,0.0144970140753,7.14630749514e-09\n"
        "Phi [V],0.882,9.8e-08,5.78680210416e-33\n"
        "B [G],1500,0.5,1.21500001094e-13\n"
        "ratio [1],3e-297,1e-300,2.43000002185e-313\n"
    )
    assert main(["units", "--table", "--particle", "custom", "--mass", "1e-27",
                 "--charge", "1e-300", "--r0", "3", "--T", "2", "--t-list", "1e-300,1",
                 "--base-b", "-0.0"]) == 0
    assert capsys.readouterr().out == (
        "quantity,T=1e-300,T=1\n"
        "q [cm],0,1.02692347183\n"
        "p [g cm/s],1.02692347183e+123,1.02692347183e-27\n"
        "v [cm/s],1.02692347183e+150,1.02692347183\n"
        "B [G],-0,-0\n"
    )


class _Discard:
    def write(self, text):
        pass


def _scan_write_peak(n0: int, n1: int) -> int:
    grid = np.linspace(-1.0, 1.0, n0 * n1).reshape(n0, n1)
    zone = np.ones((n0, n1), dtype=np.int8)
    res = ScanResult(
        rect=ScanRect(1.0, 2.0, 0.0, 1.0, n0=n0, n1=n1),
        beta0s=np.linspace(1.0, 2.0, n0), beta1s=np.linspace(0.0, 1.0, n1),
        u11=grid, u12=grid + 1.0, u21=grid - 1.0, u22=2.0 * grid, gamma=3.0 * grid,
        zone=zone, failed=zone == 0,
    )
    write_scan_csv(res, _Discard())  # warm-up: first-call caches are not the writer's
    tracemalloc.start()
    try:
        write_scan_csv(res, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_csv_memory_does_not_grow_with_lines():
    # the writer may hold one grid line of rows, never the whole grid
    small, large = _scan_write_peak(100, 200), _scan_write_peak(400, 200)
    assert large <= small * 1.05 + 1024, (small, large)


def test_scan_csv_rejects_columns_of_unequal_length():
    # a result whose arrays are shorter than its axes must not write a cut CSV
    res = ScanResult(
        rect=ScanRect(1.0, 2.0, 0.0, 1.0, n0=2, n1=3),
        beta0s=np.array([1.0, 2.0]), beta1s=np.array([0.0, 0.5, 1.0]),
        u11=np.ones((2, 2)), u12=np.ones((2, 3)), u21=np.ones((2, 3)), u22=np.ones((2, 3)),
        gamma=np.ones((2, 3)), zone=np.ones((2, 3), dtype=np.int8),
        failed=np.zeros((2, 3), dtype=bool),
    )
    with pytest.raises(ValueError):
        write_scan_csv(res, io.StringIO())
