"""Exact check reports, witness text included, for known-bad inputs.

Each report below was recorded as a literal, so a refactor of the checks
must keep naming the same first witness in the same words: a failing square
names its first mismatch in (column, target) order, a failing d.d = 0 its
first nonzero entry, and the shape, augmentation, minimality and base
triangle checks their first degree, entry or generator.
"""

from qci_hochschild import resolution
from qci_hochschild.algebra import QuantumCompleteIntersection
from qci_hochschild.resolution import GENERAL, TAU_X, beta_element, structure_element, verify_resolution
from qci_hochschild.scalars import cyclotomic_field, prime_field_for
from qci_hochschild.yoneda import build_lifting, verify_lifting


def unit_values(A, degree, r):
    values = [A.field.zero()] * (degree + 1)
    values[r] = A.field.one()
    return values


EPS_Y_S1_A3_CYCLOTOMIC = [
    ("h_0 recovers the cochain through the augmentation", True, ""),
    (
        "square at s=1",
        False,
        "s=1, column 1, target 0: -1 * y^0 x^0 (x) y^2 x^0 + 2 * y^1 x^0 (x) y^1 x^0 + "
        "-1 * y^2 x^0 (x) y^0 x^0 versus -1 * y^0 x^0 (x) y^2 x^0 + "
        "-1*z * y^1 x^0 (x) y^1 x^0 + (1 + 1*z) * y^2 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=2",
        False,
        "s=2, column 1, target 0: 1 * y^0 x^0 (x) y^2 x^0 + 1 * y^1 x^0 (x) y^1 x^0 + "
        "1 * y^2 x^0 (x) y^0 x^0 versus 1 * y^0 x^0 (x) y^2 x^0 + (-1 + "
        "-1*z) * y^1 x^0 (x) y^1 x^0 + 1*z * y^2 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=3",
        False,
        "s=3, column 1, target 0: -1 * y^0 x^0 (x) y^2 x^0 + 2 * y^1 x^0 (x) y^1 x^0 + "
        "-1 * y^2 x^0 (x) y^0 x^0 versus -1 * y^0 x^0 (x) y^2 x^0 + "
        "-1*z * y^1 x^0 (x) y^1 x^0 + (1 + 1*z) * y^2 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=4",
        False,
        "s=4, column 1, target 0: 1 * y^0 x^0 (x) y^2 x^0 + 1 * y^1 x^0 (x) y^1 x^0 + "
        "1 * y^2 x^0 (x) y^0 x^0 versus 1 * y^0 x^0 (x) y^2 x^0 + (-1 + "
        "-1*z) * y^1 x^0 (x) y^1 x^0 + 1*z * y^2 x^0 (x) y^0 x^0",
    ),
]


EPS_ONE_A2 = [
    ("h_0 recovers the cochain through the augmentation", True, ""),
    (
        "square at s=1",
        False,
        "s=1, column 1, target 0: 1 * y^0 x^0 (x) y^1 x^0 + "
        "-1 * y^1 x^0 (x) y^0 x^0 versus -1 * y^0 x^0 (x) y^1 x^0 + 1 * y^1 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=2",
        False,
        "s=2, column 1, target 0: 1 * y^0 x^0 (x) y^1 x^0 + 1 * y^1 x^0 (x) y^0 x^0 versus "
        "-1 * y^0 x^0 (x) y^1 x^0 + -1 * y^1 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=3",
        False,
        "s=3, column 1, target 0: 1 * y^0 x^0 (x) y^1 x^0 + "
        "-1 * y^1 x^0 (x) y^0 x^0 versus -1 * y^0 x^0 (x) y^1 x^0 + 1 * y^1 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=4",
        False,
        "s=4, column 1, target 0: 1 * y^0 x^0 (x) y^1 x^0 + 1 * y^1 x^0 (x) y^0 x^0 versus "
        "-1 * y^0 x^0 (x) y^1 x^0 + -1 * y^1 x^0 (x) y^0 x^0",
    ),
]


OMEGA_NEGATED_A5_PRIME = [
    ("h_0 recovers the cochain through the augmentation", True, ""),
    ("square at s=1", True, ""),
    (
        "square at s=2",
        False,
        "s=2, column 2, target 0: 8 * y^0 x^0 (x) y^0 x^1 + 1 * y^0 x^1 (x) y^0 x^0 versus "
        "10 * y^0 x^0 (x) y^3 x^4 + 10 * y^0 x^1 (x) y^3 x^3 + 10 * y^0 x^2 (x) y^3 x^2 + "
        "10 * y^0 x^3 (x) y^3 x^1 + 10 * y^0 x^4 (x) y^3 x^0 + 7 * y^1 x^0 (x) y^2 x^4 + "
        "10 * y^1 x^1 (x) y^2 x^3 + 8 * y^1 x^2 (x) y^2 x^2 + 2 * y^1 x^3 (x) y^2 x^1 + "
        "6 * y^1 x^4 (x) y^2 x^0 + 9 * y^2 x^0 (x) y^1 x^4 + 4 * y^2 x^1 (x) y^1 x^3 + "
        "3 * y^2 x^2 (x) y^1 x^2 + 5 * y^2 x^3 (x) y^1 x^1 + 1 * y^2 x^4 (x) y^1 x^0 + "
        "4 * y^3 x^0 (x) y^0 x^4 + 9 * y^3 x^1 (x) y^0 x^3 + 1 * y^3 x^2 (x) y^0 x^2 + "
        "5 * y^3 x^3 (x) y^0 x^1 + 3 * y^3 x^4 (x) y^0 x^0",
    ),
    (
        "square at s=3",
        False,
        "s=3, column 2, target 1: 7 * y^0 x^0 (x) y^4 x^3 + 2 * y^0 x^1 (x) y^4 x^2 + "
        "4 * y^0 x^2 (x) y^4 x^1 + 1 * y^0 x^3 (x) y^4 x^0 + 10 * y^1 x^0 (x) y^3 x^3 + "
        "7 * y^1 x^1 (x) y^3 x^2 + 9 * y^1 x^2 (x) y^3 x^1 + 4 * y^1 x^3 (x) y^3 x^0 + "
        "8 * y^2 x^0 (x) y^2 x^3 + 8 * y^2 x^1 (x) y^2 x^2 + 1 * y^2 x^2 (x) y^2 x^1 + "
        "5 * y^2 x^3 (x) y^2 x^0 + 2 * y^3 x^0 (x) y^1 x^3 + 6 * y^3 x^1 (x) y^1 x^2 + "
        "5 * y^3 x^2 (x) y^1 x^1 + 9 * y^3 x^3 (x) y^1 x^0 + 6 * y^4 x^0 (x) y^0 x^3 + "
        "10 * y^4 x^1 (x) y^0 x^2 + 3 * y^4 x^2 (x) y^0 x^1 + "
        "3 * y^4 x^3 (x) y^0 x^0 versus 10 * y^0 x^0 (x) y^1 x^0 + 1 * y^1 x^0 (x) y^0 x^0",
    ),
    (
        "square at s=4",
        False,
        "s=4, column 2, target 0: 8 * y^0 x^0 (x) y^0 x^1 + 1 * y^0 x^1 (x) y^0 x^0 versus "
        "10 * y^0 x^0 (x) y^3 x^4 + 10 * y^0 x^1 (x) y^3 x^3 + 10 * y^0 x^2 (x) y^3 x^2 + "
        "10 * y^0 x^3 (x) y^3 x^1 + 10 * y^0 x^4 (x) y^3 x^0 + 7 * y^1 x^0 (x) y^2 x^4 + "
        "10 * y^1 x^1 (x) y^2 x^3 + 8 * y^1 x^2 (x) y^2 x^2 + 2 * y^1 x^3 (x) y^2 x^1 + "
        "6 * y^1 x^4 (x) y^2 x^0 + 9 * y^2 x^0 (x) y^1 x^4 + 4 * y^2 x^1 (x) y^1 x^3 + "
        "3 * y^2 x^2 (x) y^1 x^2 + 5 * y^2 x^3 (x) y^1 x^1 + 1 * y^2 x^4 (x) y^1 x^0 + "
        "4 * y^3 x^0 (x) y^0 x^4 + 9 * y^3 x^1 (x) y^0 x^3 + 1 * y^3 x^2 (x) y^0 x^2 + "
        "5 * y^3 x^3 (x) y^0 x^1 + 3 * y^3 x^4 (x) y^0 x^0",
    ),
]


BROKEN_D3_A3 = [
    ("two-band shape", True, ""),
    ("augmentation composes to zero", True, ""),
    ("d.d = 0 at degree 3", False, "nonzero entry at (0, 1)"),
    ("minimality (entries in the radical)", True, ""),
    ("simplified variant agrees with general form", False, "degree 3"),
]


UNIT_ON_D1_A3 = [
    ("two-band shape", True, ""),
    ("augmentation composes to zero", False, "mu . d_1 != 0 on f1_0: 1 * y^0 x^0"),
    ("d.d = 0 at degree 2", False, "nonzero entry at (0, 0)"),
    ("minimality (entries in the radical)", False, "degree 1, entry (0, 0) is not in the radical"),
    ("simplified variant agrees with general form", False, "degree 1"),
    ("exactness at P_0 (im d_1 = ker mu)", False, "rank mu = 9, rank d_1 = 81, dim ker mu = 72"),
    ("exactness at P_1", False, "dim ker d_1 = 81, dim im d_2 = 90"),
    ("exactness at P_2", True, "dim ker d_2 = 153, dim im d_3 = 153"),
]


OFF_BAND_D2_A3 = [
    ("two-band shape", False, "degree 2, entry (0, 2) is off the two bands"),
    ("augmentation composes to zero", True, ""),
    ("d.d = 0 at degree 2", False, "nonzero entry at (0, 2)"),
    ("minimality (entries in the radical)", True, ""),
    ("simplified variant agrees with general form", True, ""),
]


EXTRA_H0_ENTRY_A3_PRIME = [
    ("h_0 recovers the cochain through the augmentation", False, "f2_2: 1 * y^0 x^1 versus 0"),
    (
        "square at s=1",
        False,
        "s=1, column 2, target 0: 4 * y^0 x^0 (x) y^0 x^2 + 2 * y^0 x^1 (x) y^0 x^1 + "
        "1 * y^0 x^2 (x) y^0 x^0 versus 4 * y^0 x^0 (x) y^0 x^2 + 2 * y^0 x^1 (x) y^0 x^1 + "
        "1 * y^0 x^1 (x) y^1 x^0 + 1 * y^0 x^2 (x) y^0 x^0 + 6 * y^1 x^1 (x) y^0 x^0",
    ),
    ("square at s=2", True, ""),
]


def test_wrong_eps_y_weight_report():
    A = QuantumCompleteIntersection(3, cyclotomic_field(3))
    family = build_lifting(A, unit_values(A, 2, 1), 4, _eps_y=-beta_element(A, "y", 1))
    assert verify_lifting(family).checks == EPS_Y_S1_A3_CYCLOTOMIC


def test_unit_odd_level_factors_report_a2():
    A = QuantumCompleteIntersection(2, cyclotomic_field(2))
    one = A.env_one()
    family = build_lifting(A, unit_values(A, 2, 1), 4, _eps_x=one, _eps_y=one)
    assert verify_lifting(family).checks == EPS_ONE_A2


def test_negated_omega_report_prime():
    A = QuantumCompleteIntersection(5, prime_field_for(5))
    family = build_lifting(A, unit_values(A, 2, 1), 4, _omega_plus=-A.env_one())
    assert verify_lifting(family).checks == OMEGA_NEGATED_A5_PRIME


def test_broken_differential_report(monkeypatch):
    general = resolution._general_column

    def broken(A, n, i):
        diag, sub = general(A, n, i)
        return (diag.scale(A.q), sub) if (n, i) == (3, 1) else (diag, sub)

    monkeypatch.setattr(resolution, "_general_column", broken)
    A = QuantumCompleteIntersection(3, cyclotomic_field(3))  # a fresh context: nothing cached
    assert verify_resolution(A, 4, exactness_max=0).checks == BROKEN_D3_A3


def test_unit_on_d1_diagonal_report(monkeypatch):
    general = resolution._general_column

    def broken(A, n, i):
        diag, sub = general(A, n, i)
        return (diag + A.env_one(), sub) if (n, i) == (1, 0) else (diag, sub)

    monkeypatch.setattr(resolution, "_general_column", broken)
    A = QuantumCompleteIntersection(3, cyclotomic_field(3))
    assert verify_resolution(A, 4, exactness_max=2).checks == UNIT_ON_D1_A3


def test_off_band_entry_report(monkeypatch):
    differential = resolution.differential

    def broken(A, n, variant=GENERAL):
        d = differential(A, n, variant)
        return {**d, (0, 2): structure_element(A, TAU_X, 0)} if n == 2 else d

    monkeypatch.setattr(resolution, "differential", broken)
    A = QuantumCompleteIntersection(3, cyclotomic_field(3))
    assert verify_resolution(A, 3, exactness_max=0).checks == OFF_BAND_D2_A3


def test_extra_h0_entry_report():
    A = QuantumCompleteIntersection(3, prime_field_for(3))
    family = build_lifting(A, unit_values(A, 2, 1), 2)
    family.maps[0][(0, 2)] = A.env_tensor((0, 1), (0, 0))
    assert verify_lifting(family).checks == EXTRA_H0_ENTRY_A3_PRIME
