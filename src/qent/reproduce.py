"""The paper's reference tables and curves, as data.

:data:`TABLES` maps each table id to a :class:`Table`: its kind
(``"table"`` or ``"curve"``, which sets the default tolerance of the golden
diff), its column names, its parameter points and the function that turns all
of its points into its output rows.  :func:`qent.cli.reproduce` regenerates
an entry and diffs it against the golden file of the same id.

A curve is computed as a stack: its states are validated together, and the
figure-6 curves fill their partial-transpose spectra and realignment norms
with one stacked solve each (:func:`qent.linalg.fill_spectra`) before the
measures read them.  Each row has the bits of its point computed alone.

The parameter points and grid expressions are the ones the golden files were
generated from; changing how a point is computed changes its last bits.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .classify3 import CanonicalThreeQubit, ghz_witness_value, slocc_classify
from .detect import Outcome, concurrence_bounds, criterion2, witness_from_pure
from .linalg import expectation, fill_spectra
from .measures import concurrence_lb_chen, negativity, structured_negativity
from .spa import spa_pt_qutrit_qubit, spa_pt_two_qubit, spa_witness
from .states import (
    _amplitudes,
    mems_state,
    qutrit_qubit_alpha_state,
    two_qutrit_a_state,
    two_qutrit_alpha_state,
    werner_state,
    x_state,
    x_state_concurrence,
)


class Table(NamedTuple):
    """One reference table or curve: ``rows(points)`` gives one row per point."""

    kind: str
    columns: tuple
    points: tuple
    rows: Callable

    def generate(self):
        return {"columns": list(self.columns), "rows": self.rows(self.points)}


def _each(row):
    """``rows`` of a table whose points are computed one at a time."""
    return lambda points: [row(p) for p in points]


def _x_witness_avg(a, b, f):
    """Tr(W_tilde rho) for the symmetric X family and its tuned witness."""
    rho = x_state(a, b, f)
    psi = _amplitudes(4, {0: -f / abs(f), 3: 1.0}) / np.sqrt(2.0)
    sw = spa_witness(witness_from_pure(psi, 1, [2, 2]), 2, 2)
    return rho, float(expectation(sw.w_tilde, rho))


def _row_2_1(point):
    a, b, f = point
    _, favg = _x_witness_avg(a, b, f)
    return [a, b, f.real, f.imag, favg]


def _row_2_2(point):
    a, b, f = point
    rho, favg = _x_witness_avg(a, b, f)
    upper = float(expectation(spa_pt_two_qubit(rho).rho_tilde.mat, rho))
    return [a, b, f.real, f.imag, favg, upper, x_state_concurrence(a, f)]


def _row_2_3(point):
    a, b, f = point
    rho = x_state(a, b, f)
    spa = spa_pt_two_qubit(rho)
    lam = float(spa.rho_tilde.spectrum.eigenvalues[0])
    v = criterion2(rho, spa, x_state_concurrence(a, f))
    return [a, b, f.real, f.imag, lam,
            1.0 if v.outcome is Outcome.ConditionSatisfied else 0.0]


def _row_3_1(point):
    a, c, p = point
    b = np.sqrt(1.0 - a * a)
    d = np.sqrt(1.0 - c * c)
    params = CanonicalThreeQubit(np.sqrt(p) * a, 0.0, np.sqrt(1.0 - p) * d,
                                 np.sqrt(1.0 - p) * c, np.sqrt(p) * b)
    return [a, c, p] + [ghz_witness_value(params, h) for h in ("H4", "H5", "H6")]


def _slocc_lambdas(slots, amplitudes):
    return slocc_classify(_amplitudes(8, dict(zip(slots, amplitudes)))).lambdas


def _row_5_1(point):
    lams = _slocc_lambdas((0, 4, 7), point)
    return list(point) + [lams[0], lams[1], max(lams)]


def _row_5_2(point):
    lams = _slocc_lambdas((1, 5, 7), point)
    return list(point) + [lams[0], lams[2]]


def _qutrit_qubit_witness(alpha):
    """SPA witness (p = 1/4) for the qutrit-qubit alpha family."""
    kappa = (alpha + np.sqrt(4.0 - 8.0 * alpha + 5.0 * alpha ** 2)) / (2.0 * (1.0 - alpha))
    chi = _amplitudes(6, {3: -kappa, 4: 1.0})      # |11> and |20> in the 3x2 basis
    chi /= np.linalg.norm(chi)
    return spa_witness(witness_from_pure(chi, 1, [3, 2]), 3, 2, p=0.25)


def _rows_fig2_1(alphas):
    states = qutrit_qubit_alpha_state(np.array(alphas))
    bounds = (concurrence_bounds(rho, _qutrit_qubit_witness(alpha), spa)
              for alpha, rho, spa in zip(alphas, states, spa_pt_qutrit_qubit(states)))
    return [[alpha, b.lower, b.upper] for alpha, b in zip(alphas, bounds)]


def _measure_curve(family):
    """Rows of a figure-6 curve: each point, then three measures of its state."""
    def rows(xs):
        states = family(np.array(xs))
        fill_spectra(states)
        return [[x, negativity(rho).value, structured_negativity(rho).value,
                 concurrence_lb_chen(rho).value] for x, rho in zip(xs, states)]
    return rows


_X_COLUMNS = ("a", "b", "re_f", "im_f")
_T22_POINTS = ((0.05, 0.45, 0.2 + 0.2j), (0.1, 0.4, 0.25 + 0.25j),
               (0.15, 0.35, 0.24 + 0.2j), (0.2, 0.3, 0.27 + 0.13j))
_LO = 1.0 / np.sqrt(2.0)

TABLES = {
    "2.1": Table("table", _X_COLUMNS + ("F_avg_witness",),
                 ((0.05, 0.45, 0.4 + 0.1j), (0.1, 0.4, 0.25 + 0.25j),
                  (0.15, 0.35, 0.24 + 0.2j), (0.2, 0.3, 0.27 + 0.13j)), _each(_row_2_1)),
    "2.2": Table("table", _X_COLUMNS + ("F_avg_witness", "F_avg_spa", "concurrence"),
                 _T22_POINTS, _each(_row_2_2)),
    "2.3": Table("table", _X_COLUMNS + ("lambda_min", "criterion2_ok"),
                 _T22_POINTS, _each(_row_2_3)),
    "3.1": Table("table", ("a", "c", "p", "H4", "H5", "H6"),
                 ((0.8, 0.3, 0.2955), (0.9, 0.4, 0.559), (0.91, 0.8, 0.455),
                  (0.85, 0.35, 0.44), (0.88, 0.8, 0.3175), (0.78, 0.3, 0.214),
                  (0.95, 0.4, 0.695), (0.83, 0.45, 0.285)), _each(_row_3_1)),
    "5.1": Table("table", ("l0", "l1", "l2", "lam_A", "lam_BC", "lam_max"),
                 ((0.7, 0.1, 0.707107), (0.3, 0.4, 0.866), (0.7, 0.3, 0.648),
                  (0.1, 0.2, 0.9747), (0.2, 0.4, 0.8944)), _each(_row_5_1)),
    "5.2": Table("table", ("l0", "l1", "l2", "lam_AB", "lam_C"),
                 ((0.1, 0.4, 0.911), (0.2, 0.4, 0.8944), (0.6, 0.1, 0.7937),
                  (0.5, 0.4, 0.7681)), _each(_row_5_2)),
    "fig2.1": Table("curve", ("alpha", "concurrence_lower", "concurrence_upper"),
                    tuple(i / 20.0 for i in range(20)), _rows_fig2_1),
}

# Figure 6: id -> (parameter column, state family, grid).
_FIG6 = {
    "fig6.1": ("F", werner_state, [0.35 + 0.05 * i for i in range(14)]),
    "fig6.2": ("C", mems_state, [2.0 / 3.0 + (1.0 / 3.0) * i / 10.0 for i in range(11)]),
    "fig6.3": ("C", mems_state, [(2.0 / 3.0) * i / 10.0 for i in range(11)]),
    "fig6.4": ("a", two_qutrit_a_state, [_LO + (1.0 - _LO) * i / 10.0 for i in range(11)]),
    "fig6.5": ("alpha", two_qutrit_alpha_state, [4.0 + i / 10.0 for i in range(11)]),
}
TABLES.update(
    (table_id, Table("curve", (column, "negativity", "structured_negativity",
                               "concurrence_lb"), tuple(grid), _measure_curve(family)))
    for table_id, (column, family, grid) in _FIG6.items()
)
