import math

import numpy as np
import pytest

from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    ParamsError,
    PotentialError,
    TablePotential,
    build_grid,
    coupling_margin_bounds,
    load_potential_table_csv,
    make_params,
    potential_matrix,
    validate_potential,
)
from bcsgap.quadrature import gap_kernel


def test_make_params_accepts_default_style_values():
    p = make_params(1.0, 0.005, 1.0, 0.29, 0.31)
    # direct evaluation of the validity factor: 0.005 * e^{1/0.29} ~ 0.157 < 1
    assert 0.005 * math.exp(1.0 / 0.29) < 1.0
    assert p.u_lower == 0.29


def test_make_params_rejects_closed_form_violation():
    # 0.2 * e^{1/0.29} ~ 6.29 > 1: the named factor must appear in the error
    with pytest.raises(ParamsError, match=r"closed_form_validity\[U1\]"):
        make_params(1.0, 0.2, 1.0, 0.29, 0.31)


def test_make_params_rejects_missing_tau_root():
    # U1 * ln(1/0.5) ~ 0.69 < 1
    with pytest.raises(ParamsError, match="tau_existence"):
        make_params(1.0, 0.5, 1.0, 1.0, 2.0)


def test_make_params_rejects_bad_orderings_by_name():
    with pytest.raises(ParamsError, match="cutoff_ordering"):
        make_params(1.0, 1.5, 1.0, 0.29, 0.31)
    with pytest.raises(ParamsError, match="coupling_ordering"):
        make_params(1.0, 0.005, 1.0, 0.31, 0.29)
    with pytest.raises(ParamsError, match="density_of_states"):
        make_params(1.0, 0.005, -1.0, 0.29, 0.31)
    with pytest.raises(ParamsError, match="finite"):
        make_params(float("nan"), 0.005, 1.0, 0.29, 0.31)


def test_coupling_margin_bounds():
    u1, u2 = coupling_margin_bounds(0.3)
    assert u1 == pytest.approx(0.291, rel=1e-15)
    assert u2 == pytest.approx(0.309, rel=1e-15)


def test_eval_potential_constant():
    pot = ConstantPotential(0.3)
    for x, xi in [(0.005, 0.005), (0.3, 0.9), (1.0, 1.0)]:
        assert potential_matrix(pot, x, xi)[0, 0] == 0.3


def test_eval_potential_gaussian_on_diagonal():
    pot = GaussianBumpPotential(base=0.30, amplitude=0.005, width=0.2)
    assert potential_matrix(pot, 0.4, 0.4)[0, 0] == pytest.approx(0.305, rel=1e-15)


def _example_table(params):
    x = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 5)
    xi = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 7)
    vals = 0.30 + 0.004 * np.sin(np.outer(x, xi) * 3.0)
    return TablePotential(x, xi, vals)


def test_table_interpolation_faithful_at_nodes(params):
    table = _example_table(params)
    interp = potential_matrix(table, table.x_nodes, table.xi_nodes)
    # max error at the stored lattice is exactly zero
    assert np.max(np.abs(interp - table.values)) == 0.0


def test_table_evaluation_continuous_between_nodes(params):
    table = _example_table(params)
    x0, x1 = table.x_nodes[1], table.x_nodes[2]
    mid = x0 * 0.5 + x1 * 0.5
    left, right = potential_matrix(table, [mid - 1e-10, mid + 1e-10], 0.4)[:, 0]
    assert abs(left - right) < 1e-8


def test_validate_potential_band(params):
    validate_potential(ConstantPotential(0.3), params)
    with pytest.raises(PotentialError, match="open coupling band"):
        validate_potential(ConstantPotential(0.309), params)  # not strictly inside
    with pytest.raises(PotentialError, match="open coupling band"):
        validate_potential(ConstantPotential(0.5), params)


@pytest.mark.parametrize("width", [0.0, math.nan])
def test_validate_potential_refuses_a_bump_of_no_width(width, params):
    # width 0 or NaN defines no U: the parent evaluated it anyway, warned
    # and reported the range [nan, nan]
    with pytest.raises(PotentialError, match=r"bump width = (0\.0|nan) must be nonzero"):
        validate_potential(GaussianBumpPotential(0.3, 0.005, width), params)


@pytest.mark.parametrize("width", [math.inf, -0.2])
def test_validate_potential_accepts_an_infinite_or_negative_width(width, params):
    validate_potential(GaussianBumpPotential(0.3, 0.005, width), params)


def test_validate_potential_table_nodes(params):
    good = _example_table(params)
    validate_potential(good, params)
    bad_span = TablePotential(
        np.linspace(0.1, 1.0, 4), good.xi_nodes, np.full((4, 7), 0.3)
    )
    with pytest.raises(PotentialError, match="does not span"):
        validate_potential(bad_span, params)
    bad_order = TablePotential(
        np.array([0.005, 0.004, 1.0]), good.xi_nodes, np.full((3, 7), 0.3)
    )
    with pytest.raises(PotentialError, match="strictly increasing"):
        validate_potential(bad_order, params)
    # six values a row for seven xi nodes
    bad_shape = TablePotential(good.x_nodes, good.xi_nodes, np.full((5, 6), 0.3))
    with pytest.raises(PotentialError, match="table value matrix shape does not match nodes"):
        validate_potential(bad_shape, params)


def _spike_table():
    # 0.3 everywhere but one node at 0.33, above U2 = 0.309, whose hat
    # function is 2e-4 wide: a sampling lattice of the domain misses it
    nodes = np.array([0.0, 0.4999, 0.5, 0.5001, 1.0])
    values = np.full((5, 5), 0.3)
    values[2, 2] = 0.33
    return TablePotential(nodes, nodes, values)


def test_validate_potential_refuses_a_table_node_above_the_band(params):
    with pytest.raises(
        PotentialError,
        match=r"potential range \[0\.3, 0\.33\] leaves the open coupling band",
    ):
        validate_potential(_spike_table(), params)


@pytest.mark.parametrize(
    "spec",
    [
        GaussianBumpPotential(base=0.3, amplitude=0.005, width=0.2),
        GaussianBumpPotential(base=0.3, amplitude=-0.005, width=0.2),
    ],
    ids=["bump", "dip"],
)
def test_validate_potential_checks_a_gaussian_at_its_extremes(spec, params):
    # the Gaussian factor depends only on |x - xi|, so over the domain it is
    # largest on the diagonal and smallest at the far corners: a fine scan
    # finds nothing beyond the corner values, and a band that leaves out
    # either of them refuses the potential
    lo, hi = params.epsilon_cutoff, params.hbar_omega_d
    corners = potential_matrix(spec, [lo, hi], [lo, hi])
    fine = np.linspace(lo, hi, 1001)
    scan = potential_matrix(spec, fine, fine)
    vmin, vmax = float(corners.min()), float(corners.max())
    assert (scan.min(), scan.max()) == (vmin, vmax)
    inside = (np.nextafter(vmin, 0.0), np.nextafter(vmax, 1.0))
    validate_potential(spec, make_params(1.0, lo, 1.0, *inside))
    for band in ((vmin, inside[1]), (inside[0], vmax)):
        with pytest.raises(PotentialError, match="open coupling band"):
            validate_potential(spec, make_params(1.0, lo, 1.0, *band))


def test_load_potential_csv_round_trip(tmp_path, params):
    table = _example_table(params)
    rows = ["x,xi,u"]
    for i, x in enumerate(table.x_nodes):
        for j, xi in enumerate(table.xi_nodes):
            rows.append(f"{float(x)!r},{float(xi)!r},{float(table.values[i, j])!r}")
    path = tmp_path / "pot.csv"
    path.write_text("\n".join(rows) + "\n")
    loaded = load_potential_table_csv(path)
    assert np.array_equal(loaded.values, table.values)
    assert np.array_equal(loaded.x_nodes, table.x_nodes)


def test_load_potential_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(PotentialError, match="expected header"):
        load_potential_table_csv(path)


def test_load_potential_csv_rejects_ragged_lattice(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,xi,u\n0.1,0.1,0.3\n0.1,0.2,0.3\n0.2,0.1,0.3\n")
    with pytest.raises(PotentialError, match="full"):
        load_potential_table_csv(path)


def _write_table_csv(path, x, xi, values, fmt=repr, xi_major=False):
    pairs = [(i, j) for i in range(x.size) for j in range(xi.size)]
    if xi_major:
        pairs.sort(key=lambda ij: (ij[1], ij[0]))
    rows = ["x,xi,u"] + [
        f"{fmt(float(x[i]))},{fmt(float(xi[j]))},{fmt(float(values[i, j]))}"
        for i, j in pairs
    ]
    path.write_text("\n".join(rows) + "\n")


def _read_table_by_float(path):
    # the reference reader: float() per field, nodes in order of first
    # appearance, values reshaped x-major
    lines = path.read_text().splitlines()[1:]
    records = [tuple(float(c) for c in line.split(",")) for line in lines]
    xs = list(dict.fromkeys(r[0] for r in records))
    xis = list(dict.fromkeys(r[1] for r in records))
    values = np.array([r[2] for r in records]).reshape(len(xs), len(xis))
    return np.array(xs), np.array(xis), values


def _random_table():
    rng = np.random.default_rng(20)
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 0.99, 11)), [1.0]))
    xi = np.concatenate(([1e-3], np.geomspace(4e-3, 0.9, 6), [1.25]))
    values = 0.3 + 1e-3 * rng.standard_normal((x.size, xi.size))
    values[0, 0] = 0.3 + 2.0**-40
    return TablePotential(x, xi, values)


@pytest.mark.parametrize(
    "fmt", [repr, "{:.17g}".format, "{:.6e}".format, "{:.4f}".format]
)
@pytest.mark.parametrize("which", ["example", "spike", "random"])
def test_load_potential_csv_matches_a_float_per_field_reader(
    which, fmt, tmp_path, params
):
    table = {
        "example": lambda: _example_table(params),
        "spike": _spike_table,
        "random": _random_table,
    }[which]()
    path = tmp_path / "pot.csv"
    _write_table_csv(path, table.x_nodes, table.xi_nodes, table.values, fmt)
    loaded = load_potential_table_csv(path)
    x, xi, values = _read_table_by_float(path)
    assert np.array_equal(loaded.x_nodes, x)
    assert np.array_equal(loaded.xi_nodes, xi)
    assert loaded.values.tobytes() == values.tobytes()


def test_load_potential_csv_rejects_xi_major_rows(tmp_path):
    # a 3 x 2 table written xi-major has the rows of a full lattice, and
    # reshaping them x-major would transpose its values
    x, xi = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])
    values = np.array([[0.30, 0.301], [0.302, 0.303], [0.304, 0.305]])
    path = tmp_path / "pot.csv"
    _write_table_csv(path, x, xi, values, xi_major=True)
    with pytest.raises(PotentialError, match="x-major"):
        load_potential_table_csv(path)
    _write_table_csv(path, x, xi, values)
    assert np.array_equal(load_potential_table_csv(path).values, values)


def test_load_potential_csv_rejects_an_empty_body(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,xi,u\n")
    with pytest.raises(PotentialError, match="no rows"):
        load_potential_table_csv(path)


def test_build_grid_two_point_panel(params):
    g = build_grid(params, panels=1, order=2)
    a, b = params.epsilon_cutoff, params.hbar_omega_d
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    expected = mid + half * np.array([-1.0, 1.0]) / math.sqrt(3.0)
    assert g.nodes == pytest.approx(expected, rel=1e-15)
    assert g.weights.sum() == pytest.approx(b - a, rel=1e-15)


def test_build_grid_weight_sum_and_moments(grid, params):
    a, b = params.epsilon_cutoff, params.hbar_omega_d
    assert grid.weights.sum() == pytest.approx(b - a, rel=1e-12)
    assert grid.weights @ grid.nodes == pytest.approx((b * b - a * a) / 2, rel=1e-14)
    assert grid.weights @ grid.nodes**2 == pytest.approx((b**3 - a**3) / 3, rel=1e-12)


def test_build_grid_validates_arguments(params):
    with pytest.raises(ValueError):
        build_grid(params, panels=0)
    with pytest.raises(ValueError):
        build_grid(params, order=1)


def test_grid_doubling_stable_for_gap_integrand(params):
    # the transition-region integrand must be converged at default resolution
    coarse = build_grid(params, panels=16, order=10)
    fine = build_grid(params, panels=32, order=10)
    for t in (0.03, 0.034, 0.038, 0.042, 0.05):
        i_coarse = coarse.weights @ gap_kernel(coarse.nodes, 0.0, t)
        i_fine = fine.weights @ gap_kernel(fine.nodes, 0.0, t)
        assert abs(i_fine - i_coarse) <= max(1e-12, 1e-10 * abs(i_fine))


def test_grid_nodes_strictly_increasing_with_positive_weights(grid):
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
