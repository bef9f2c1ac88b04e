"""Physical parameters, interaction potentials and the shared energy grid,
an ``EnergyGrid`` of geometric panels (``build_grid``).

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across
parallel temperature sweeps.  Units: k_B = 1, so temperatures and energies
share one unit.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .quadrature import EnergyGrid

__all__ = [
    "ParamsError",
    "PotentialError",
    "PhysicalParams",
    "make_params",
    "coupling_margin_bounds",
    "ConstantPotential",
    "TablePotential",
    "GaussianBumpPotential",
    "PotentialSpec",
    "potential_matrix",
    "extreme_points",
    "validate_potential",
    "load_potential_table_csv",
    "build_grid",
]

class ParamsError(ValueError):
    """Raised when physical parameters violate a standing assumption."""


class PotentialError(ValueError):
    """Raised when a potential leaves its admissible coupling band."""


class PhysicalParams(Record):
    """Debye energy, infrared cutoff, density of states, coupling bounds."""

    hbar_omega_d: float
    epsilon_cutoff: float
    n0_dos: float
    u_lower: float
    u_upper: float

    def closed_form_factor(self, u: float) -> float:
        """hbar_omega_d - epsilon * e^{1/u}; must be positive for the
        zero-temperature gap closed form to be real."""
        return self.hbar_omega_d - self.epsilon_cutoff * math.exp(1.0 / u)


def make_params(
    hbar_omega_d: float,
    epsilon_cutoff: float,
    n0_dos: float,
    u_lower: float,
    u_upper: float,
) -> PhysicalParams:
    """Validate raw values and build PhysicalParams.

    Every violated invariant is reported by name in a single error.
    """
    raw = (hbar_omega_d, epsilon_cutoff, n0_dos, u_lower, u_upper)
    if not all(math.isfinite(x) for x in raw):
        raise ParamsError("all parameters must be finite")

    p = PhysicalParams(hbar_omega_d, epsilon_cutoff, n0_dos, u_lower, u_upper)
    problems: list[str] = []
    if not (0.0 < epsilon_cutoff < hbar_omega_d):
        problems.append(
            f"cutoff_ordering: need 0 < epsilon ({epsilon_cutoff!r}) "
            f"< hbar_omega_d ({hbar_omega_d!r})"
        )
    if not n0_dos > 0.0:
        problems.append(f"density_of_states: N0 ({n0_dos!r}) must be > 0")
    if not (0.0 < u_lower < u_upper):
        problems.append(
            f"coupling_ordering: need 0 < U1 ({u_lower!r}) < U2 ({u_upper!r})"
        )
    else:
        if 0.0 < epsilon_cutoff < hbar_omega_d:
            for name, u in (("U1", u_lower), ("U2", u_upper)):
                factor = p.closed_form_factor(u)
                if not factor > 0.0:
                    problems.append(
                        f"closed_form_validity[{name}]: factor "
                        f"hbar_omega_d - epsilon*e^(1/{name}) = {factor!r} <= 0"
                    )
            span = u_lower * math.log(hbar_omega_d / epsilon_cutoff)
            if not span > 1.0:
                problems.append(
                    f"tau_existence: U1*ln(hbar_omega_d/epsilon) = {span!r} <= 1, "
                    "the linearised gap equation has no root"
                )
    if problems:
        raise ParamsError("; ".join(problems))
    return p


def coupling_margin_bounds(u0: float, margin: float = 0.03) -> tuple[float, float]:
    """Strict coupling band around a constant coupling value.

    Used when a run specifies only the constant potential: the envelope
    bounds must hold strictly, so a small margin is imposed and recorded.
    """
    if not (u0 > 0 and 0 < margin < 1):
        raise ParamsError("need u0 > 0 and 0 < margin < 1")
    return u0 * (1.0 - margin), u0 * (1.0 + margin)


# ---------------------------------------------------------------------------
# potentials


class ConstantPotential(Record):
    u0: float


class TablePotential(Record):
    """Tabulated kernel with bilinear interpolation between lattice nodes."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    values: np.ndarray  # shape (len(x_nodes), len(xi_nodes))

    def __post_init__(self):
        object.__setattr__(self, "x_nodes", np.asarray(self.x_nodes, dtype=float))
        object.__setattr__(self, "xi_nodes", np.asarray(self.xi_nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


class GaussianBumpPotential(Record):
    """base + amplitude * exp(-(x - xi)^2 / (2 width^2))."""

    base: float
    amplitude: float
    width: float

    def bump(self, dx):
        """U - base at the offsets dx = x - xi."""
        return self.amplitude * np.exp(-dx * dx / (2.0 * self.width**2))


PotentialSpec = ConstantPotential | TablePotential | GaussianBumpPotential


def _cells(nodes: np.ndarray, x):
    """Index i of the node interval holding x, and x's offset t in it as a
    fraction of its length; the end intervals extend linearly beyond."""
    i = np.clip(np.searchsorted(nodes, x) - 1, 0, nodes.size - 2)
    return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def _bilinear(table: TablePotential, x, xi):
    v = table.values
    i, tx = _cells(table.x_nodes, x)
    j, ty = _cells(table.xi_nodes, xi)
    return (
        v[i, j] * (1 - tx) * (1 - ty)
        + v[i + 1, j] * tx * (1 - ty)
        + v[i, j + 1] * (1 - tx) * ty
        + v[i + 1, j + 1] * tx * ty
    )


def potential_matrix(spec: PotentialSpec, x, xi) -> np.ndarray:
    """Kernel values on the outer product of x and xi samples (no domain check)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if isinstance(spec, ConstantPotential):
        return np.full((x.size, xi.size), spec.u0)
    if isinstance(spec, GaussianBumpPotential):
        return spec.base + spec.bump(x[:, None] - xi[None, :])
    if isinstance(spec, TablePotential):
        xm, ym = np.meshgrid(x, xi, indexing="ij")
        return _bilinear(spec, xm, ym)
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def extreme_points(spec: PotentialSpec, axis: int, a: float, b: float) -> np.ndarray:
    """Where U's extremes along ``axis`` (0: x, 1: xi) can lie on [a, b],
    increasing: the two ends, and a table's nodes strictly inside, between
    which the table is linear along that axis."""
    if not isinstance(spec, TablePotential):
        return np.array([a, b])
    nodes = (spec.x_nodes, spec.xi_nodes)[axis]
    return np.concatenate(([a], nodes[(a < nodes) & (nodes < b)], [b]))


def validate_potential(spec: PotentialSpec, params: PhysicalParams) -> None:
    """Check the kernel lies strictly inside (U1, U2) on all of
    [eps, hbar_omega_d]^2, exactly: U is evaluated on both axes'
    ``extreme_points``, where its extremes lie.  A constant is flat.  A
    bump's Gaussian factor depends only on |x - xi|, so it peaks on the
    diagonal (at the corners (eps, eps) among others) and bottoms out at
    the far corners.  A bilinear table is linear along each axis inside a
    cell, so its extremes lie on cell corners: its nodes, and the domain's
    ends where they cut its cells.  A bump's width of 0 or NaN defines no U
    and is refused by name; an infinite width gives a constant, and a
    negative one acts as its absolute value.
    """
    lo, hi = params.epsilon_cutoff, params.hbar_omega_d
    if isinstance(spec, GaussianBumpPotential) and not abs(spec.width) > 0.0:
        raise PotentialError(f"bump width = {spec.width!r} must be nonzero and not NaN")
    if isinstance(spec, TablePotential):
        for name, nodes in (("x_nodes", spec.x_nodes), ("xi_nodes", spec.xi_nodes)):
            if nodes.ndim != 1 or nodes.size < 2 or not np.all(np.diff(nodes) > 0):
                raise PotentialError(f"table {name} must be strictly increasing")
            if not (nodes[0] <= lo and nodes[-1] >= hi):
                raise PotentialError(
                    f"table {name} [{nodes[0]!r}, {nodes[-1]!r}] does not span "
                    f"the energy domain [{lo!r}, {hi!r}]"
                )
        if spec.values.shape != (spec.x_nodes.size, spec.xi_nodes.size):
            raise PotentialError("table value matrix shape does not match nodes")
    vals = potential_matrix(
        spec, extreme_points(spec, 0, lo, hi), extreme_points(spec, 1, lo, hi)
    )
    vmin, vmax = float(vals.min()), float(vals.max())
    if not (params.u_lower < vmin and vmax < params.u_upper):
        raise PotentialError(
            f"potential range [{vmin!r}, {vmax!r}] leaves the open coupling band "
            f"({params.u_lower!r}, {params.u_upper!r})"
        )


def load_potential_table_csv(path) -> TablePotential:
    """Read a tabulated kernel from CSV with header x,xi,u, x-major: every
    xi node for the first x node, then for the next.  The nodes are taken
    in order of first appearance; a file not in exactly that order (rows
    missing or repeated, or xi-major) is refused, not read transposed."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        if header != ["x", "xi", "u"]:
            raise PotentialError(f"expected header x,xi,u, got {header!r}")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise PotentialError("table has no rows")
    x, xi, u = np.loadtxt(rows, delimiter=",", ndmin=2, unpack=True)
    x_nodes, xi_nodes = (np.array(list(dict.fromkeys(c.tolist()))) for c in (x, xi))
    if not (
        np.array_equal(x, np.repeat(x_nodes, xi_nodes.size))
        and np.array_equal(xi, np.tile(xi_nodes, x_nodes.size))
    ):
        raise PotentialError(
            f"{x.size} rows do not form a full {x_nodes.size}x{xi_nodes.size} "
            "lattice in x-major order"
        )
    return TablePotential(x_nodes, xi_nodes, u.reshape(x_nodes.size, xi_nodes.size))


# ---------------------------------------------------------------------------
# energy grid


def build_grid(params: PhysicalParams, panels: int = 16, order: int = 10) -> EnergyGrid:
    """Build the shared quadrature grid, panels log-spaced toward the cutoff.

    Log spacing concentrates nodes near xi = epsilon where the 1/xi-type
    integrands vary fastest.
    """
    if panels < 1:
        raise ValueError("panels must be >= 1")
    return EnergyGrid(np.geomspace(params.epsilon_cutoff, params.hbar_omega_d, panels + 1), order)
