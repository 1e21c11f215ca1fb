"""Initial-condition descriptors and their sampling onto grids.

A descriptor can be re-sampled on any grid, which is what the spatial
convergence studies need.  The ``file`` kind ingests the two-column CSV
snapshots written by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, GridMismatch, ValidationError
from .errors import _check_choice, _check_int, _check_real
from .spectral import GridSpec, SpectralState, to_spectral

__all__ = ["InitialConditionSpec", "build_initial"]

IC_KINDS = ("paper", "constant", "mode", "file")


@dataclass(frozen=True)
class InitialConditionSpec:
    """Which initial profile to sample.

    ``paper``    -> 1/2 + (1/4)*sin(x)
    ``constant`` -> uniform value ``c``
    ``mode``     -> mode_offset + mode_amp*sin(mode_k*(2*pi/L)*(x-a))
    ``file``     -> two-column CSV whose abscissae must match the grid
    """

    kind: str = "paper"
    c: float = 0.0
    mode_k: int = 1
    mode_amp: float = 1.0
    mode_offset: float = 0.0
    path: str = ""

    def __post_init__(self):
        _check_choice(ValidationError, "ic.kind", self.kind, IC_KINDS)
        if self.kind == "file" and not self.path:
            raise ValidationError("ic.path", "required for ic.kind = file")
        for name in ("c", "mode_amp", "mode_offset"):
            _check_real(ValidationError, f"ic.{name}", getattr(self, name))
        _check_int(ValidationError, "ic.mode_k", self.mode_k)


def _read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError("ic.path", f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().replace(" ", "") == "x,y":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected 'x,y' pair, got {line!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: non-numeric entry") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise FileFormatError(f"{path}:{lineno}: non-finite entry")
            xs.append(x)
            ys.append(y)
    return np.asarray(xs), np.asarray(ys)


def build_initial(ic: InitialConditionSpec, grid: GridSpec) -> SpectralState:
    """Sample the descriptor on the grid and transform it."""
    x = grid.points
    if ic.kind == "paper":
        values = 0.5 + 0.25 * np.sin(x)
    elif ic.kind == "constant":
        values = np.full(grid.n_modes, ic.c)
    elif ic.kind == "mode":
        phase = ic.mode_k * grid.wavenumber_scale * (x - grid.domain_start)
        values = ic.mode_offset + ic.mode_amp * np.sin(phase)
    else:
        xs, values = _read_xy_csv(ic.path)
        if xs.shape != (grid.n_modes,):
            raise GridMismatch(
                f"{ic.path}: {xs.size} rows, grid has {grid.n_modes} points"
            )
        if np.max(np.abs(xs - x)) > 1e-9:
            raise GridMismatch(f"{ic.path}: abscissae do not match the grid")
    return to_spectral(values, grid)
