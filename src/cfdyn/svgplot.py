"""Static SVG figures for run artifacts.

Plots are written directly as SVG so output bytes are fully deterministic:
the data layer holds one path per trajectory (class "trajectory") plus one
reference path (class "reference"), making figures machine-checkable.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 34, 48

REFERENCE_COLOR = "#d62728"
ENSEMBLE_COLOR = "#333333"
SMOOTH_COLOR = "#1f77b4"
RAW_COLOR = "#b0c4d8"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


class _Panel:
    """One SVG chart: linear axes, tick labels, and polyline paths."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.xlim = self._pad(xlim)
        self.ylim = self._pad(ylim)
        self.elements: list[str] = []

    @staticmethod
    def _pad(lim: tuple[float, float]) -> tuple[float, float]:
        lo, hi = float(lim[0]), float(lim[1])
        if hi <= lo:
            hi = lo + 1.0
        span = hi - lo
        return lo - 0.05 * span, hi + 0.05 * span

    def _sx(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.xlim
        return _MARGIN_L + (x - lo) / (hi - lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def _sy(self, y: np.ndarray) -> np.ndarray:
        lo, hi = self.ylim
        return _HEIGHT - _MARGIN_B - (y - lo) / (hi - lo) * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def path(self, x: np.ndarray, y: np.ndarray, color: str, css_class: str,
             width: float = 1.0, opacity: float = 1.0) -> None:
        """Add one polyline; non-finite points split the path into segments."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if not ok.any():
            return
        # A finite point that is first or follows a non-finite one starts a segment.
        after_gap = np.concatenate(([True], ~ok[:-1]))
        cmds = np.where(after_gap, "M", "L")[ok].tolist()
        px, py = self._sx(x[ok]).tolist(), self._sy(y[ok]).tolist()
        d = " ".join(map("{}{:.2f} {:.2f}".format, cmds, px, py))
        self.elements.append(
            f'<path class="{css_class}" d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}" stroke-opacity="{opacity:g}"/>'
        )

    def _axes(self) -> list[str]:
        x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
        out = [
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000" stroke-width="1"/>',
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000" stroke-width="1"/>',
            f'<text x="{(x0 + x1) / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{self.title}</text>',
            f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{self.xlabel}</text>',
            f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{self.ylabel}</text>',
        ]
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            px = self._sx(np.array([xv]))[0]
            py = self._sy(np.array([yv]))[0]
            out.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" stroke="#000"/>')
            out.append(
                f'<text x="{_fmt(px)}" y="{y0 + 17}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{_tick_label(xv)}</text>'
            )
            out.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#000"/>')
            out.append(
                f'<text x="{x0 - 7}" y="{_fmt(py + 3)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{_tick_label(yv)}</text>'
            )
        return out

    def render(self) -> str:
        body = "\n".join(self._axes() + self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
            f'width="{_WIDTH}" height="{_HEIGHT}">\n{body}\n</svg>\n'
        )


def _finite_range(*arrays: np.ndarray) -> tuple[float, float]:
    values = np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])
    values = values[np.isfinite(values)]
    if values.size == 0:
        return 0.0, 1.0
    return float(values.min()), float(values.max())


def render_plots(
    reference: np.ndarray,
    trajectories: np.ndarray,
    rmse: tuple[np.ndarray, np.ndarray],
    plots_dir: str | Path,
) -> list[Path]:
    """Write ensemble/reference time series, phase projections, and RMSE plots.

    `reference` is the (T+1, d) deterministic counterfactual, `trajectories`
    the (n, T+1, d) ensemble and `rmse` the (rmse, rmse_smoothed) pair.

    Returns the written paths. Raises on an empty ensemble before writing anything.
    """
    if trajectories.size == 0:
        raise ValueError("ensemble is empty; nothing to plot")
    rmse_raw, rmse_smoothed = rmse

    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    d = reference.shape[1]
    steps = np.arange(reference.shape[0])

    for k in range(d):
        panel = _Panel(
            title=f"counterfactual ensemble vs reference, x_{k + 1}",
            xlabel="time step",
            ylabel=f"x_{k + 1}",
            xlim=(0.0, float(steps[-1])),
            ylim=_finite_range(trajectories[:, :, k], reference[:, k]),
        )
        for i in range(len(trajectories)):
            panel.path(steps, trajectories[i, :, k], ENSEMBLE_COLOR,
                       "trajectory", width=0.7, opacity=0.45)
        panel.path(steps, reference[:, k], REFERENCE_COLOR, "reference", width=1.6)
        path = plots_dir / f"cf_timeseries_x{k + 1}.svg"
        path.write_text(panel.render(), encoding="utf-8")
        written.append(path)

    for a in range(d):
        for b in range(a + 1, d):
            panel = _Panel(
                title=f"phase projection x_{a + 1} vs x_{b + 1}",
                xlabel=f"x_{a + 1}",
                ylabel=f"x_{b + 1}",
                xlim=_finite_range(trajectories[:, :, a], reference[:, a]),
                ylim=_finite_range(trajectories[:, :, b], reference[:, b]),
            )
            for i in range(len(trajectories)):
                panel.path(trajectories[i, :, a], trajectories[i, :, b],
                           ENSEMBLE_COLOR, "trajectory", width=0.7, opacity=0.45)
            panel.path(reference[:, a], reference[:, b],
                       REFERENCE_COLOR, "reference", width=1.6)
            path = plots_dir / f"phase_x{a + 1}_x{b + 1}.svg"
            path.write_text(panel.render(), encoding="utf-8")
            written.append(path)

    panel = _Panel(
        title="ensemble divergence from deterministic reference",
        xlabel="time step",
        ylabel="RMSE",
        xlim=(0.0, float(rmse_raw.shape[0] - 1)),
        ylim=_finite_range(rmse_raw, rmse_smoothed),
    )
    t = np.arange(rmse_raw.shape[0])
    panel.path(t, rmse_raw, RAW_COLOR, "rmse-raw", width=1.0)
    panel.path(t, rmse_smoothed, SMOOTH_COLOR, "rmse-smoothed", width=1.6)
    path = plots_dir / "rmse.svg"
    path.write_text(panel.render(), encoding="utf-8")
    written.append(path)

    return written
