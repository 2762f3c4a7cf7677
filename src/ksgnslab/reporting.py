"""Residual reports returned by the structural checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Named residuals with per-residual pass thresholds."""

    residuals: dict[str, float] = field(default_factory=dict)
    thresholds: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, residual: float, threshold: float) -> None:
        """Add one residual; a name the report already holds raises ValueError,
        so no merge can overwrite a residual unseen."""
        if name in self.residuals:
            raise ValueError(f"report already holds {name!r}")
        self.residuals[name] = float(residual)
        self.thresholds[name] = float(threshold)

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        for name, value in other.residuals.items():
            self.add(prefix + name, value, other.thresholds[name])

    @property
    def passed(self) -> bool:
        return all(self.residuals[k] <= self.thresholds[k] for k in self.residuals)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def failing(self) -> list[str]:
        return [k for k in self.residuals if self.residuals[k] > self.thresholds[k]]

    def summary(self, empty_threshold: float = 0.0) -> tuple[float, float]:
        """One (residual, threshold) pair for the whole report.

        A passing report gives its largest residual and largest threshold.  A
        failing one gives its worst failing entry (largest residual/threshold
        ratio), so the pair fails too.
        """
        failing = self.failing()
        if not failing:
            return self.max_residual, max(self.thresholds.values(), default=empty_threshold)

        def ratio(k: str) -> float:
            t = self.thresholds[k]
            return self.residuals[k] / t if t > 0 else float("inf")

        worst = max(failing, key=ratio)
        return self.residuals[worst], self.thresholds[worst]

    def __repr__(self) -> str:  # compact: only show failures in full
        status = "pass" if self.passed else f"FAIL {self.failing()}"
        return f"CheckReport({status}, max={self.max_residual:.3e})"
