"""Machine-readable verification report: named residuals with thresholds."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Entry:
    name: str
    max_value: float = float("nan")
    rms_value: float = float("nan")
    threshold: float = float("nan")
    passed: bool = False
    skipped: str = ""  # non-empty reason means the check did not run
    note: str = ""


@dataclass
class VerifyReport:
    """Ordered collection of residual entries plus grid metadata."""

    meta: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def add(self, name, max_value, threshold, rms_value=float("nan"), note=""):
        passed = max_value <= threshold
        self.entries.append(
            Entry(
                name=name,
                max_value=float(max_value),
                rms_value=float(rms_value),
                threshold=float(threshold),
                passed=passed,
                note=note,
            )
        )
        return passed

    def add_bound_below(self, name, value, floor, note=""):
        """A negative control: passes when the value stays at or above floor."""
        passed = value >= floor
        self.entries.append(
            Entry(
                name=name,
                max_value=float(value),
                threshold=float(floor),
                passed=passed,
                note=(note + " (lower bound)").strip(),
            )
        )
        return passed

    def skip(self, name, reason):
        self.entries.append(Entry(name=name, skipped=reason))

    @property
    def all_passed(self):
        return all(e.passed or e.skipped for e in self.entries)

    def render(self):
        """Flat key-value text, stable key order, 17 significant digits."""
        lines = []
        for key in sorted(self.meta):
            lines.append(f"meta.{key} = {self.meta[key]}")
        for e in self.entries:
            if e.skipped:
                lines.append(f"{e.name}.status = skipped")
                lines.append(f"{e.name}.reason = {e.skipped}")
                continue
            lines.append(f"{e.name}.max = {e.max_value:.17g}")
            if e.rms_value == e.rms_value:  # not NaN
                lines.append(f"{e.name}.rms = {e.rms_value:.17g}")
            lines.append(f"{e.name}.threshold = {e.threshold:.17g}")
            lines.append(f"{e.name}.status = {'pass' if e.passed else 'FAIL'}")
            if e.note:
                lines.append(f"{e.name}.note = {e.note}")
        lines.append(f"overall = {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def rms(values):
    """Root mean square, summed strictly left to right: `np.add.accumulate`
    adds in order, so the value is that of a serial loop, bit for bit."""
    sq = np.ravel(values).astype(float)
    if not sq.size:
        return float("nan")
    with np.errstate(over="ignore"):  # inf, silently, as with Python floats
        np.multiply(sq, sq, out=sq)
        total = float(np.add.accumulate(sq, out=sq)[-1])
    return (total / sq.size) ** 0.5
