"""Result record shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VerifyReport:
    """Outcome of an exhaustive or sampled verification run."""

    name: str
    ok: bool
    checked: int
    counterexample: str | None = None
    complete: bool = True

    def describe(self):
        status = "ok" if self.ok else "FAILED"
        if self.ok and not self.checked:
            status += " (vacuous: nothing to check)"
        if not self.complete:
            status += " (incomplete: budget exhausted)"
        tail = f": {self.counterexample}" if self.counterexample else ""
        return f"{self.name}: {status}, {self.checked} instances checked{tail}"
