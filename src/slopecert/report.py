"""Pass/fail check reports shared by certificate verification and the CLI."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    """An ordered list of named boolean checks; ok means all passed."""

    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return tuple(c for c in self.checks if not c.ok)

    def passed(self, name):
        """Whether the check called `name` passed."""
        return next(c.ok for c in self.checks if c.name == name)
