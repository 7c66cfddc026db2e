"""Pass/fail check reports shared by certificate verification and the CLI."""

from .slopes import Record, _set


class Check(Record):
    """One named pass/fail check, with an optional detail."""

    _fields = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        _set(self, "name", name)
        _set(self, "ok", ok)
        _set(self, "detail", detail)


class CheckReport(Record):
    """An ordered list of named boolean checks; ok means all passed."""

    _fields = ("checks",)

    def __init__(self, checks):
        _set(self, "checks", checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return tuple(c for c in self.checks if not c.ok)

    def passed(self, name):
        """Whether the check called `name` passed."""
        return next(c.ok for c in self.checks if c.name == name)
