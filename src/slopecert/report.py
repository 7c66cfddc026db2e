"""Pass/fail check reports shared by certificate verification and the CLI."""

from .record import Record, _store


class Check(Record):
    """One named pass/fail check, with an optional detail."""

    def __init__(self, name, ok, detail=""):
        _store(self, locals())


class CheckReport(Record):
    """An ordered list of named boolean checks; ok means all passed."""

    def __init__(self, checks):
        _store(self, locals())

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return tuple(c for c in self.checks if not c.ok)
