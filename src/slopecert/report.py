"""Pass/fail check reports, and the lines every command renders them with.

Check and CheckReport are what the library's verifiers return.  The
renderers below are shared by the command runners (the cmd_* modules):
a report's lines as text or as JSON, its result line, and the transfer
law's summary line, which both ``transfer`` and ``verify`` print.  They
live here, beside Check, because no runner may import another runner's
module or the CLI module.  replay_check is the "replay" check of every
certificate kind.
"""

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


def replay_check(table_name, stored, fresh):
    """The "replay" check: a stored certificate against its recomputation,
    compared with ``==``.  The reader types every field as the builder
    does, so two certificates are equal exactly when their canonical JSON
    is.  Only a failed replay loads jsonio, to name the first field that
    differs by its JSON path along the table ``jsonio.<table_name>``; a
    certificate built in a program, not read, may lack a key of the table
    (a witnesses dict without "slopes"), which no path can name."""
    if stored == fresh:
        return Check("replay", True, "recomputed certificate is byte-identical")
    from . import jsonio

    try:
        path, was, now = jsonio.first_difference(getattr(jsonio, table_name), stored, fresh)
    except KeyError:
        return Check("replay", False, "stored certificate differs from recomputation"
                     " in a field of a shape no document reads as")
    return Check("replay", False, "stored certificate differs from recomputation"
                 " at %s: stored %s, recomputed %s" % (path, was, now))


def _check_lines(checks, indent="  "):
    lines = []
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        line = "%s%-4s %s" % (indent, status, c.name)
        if c.detail:
            line += " -- " + c.detail
        lines.append(line)
    return lines


def _checks_json(checks):
    return [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]


def _result_line(report):
    return "result: %s (%d checks)" % ("PASS" if report.ok else "FAIL", len(report.checks))


def _law_line(smap):
    """The transfer map's summary line."""
    return (
        "slope transfer: nu' = epsilon * q^2 * nu + u with epsilon = %+d, q^2 = %d, u = %s"
        % (smap.epsilon, smap.q ** 2, smap.u)
    )
