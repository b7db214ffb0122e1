"""Uniform outcome records for verification-style checks.

Every check reports through VerificationReport so the CLI can stream
results as newline-delimited JSON and fixtures can diff them.  Timing is
carried but excluded from golden comparisons.

A check is a body returning (status, witness, reason).  Only this module
reads the clock: _timed_report times a body and builds its report, for
`reported` checks, which let raised errors pass, and for report_check, the
one place where an input or capacity error becomes a report.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

from .errors import CapacityError, InputError

PASS = "pass"
VIOLATION = "violation"
INAPPLICABLE = "inapplicable"
CAPACITY_ERROR = "capacity-error"
INPUT_ERROR = "input-error"

STATUSES = (PASS, VIOLATION, INAPPLICABLE, CAPACITY_ERROR, INPUT_ERROR)


@dataclass(frozen=True)
class VerificationReport:
    """One check outcome.

    Violations always carry a witness; every non-pass status carries a
    machine-readable reason.
    """

    name: str
    status: str
    witness: object = None
    reason: str | None = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InputError(f"unknown status {self.status!r}")
        if self.status == VIOLATION and self.witness is None:
            raise InputError("violation reports must carry a witness")
        if self.status != PASS and not self.reason:
            raise InputError(f"{self.status} reports must carry a reason")

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_json(self, with_timing: bool = True) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        if with_timing:
            out["seconds"] = self.seconds
        return out

    def json_line(self, with_timing: bool = True) -> str:
        return json.dumps(
            self.to_json(with_timing), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, data) -> "VerificationReport":
        return cls(
            name=data["name"],
            status=data["status"],
            witness=data.get("witness"),
            reason=data.get("reason"),
            seconds=data.get("seconds", 0.0),
        )


def error_report(name: str, exc, seconds: float = 0.0) -> VerificationReport:
    """The report of a raised input or capacity error."""
    if isinstance(exc, CapacityError):
        return VerificationReport(
            name, CAPACITY_ERROR, None, str(exc) or "capacity exceeded", seconds)
    return VerificationReport(name, INPUT_ERROR, None, str(exc) or "invalid input", seconds)


def verdict(ok: bool, witness, reason: str) -> tuple:
    """(PASS, witness, None) when ok, else (VIOLATION, witness, reason)."""
    return (PASS, witness, None) if ok else (VIOLATION, witness, reason)


def _timed_report(name: str, body) -> VerificationReport:
    """The report of body() -> (status, witness, reason), timed over the
    call; a raised error passes through."""
    t0 = time.perf_counter()
    status, witness, reason = body()
    return VerificationReport(name, status, witness, reason, time.perf_counter() - t0)


def report_check(name: str, fn) -> VerificationReport:
    """The timed report of fn() -> (status, witness, reason); raised input
    or capacity errors become the matching report statuses."""
    t0 = time.perf_counter()
    try:
        return _timed_report(name, fn)
    except (InputError, CapacityError) as exc:
        return error_report(name, exc, time.perf_counter() - t0)


def reported(name: str):
    """Decorator: the check body(*args) -> (status, witness, reason)
    becomes a function returning its timed report under `name`, which it
    records as the function's `name`.  Raised errors pass through, and the
    body stays reachable as the function's `body`, for a caller that times
    it inside a larger step."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            return _timed_report(name, lambda: body(*args, **kwargs))

        check.name = name
        check.body = body
        return check

    return decorate
