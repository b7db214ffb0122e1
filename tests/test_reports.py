"""Outcome records and their JSON encoding."""
from __future__ import annotations

import json

import pytest

from flab import reports as rp
from flab.errors import CapacityError, InputError


def test_statuses_and_ok():
    r = rp.VerificationReport("demo", rp.PASS, {"x": 1})
    assert r.ok
    v = rp.VerificationReport("demo", rp.VIOLATION, {"bad": 2}, "broke")
    assert not v.ok


def test_post_init_validation():
    with pytest.raises(InputError):
        rp.VerificationReport("demo", "great-success")
    with pytest.raises(InputError):
        rp.VerificationReport("demo", rp.VIOLATION, None, "no witness")
    with pytest.raises(InputError):
        rp.VerificationReport("demo", rp.INPUT_ERROR)  # reason missing
    with pytest.raises(InputError):
        rp.VerificationReport("demo", rp.VIOLATION, {"w": 1})  # reason missing


def test_json_line_deterministic():
    r = rp.VerificationReport("demo", rp.PASS, {"b": 1, "a": 2}, seconds=0.5)
    line = r.json_line()
    assert line == '{"name":"demo","seconds":0.5,"status":"pass","witness":{"a":2,"b":1}}'
    assert "seconds" not in json.loads(r.json_line(with_timing=False))


def test_round_trip():
    r = rp.VerificationReport("x", rp.INAPPLICABLE, None, "off topic", 1.25)
    back = rp.VerificationReport.from_json(json.loads(r.json_line()))
    assert back == r
    sans = rp.VerificationReport.from_json(r.to_json(with_timing=False))
    assert sans.seconds == 0.0
    assert sans.status == r.status and sans.reason == r.reason


def test_report_check_success():
    r = rp.report_check("demo", lambda: (rp.PASS, {"n": 3}, None))
    assert r.ok and r.witness == {"n": 3}
    assert r.seconds >= 0.0


def test_report_check_captures_errors():
    def bad():
        raise InputError("nope")

    r = rp.report_check("demo", bad)
    assert r.status == rp.INPUT_ERROR and r.reason == "nope"

    def heavy():
        raise CapacityError("too big")

    r = rp.report_check("demo", heavy)
    assert r.status == rp.CAPACITY_ERROR and r.reason == "too big"

    with pytest.raises(ZeroDivisionError):
        rp.report_check("demo", lambda: 1 // 0)


def test_error_report_names_the_error_or_falls_back():
    r = rp.error_report("demo", InputError("nope"), 1.5)
    assert (r.status, r.reason, r.witness, r.seconds) == (rp.INPUT_ERROR, "nope", None, 1.5)
    assert rp.error_report("demo", InputError()).reason == "invalid input"
    r = rp.error_report("demo", CapacityError())
    assert (r.status, r.reason, r.seconds) == (rp.CAPACITY_ERROR, "capacity exceeded", 0.0)


def test_reported_checks_carry_their_name_and_body():
    @rp.reported("demo-check")
    def check(x):
        if x < 0:
            raise InputError("negative")
        return rp.verdict(x > 0, {"x": x}, "not positive")

    assert check.name == "demo-check" and check.body(0)[0] == rp.VIOLATION
    rep = check(2)
    assert (rep.name, rep.status, rep.witness) == ("demo-check", rp.PASS, {"x": 2})
    with pytest.raises(InputError):
        check(-1)
