"""The soak core: derived verdict and the one verdict renderer."""

from repro.soak import SoakReport, render_report


def test_renderer_lists_every_check_and_one_fail_line_per_failure(capsys):
    report = SoakReport(stats={"resumes": 0}, artifacts={"journal": "/tmp/j"})
    report.add("streams verified", True)
    report.add("resume observed", False, "resumes=0")
    report.add("drained cleanly", False, "outstanding=2")
    assert render_report(report, "chaos-soak", "chaos soak | seed 0") == 1
    out, err = capsys.readouterr()
    assert out.startswith("chaos soak | seed 0\n")
    for name in ("streams verified", "resume observed", "drained cleanly"):
        assert name in out
    assert "/tmp/j" in out and "elapsed" in out
    assert err.splitlines() == [
        "chaos-soak: FAIL: resume observed: resumes=0",
        "chaos-soak: FAIL: drained cleanly: outstanding=2",
    ]


def test_passing_report_exits_zero_and_an_empty_one_fails(capsys):
    report = SoakReport()
    assert not report.ok  # no checks, nothing verified
    report.add("streams verified", True)
    assert report.ok and report.failures == []
    assert render_report(report, "run-soak", "run soak") == 0
    assert capsys.readouterr().err == ""
