"""The benchmark's span recorder patches starcurv names by string; a name
deleted or renamed in the program must fail here, not in a traced run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_span_recorder_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rec = spans.Recorder()
    try:
        rec.install()
        patches = list(rec._patches)
        assert len(patches) >= len(spans.MODULE_TARGETS) + len(spans.CLASS_TARGETS)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, attr
    finally:
        rec.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr
