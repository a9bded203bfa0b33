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


def test_traced_solve_has_one_geometry_per_jacobian(tmp_path, monkeypatch):
    # a traced 16x32 headline solve: each Jacobian reads the geometry its
    # caller assembled for the iterate and assembles none itself, and the
    # line search's trials stay exactly the residual evaluations
    # newton_solve makes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    from starcurv import solver
    from starcurv.cli import main

    evaluations = []
    evaluate = solver._evaluate

    def counted(*args, **kwargs):
        evaluations.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "_evaluate", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workloads.aniso_config(0, 16, 1.0, workloads.HEADLINE_EPSILON))
    rec = spans.Recorder()
    rec.install()
    try:
        assert main(["solve", str(cfg)]) == 0
    finally:
        rec.uninstall()
    metrics = {name: value for name, (value, _) in
               spans.derive(spans.summarize(rec.spans, rec.counts)).items()}
    assert metrics["solver.jacobian.calls"] > 0
    assert metrics["solver.jacobian.evals_per_call"] == 0
    assert metrics["solver.line_search.trials"] == len(evaluations)
