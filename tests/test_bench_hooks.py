"""The benchmark's span hooks still find every name they wrap.

``perfbench/one_pass.py`` wraps library functions by module or class
attribute.  A refactor that moves one of those names (into a base class,
say) breaks only traced benchmark runs, so this test installs the hooks
in-process, runs a tiny experiment through them, and checks that every
original attribute is back afterwards.
"""

from pathlib import Path

from popcode_mi import cli, fisher, mc, mi, models, optimize, transform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (cli, mc, mi, optimize, transform, models.PoissonPopulation, fisher.GridPrior)


def test_spans_install_reach_the_layers_and_restore(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import one_pass
    import tracing

    before = [dict(vars(owner)) for owner in OWNERS]
    cfg = tmp_path / "cap.json"
    cfg.write_text('{"n": 5, "m": 50}')
    with tracing.Tracer() as tracer:
        one_pass.install_spans(tracer)
        assert cli.main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "fisher.GridPrior.von_mises", "models.fisher_values", "mi.i_g"} <= names
    for owner, saved in zip(OWNERS, before):
        for attr, value in saved.items():
            assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} not restored"
